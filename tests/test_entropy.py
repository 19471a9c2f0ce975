from fractions import Fraction

from imapk.entropy import entropy_report, perron_enclosure, uniform_abs_slope
from imapk.interval_map import Certificate, dynamics_flags
from imapk.markov import detect_markov, dynamics_certificates, graph_flags
from imapk.report import run
from imapk.scalar import rational
from imapk.snf import char_poly
from imapk.specfile import parse_spec

from conftest import A_OFFDIAG3


def test_perron_full_shift():
    lo, hi, exact = perron_enclosure([[1, 1], [1, 1]])
    assert (lo, hi) == (2, 2)
    assert exact == rational(2)


def test_perron_golden():
    lo, hi, exact = perron_enclosure([[1, 1], [1, 0]])
    assert hi - lo <= Fraction(1, 10**6)
    assert exact is not None and exact.field.poly == (-1, -1, 1)
    # phi is approximately 1.618
    assert lo < Fraction(1619, 1000) and hi > Fraction(1617, 1000)


def test_perron_permutation():
    lo, hi, exact = perron_enclosure([[0, 1], [1, 0]])
    assert (lo, hi) == (1, 1) and exact == rational(1)


def test_perron_example_matrix():
    lo, hi, exact = perron_enclosure(A_OFFDIAG3)
    assert exact == rational(2)


def test_perron_reducible_takes_max():
    A = [
        [1, 1, 0],
        [1, 1, 0],
        [1, 0, 0],
    ]
    lo, hi, exact = perron_enclosure(A)
    assert exact == rational(2)


# the golden block and a block whose root 2.2470 is that of t^3 - 2t^2 - t + 1;
# at tol 3/4 the golden enclosure has the larger lower end
TWO_BLOCKS = [
    [1, 1, 0, 0, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 1, 1, 1],
]


def test_a_reducible_enclosure_holds_the_largest_component_root():
    larger = char_poly([row[2:] for row in TWO_BLOCKS[2:]])
    for tol in (Fraction(3, 4), Fraction(1, 10**6)):
        lo, hi, exact = perron_enclosure(TWO_BLOCKS, tol)
        assert hi - lo <= tol
        assert larger(lo) < 0 < larger(hi)
        assert exact is None
    spec = parse_spec("map { family = markov_realization; matrix = %s }" % TWO_BLOCKS)
    report, _ = run("entropy", spec, {"tol": Fraction(3, 4)})
    assert report["entropy"]["s_enclosure"] == ["3/2", "9/4"]
    assert report["entropy"]["exact_s"] is None


def test_a_reducible_exact_root_is_kept_only_where_it_dominates():
    golden = [[1, 1], [1, 0]]
    twice = [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]]
    with_a_loop = [[1, 1, 0], [1, 0, 0], [0, 0, 1]]
    for A in (twice, with_a_loop):
        assert perron_enclosure(A) == perron_enclosure(golden)


def test_enclosure_sign_change_and_refinement():
    A = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    p = char_poly(A).squarefree_part()
    wide = perron_enclosure(A, Fraction(1, 100))
    tight = perron_enclosure(A, Fraction(1, 10**8))
    if wide[2] is None:
        assert p(wide[0]) * p(wide[1]) < 0
        assert wide[0] <= tight[0] and tight[1] <= wide[1]


def test_entropy_report_tent(tent):
    data = detect_markov(tent)
    certs = dynamics_certificates(data, graph_flags(data.matrix), True)
    flags = dynamics_flags(tent, certificates=certs)
    rep = entropy_report(tent, flags, data)
    assert rep.method == "perron_markov"
    assert rep.exact_s == rational(2)
    assert rep.entropy_note() == "ln 2"
    assert any("KMS" in n for n in rep.notes)


def test_entropy_report_beta(beta_three_halves):
    certs = [Certificate("exact", True, "beta family")]
    flags = dynamics_flags(beta_three_halves, certificates=certs)
    rep = entropy_report(beta_three_halves, flags, None)
    assert rep.method == "uniform_slope"
    assert rep.exact_s == rational(3, 2)


def test_entropy_report_exchange(golden_exchange):
    certs = [Certificate("transitive", True, "minimal rotation")]
    flags = dynamics_flags(golden_exchange, certificates=certs)
    rep = entropy_report(golden_exchange, flags, None)
    assert rep.method == "uniform_slope"
    assert rep.exact_s == rational(1)
    # essentially injective: no KMS annotation
    assert not any("KMS" in n for n in rep.notes)


def test_entropy_unknown_without_certificates():
    from imapk.interval_map import validate_map

    m = validate_map(
        [0, Fraction(1, 2), 1], [(Fraction(3, 2), 0), (-2, 2)]
    )
    flags = dynamics_flags(m)
    rep = entropy_report(m, flags, None)
    assert rep.method == "unknown"
    assert uniform_abs_slope(m) is None


def test_slope_perron_agreement(tent, golden_beta):
    for m in (tent, golden_beta):
        data = detect_markov(m)
        lo, hi, exact = perron_enclosure(data.matrix)
        s = uniform_abs_slope(m)
        s_lo, s_hi = s.enclosure(Fraction(1, 10**6))
        assert not (s_hi < lo or s_lo > hi)
