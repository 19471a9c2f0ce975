import random
from fractions import Fraction
from pathlib import Path

import pytest

from imapk.errors import CertificateFailure, InvalidMarkovPartition, NotSquare, NotZeroOne
from imapk.families import FamilySpec, build
from imapk.interval_map import PLUS, validate_map
from imapk.markov import (
    MarkovData,
    _verify_row_images,
    detect_markov,
    dynamics_certificates,
    graph_flags,
    markov_for_partition,
    separation_check,
)
from imapk.orbit import CapReached, ProvablyInfinite, SizeLimitReached, critical_closure, forward_orbit
from imapk.report import Pipeline, PipelineOptions
from imapk.scalar import rational
from imapk.snf import kgroups_from_incidence
from imapk.specfile import parse_spec

from conftest import A_OFFDIAG3


def test_detect_tent(tent):
    data = detect_markov(tent)
    assert isinstance(data, MarkovData)
    assert [p.text() for p in data.partition] == ["0", "1/2", "1"]
    assert data.matrix == [[1, 1], [1, 1]]


def test_detect_golden_beta(golden_beta):
    data = detect_markov(golden_beta)
    assert data.matrix == [[1, 1], [1, 0]]


def test_detect_beta_three_halves(beta_three_halves):
    result = detect_markov(beta_three_halves)
    assert isinstance(result, ProvablyInfinite)


def test_detect_realization(offdiag_realization):
    data = detect_markov(offdiag_realization)
    assert data.size == 4
    assert kgroups_from_incidence(data.matrix).as_dict() == kgroups_from_incidence(
        A_OFFDIAG3
    ).as_dict()


def test_graph_flags_full_shift():
    flags = graph_flags([[1, 1], [1, 1]])
    assert flags.irreducible and flags.primitive and flags.condition_L
    assert flags.period == 1
    assert flags.eventual_range == [0, 1]
    assert not flags.permutation


def test_graph_flags_swap():
    flags = graph_flags([[0, 1], [1, 0]])
    assert flags.irreducible and not flags.primitive
    assert flags.permutation
    assert flags.period == 2
    assert not flags.condition_L


def test_graph_flags_example_matrix():
    flags = graph_flags(A_OFFDIAG3)
    assert flags.irreducible and flags.primitive and flags.condition_L


def test_graph_flags_validation():
    with pytest.raises(NotSquare):
        graph_flags([[1, 0]])
    with pytest.raises(NotZeroOne):
        graph_flags([[2, 0], [0, 1]])


def test_graph_flags_reducible_periods():
    A = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ]
    flags = graph_flags(A)
    assert not flags.irreducible
    assert flags.period == 0
    assert sorted(flags.component_periods) == [0, 1, 2]


def _wielandt_primitive(A):
    n = len(A)
    if n == 1:
        return A[0][0] == 1
    power = [row[:] for row in A]
    bound = (n - 1) ** 2 + 1
    for _ in range(bound):
        if all(all(x > 0 for x in row) for row in power):
            return True
        power = [
            [sum(power[i][k] * A[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        power = [[min(x, 1) for x in row] for row in power]
    return all(all(x > 0 for x in row) for row in power)


def test_primitivity_matches_wielandt_oracle():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 6)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        assert graph_flags(A).primitive == _wielandt_primitive(A)


def test_separation(tent, offdiag_realization):
    for m in (tent, offdiag_realization):
        data = detect_markov(m)
        rep = separation_check(data, graph_flags(data.matrix))
        assert rep.status == "separates"
        assert rep.cuntz_krieger


def test_separation_fails_for_rotation():
    from imapk.families import FamilySpec, build

    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 2), Fraction(1, 2)], "permutation": [2, 1]},
        )
    )
    data = detect_markov(m)
    assert data.matrix == [[0, 1], [1, 0]]
    rep = separation_check(data, graph_flags(data.matrix))
    assert rep.status == "fails"


def test_user_partition_accepted(offdiag_realization):
    coarse = markov_for_partition(
        offdiag_realization, [0, Fraction(1, 3), Fraction(2, 3), 1]
    )
    assert coarse.matrix == A_OFFDIAG3
    fine = detect_markov(offdiag_realization)
    assert (
        kgroups_from_incidence(coarse.matrix).as_dict()
        == kgroups_from_incidence(fine.matrix).as_dict()
    )


SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))


def test_canonical_data_is_piecewise_linear():
    # every Markov interval of the critical closure lies inside one branch
    markov = []
    for path in SPECS:
        spec = parse_spec(path.read_text())
        data = Pipeline(spec, PipelineOptions.from_spec(spec)).markov_data
        if data is not None:
            assert data.canonical and data.piecewise_linear, path.stem
            markov.append(path.stem)
    assert markov == ["golden_beta", "realization", "tent"]
    rng = random.Random(211)
    for _ in range(20):
        n = rng.randint(2, 5)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for row in A:
            if not any(row):
                row[rng.randrange(n)] = 1
        assert detect_markov(build(FamilySpec("markov_realization", {"matrix": A}))).piecewise_linear


def _two_slopes():
    """Continuous and onto: slopes 2 and 1 on [0, 3/4], then 4 - 4x."""
    q = Fraction(1, 4)
    return validate_map([0, q, 3 * q, 1], [(2, 0), (1, q), (-4, 4)])


def test_a_coarse_interval_across_two_slopes_decides_nothing():
    # the critical set 0, 1/4, 3/4, 1 is in {0, 3/4, 1} after two steps:
    # 1/4 -> 1/2 -> 3/4
    data = markov_for_partition(_two_slopes(), [0, Fraction(3, 4), 1])
    assert data.matrix == [[1, 1], [1, 1]]
    assert not data.canonical and not data.piecewise_linear
    flags = graph_flags(data.matrix)
    rep = separation_check(data, flags)
    assert (rep.status, rep.cuntz_krieger) == ("unknown", False)
    assert rep.reason == "slope is not constant within every Markov interval"
    assert dynamics_certificates(data, flags, True) == []
    # the canonical data of the same map splits [0, 3/4] at 1/4 and 1/2
    fine = detect_markov(_two_slopes())
    assert fine.piecewise_linear and fine.size == 4
    assert [c.prop for c in dynamics_certificates(fine, graph_flags(fine.matrix), True)] == [
        "exact", "transitive"]


def test_user_partition_rejected(tent):
    with pytest.raises(InvalidMarkovPartition):
        markov_for_partition(tent, [0, Fraction(1, 3), 1])


def test_a_user_point_is_tested_by_its_forward_orbit():
    # x -> 4x/3 on [0, 3/4] and x -> 4 - 4x on [3/4, 1]: the closure is
    # 0, 3/4, 1, and the valuation certificate holds v_3(x) < 0
    m = validate_map([0, Fraction(3, 4), 1], [(Fraction(4, 3), 0), (-4, 4)])
    assert [p.text() for p in critical_closure(m).points] == ["0", "3/4", "1"]
    # 81/256 -> 27/64 -> 9/16 -> 3/4 reaches the closure at the third step
    data = markov_for_partition(
        m, [0, Fraction(81, 256), Fraction(27, 64), Fraction(9, 16), Fraction(3, 4), 1]
    )
    assert data.matrix == [
        [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 1, 1]
    ]
    # the orbit of 1/3 is certified infinite at once, so it never meets the
    # complete closure
    assert isinstance(forward_orbit(m, Fraction(1, 3)).status, ProvablyInfinite)
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(m, [0, Fraction(1, 3), 1])
    assert str(info.value) == "1/3 is not in the generalized orbit of the critical set"


def test_a_walk_stopped_at_a_limit_is_named_by_its_limit(tent):
    # 1/32 -> 1/16 -> 1/8 -> 1/4 -> 1/2 meets the closure 0, 1/2, 1 at the
    # fourth step: the default cap accepts the partition, and cap 3 stops the
    # walk before it, which shows nothing about the rest of the orbit
    points = [0, Fraction(1, 32), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1]
    assert markov_for_partition(tent, points).size == 6
    assert critical_closure(tent, 3).complete
    assert forward_orbit(tent, Fraction(1, 32), 3).status == CapReached(3)
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(tent, points, cap=3)
    assert str(info.value) == "1/32 does not reach the critical closure within cap 3"
    # x -> 3x/2 on [0, 2/3] and x -> 3 - 3x on [2/3, 1]: no valuation
    # certificate (the unit branch's fixed point 3/4 has v_2 = -2 < 0), and
    # the orbit of 1/5 passes 4096 bits before the cap
    m = validate_map([0, Fraction(2, 3), 1], [(Fraction(3, 2), 0), (-3, 3)])
    assert forward_orbit(m, Fraction(1, 5)).status == SizeLimitReached(4096)
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(m, [0, Fraction(1, 5), 1])
    assert str(info.value) == "1/5 does not reach the critical closure within the 4096-bit size limit"


def test_a_certified_infinite_closure_is_named_as_such():
    # beta = 3/2: the valuation certificate ends the closure search; no cap is reached
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(build(FamilySpec("beta", {"beta": Fraction(3, 2)})), [0, Fraction(2, 3), 1])
    assert str(info.value) == (
        "critical closure is provably infinite (p-adic valuation certificate: the region "
        "v_2(x) < 0 is forward invariant and holds no partition point and no cycle)"
    )


def test_row_image_law(tent, golden_beta, offdiag_realization):
    from imapk.interval_map import merge_closed_intervals

    for m in (tent, golden_beta, offdiag_realization):
        data = detect_markov(m)
        for j in range(data.size):
            lo, hi = data.partition[j], data.partition[j + 1]
            b = m.branches[m.branch_index_at(lo, PLUS)]
            u, v = b(lo), b(hi)
            image = (u, v) if u <= v else (v, u)
            selected = [
                (data.partition[k], data.partition[k + 1])
                for k in range(data.size)
                if data.matrix[j][k]
            ]
            assert merge_closed_intervals(selected) == [image]


def test_tampered_row_image_raises(tent):
    data = detect_markov(tent)
    data.matrix[0][0] = 0
    # both intervals of the tent map onto [0, 1]
    with pytest.raises(CertificateFailure):
        _verify_row_images(data, [[(rational(0), rational(1))]] * 2)


def test_tampered_row_image_raises_on_a_user_partition(offdiag_realization):
    third = rational(1, 3)
    data = markov_for_partition(offdiag_realization, [0, Fraction(1, 3), Fraction(2, 3), 1])
    assert not data.canonical and data.matrix == A_OFFDIAG3
    # the rows of A_OFFDIAG3: each interval covers the two others
    images = [[(third, rational(1))], [(rational(0), third), (2 * third, rational(1))],
              [(rational(0), 2 * third)]]
    _verify_row_images(data, images)
    data.matrix[1][2] = 0
    with pytest.raises(CertificateFailure, match="row-image law violated for interval 2"):
        _verify_row_images(data, images)


def _doubling():
    return validate_map([0, Fraction(1, 2), 1], [(2, 0), (2, -1)])


def _period_two_kinks():
    """Continuous, decreasing and onto, with the kinks 1/4 <-> 1/2 a 2-cycle."""
    q = Fraction(1, 4)
    return validate_map([0, q, 2 * q, 1], [(-2, 1), (-1, 3 * q), (Fraction(-1, 2), 2 * q)])


@pytest.mark.parametrize("make, points, message", [
    # the first failing check is the one reported: orbit membership before
    # the intervals, the intervals left to right, monotonicity before alignment
    ("tent", [0, Fraction(1, 3), 1],
     "1/3 is not in the generalized orbit of the critical set"),
    ("tent", [0, 1], "map is not monotonic on (0, 1)"),
    ("doubling", [0, 1], "map is not monotonic on (0, 1)"),
    ("doubling", [0, Fraction(3, 8), Fraction(1, 2), 1],
     "image of (0, 3/8) is not aligned with the partition"),
    ("doubling", [0, Fraction(3, 8), 1],
     "image of (0, 3/8) is not aligned with the partition"),
    ("doubling", [0, Fraction(1, 2), Fraction(5, 8), 1],
     "image of (1/2, 5/8) is not aligned with the partition"),
    ("kinks", [0, 1],
     "forward images of the critical set never enter the partition set"),
])
def test_user_partition_rejection_texts(tent, make, points, message):
    m = {"tent": tent, "doubling": _doubling(), "kinks": _period_two_kinks()}[make]
    with pytest.raises(InvalidMarkovPartition) as info:
        markov_for_partition(m, points)
    assert str(info.value) == message
