import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from imapk.errors import (
    CertificateFailure,
    HypothesisViolatedWithinCap,
    InvalidMarkovPartition,
    NotAnExchangeMap,
    ReducibleMinimalPolynomial,
)
from imapk.families import FamilySpec, build
from imapk.orbit import (
    CapReached,
    Closed,
    IdocFails,
    IdocHolds,
    MAX_COEFF_BITS,
    ProvablyInfinite,
    SizeLimitReached,
    _ValuationCertificate,
    _certificate,
    _oversized,
    _valuation_witness,
    critical_closure,
    forward_orbit,
    idoc_check,
    interior_orbits_disjoint,
    keane_idoc,
    reverify_closed,
    tau_orbit,
)
from imapk import interval_map as imap
from imapk.interval_map import validate_map
from imapk.markov import detect_markov, markov_for_partition
from imapk.report import run
from imapk.scalar import ONE, NumberField, rational
from imapk.specfile import parse_spec

from conftest import make_rational_map
from test_families import CERTIFIED_COLLISION

SPECS_DIR = Path(__file__).resolve().parents[1] / "specs"
SPECS = sorted(SPECS_DIR.glob("*.imapk"))


def test_tent_orbit_of_half(tent):
    r = forward_orbit(tent, Fraction(1, 2))
    assert [p.text() for p in r.points] == ["1/2", "1", "0"]
    assert isinstance(r.status, Closed)
    assert (r.status.preperiod, r.status.period) == (2, 1)
    assert reverify_closed(tent, r.points, r.status)


def test_branched_orbit_edges_run_from_each_point_to_its_values():
    doubling = build(FamilySpec("beta", {"beta": 2}))
    r = forward_orbit(doubling, Fraction(1, 4))
    # 1/2 has the two one-sided limit values 1 and 0
    assert [p.text() for p in r.points] == ["1/4", "1/2", "0", "1"]
    assert r.edges == [(0, 1), (1, 2), (1, 3), (2, 2), (3, 3)]
    assert r.status.branched


def test_beta_three_halves_provably_infinite(beta_three_halves):
    r = forward_orbit(beta_three_halves, 1)
    assert isinstance(r.status, ProvablyInfinite)
    # soundness recheck: the first iterates have strictly growing denominators
    points, status = tau_orbit(beta_three_halves, rational(1), 40)
    denoms = [p.as_fraction().denominator for p in points[:11]]
    assert all(a < b for a, b in zip(denoms, denoms[1:]))


def test_golden_beta_orbit_branches(golden_beta, phi):
    r = forward_orbit(golden_beta, rational(1))
    assert isinstance(r.status, Closed) and r.status.branched
    assert set(r.points) == {rational(1), phi - 1, rational(0)}


def test_critical_closure_tent(tent):
    cc = critical_closure(tent)
    assert cc.complete
    assert [p.text() for p in cc.points] == ["0", "1/2", "1"]


def test_critical_closure_beta_three_halves(beta_three_halves):
    cc = critical_closure(beta_three_halves)
    assert not cc.complete
    assert isinstance(cc.stop, ProvablyInfinite)


def test_critical_closure_realization(offdiag_realization):
    cc = critical_closure(offdiag_realization)
    assert cc.complete
    assert [p.text() for p in cc.points] == ["0", "1/3", "1/2", "2/3", "1"]


def test_closed_reverification_random_markov_maps():
    rng = random.Random(77)
    verified = 0
    for _ in range(20):
        n = rng.randint(2, 4)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for row in A:
            if not any(row):
                row[rng.randrange(n)] = 1
        m = build(FamilySpec("markov_realization", {"matrix": A}))
        for _ in range(3):
            x = Fraction(rng.randint(0, 4 * n), 4 * n)
            points, status = tau_orbit(m, x, 4000)
            assert isinstance(status, Closed)
            assert reverify_closed(m, points, status)
            verified += 1
    assert verified >= 40


def test_every_closed_orbit_of_0_and_1_of_the_shipped_specs_rechecks():
    closed = 0
    for path in SPECS:
        m = parse_spec(path.read_text()).map
        for x in (0, 1):
            points, status = tau_orbit(m, x, 1000)
            if isinstance(status, Closed):
                assert reverify_closed(m, points, status), (path.stem, x)
                closed += 1
    assert closed == 7


def test_a_planted_table_entry_fails_the_closed_orbit_recheck(tent):
    from imapk.ktheory import beta_orbit_data, unimodal_orbit_data

    # 0 is fixed, but the table says it maps to 1/2: the walk 0, 1/2, 1
    # closes at 0, and stepping 0 three times through the branches gives 0
    tent.images[rational(0)] = (rational(1, 2),)
    points, status = tau_orbit(tent, 0)
    assert [p.text() for p in points] == ["0", "1/2", "1"]
    assert status == Closed(0, 3)
    assert not reverify_closed(tent, points, status)
    with pytest.raises(CertificateFailure, match="the closed orbit of 0 fails its re-check"):
        unimodal_orbit_data(tent)
    # the doubling map fixes 1; planted 1 -> 1/2 gives the walk 1, 1/2, 0
    doubling = build(FamilySpec("beta", {"beta": 2}))
    doubling.images[ONE] = (rational(1, 2),)
    points, status = tau_orbit(doubling, 1)
    assert status == Closed(2, 1) and not reverify_closed(doubling, points, status)
    with pytest.raises(CertificateFailure, match="the closed orbit of 1 fails its re-check"):
        beta_orbit_data(doubling, 2)


def test_idoc_golden_exchange(golden_exchange):
    result = idoc_check(golden_exchange, 1000)
    assert isinstance(result, IdocHolds)


def test_idoc_rational_rotation_fails():
    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 3), Fraction(2, 3)], "permutation": [2, 1]},
        )
    )
    result = idoc_check(m, 1000)
    assert isinstance(result, IdocFails)
    # 1/3 -> 0 -> 2/3 -> 1/3
    assert result.witness == "orbit of 1/3 is eventually periodic (preperiod 0, period 3)"


def test_idoc_rational_three_exchange_fails():
    m = build(
        FamilySpec(
            "interval_exchange",
            {
                "lengths": [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
                "permutation": [3, 1, 2],
            },
        )
    )
    result = idoc_check(m, 1000)
    assert isinstance(result, IdocFails)


def test_idoc_proves_nothing_without_an_interior_point():
    identity = validate_map([0, 1], [(1, 0)])
    assert idoc_check(identity, 100) == IdocHolds(None)


def test_keane_decides_the_golden_exchange(golden_exchange):
    status = keane_idoc(golden_exchange)
    assert isinstance(status, ProvablyInfinite)
    # lengths 2 - phi and phi - 1: Gram determinant 5 * 2 - 3 * 3
    assert status.witness == (
        "permutation [2, 1]; the lengths' coefficient vectors have Gram determinant 1"
    )


def test_keane_decides_nothing_outside_its_hypotheses(phi):
    rational_rotation = build(FamilySpec(
        "interval_exchange", {"lengths": [Fraction(1, 3), Fraction(2, 3)], "permutation": [2, 1]}
    ))
    # three lengths in a degree-2 field are dependent over Q
    l1 = (phi - 1) * (phi - 1)
    three = build(FamilySpec(
        "interval_exchange", {"lengths": [l1, l1 * l1, 1 - l1 - l1 * l1], "permutation": [3, 2, 1]}
    ))
    # increasing and bijective, but with slopes other than 1
    c = phi - 1
    s1, s2 = rational(Fraction(1, 2)) / c, rational(Fraction(1, 2)) / (1 - c)
    generalized = validate_map([0, c, 1], [(s1, 0), (s2, 1 - s2)])
    # slope 1 on both branches, but the images overlap
    overlapping = validate_map([0, c, 1], [(1, 0), (1, Fraction(-1, 100))])
    for m in (rational_rotation, three, generalized, overlapping):
        assert keane_idoc(m) is None
    # over (x^2 - 2)(x^2 - 3) at sqrt(2), x^2/4 and 1 - x^2/4 would have
    # independent coefficient vectors but both be 1/2: no such field is built
    with pytest.raises(ReducibleMinimalPolynomial):
        NumberField([6, 0, -5, 0, 1], (1, Fraction(3, 2)))


KEANE_FIELDS = [
    NumberField([-1, -1, 1], (1, 2)),
    NumberField([-2, 0, 1], (1, 2)),
    NumberField([-1, -1, 0, 1], (1, 2)),
    NumberField([-1, -1, 0, 0, 1], (1, 2)),
]


def _exchange_lengths(rng, field, k):
    """k positive lengths summing to 1: small field elements, or rationals
    when field is None."""
    while True:
        lengths = []
        for _ in range(k - 1):
            den = rng.randint(3, 9)
            if field is None:
                lengths.append(rational(Fraction(rng.randint(1, den), den * k)))
            else:
                lengths.append(field.element([Fraction(rng.randint(-5, 5), den)
                                              for _ in range(field.degree)]))
        last = ONE
        for x in lengths:
            last = last - x
        lengths.append(last)
        if all(x.sign() > 0 for x in lengths):
            return lengths


def test_keane_never_contradicts_the_capped_check():
    # derandomized: 2-4 intervals over quadratic, cubic and quartic fields,
    # with rational lengths and reducible permutations mixed in
    rng = random.Random(12)
    decided = 0
    for _ in range(60):
        k = rng.randint(2, 4)
        field = None if rng.random() < 0.2 else rng.choice(KEANE_FIELDS)
        permutation = list(range(1, k + 1))
        rng.shuffle(permutation)
        m = build(FamilySpec("interval_exchange", {
            "lengths": _exchange_lengths(rng, field, k), "permutation": permutation,
        }))
        status = keane_idoc(m)
        reducible = any(max(permutation[:j]) == j for j in range(1, k))
        if field is None or reducible:
            assert status is None, (field, permutation)
        if status is not None:
            decided += 1
            assert isinstance(idoc_check(m, 40), IdocHolds), (field, permutation)
    assert decided >= 15


def test_idoc_requires_exchange(tent):
    with pytest.raises(NotAnExchangeMap):
        idoc_check(tent, 100)


def _seeded_beta_maps(count=20):
    """(beta, map) for `count` random rational betas p/q in (1, 3), seeded."""
    rng = random.Random(101)
    out = []
    while len(out) < count:
        q = rng.randint(2, 9)
        p = rng.randint(q + 1, 3 * q - 1)
        if gcd(p, q) != 1:
            continue
        beta = Fraction(p, q)
        if beta <= 1 or beta >= 3:
            continue
        out.append((beta, build(FamilySpec("beta", {"beta": beta}))))
    return out


def test_denominator_certificate_random_beta():
    for beta, m in _seeded_beta_maps():
        r = forward_orbit(m, 1)
        assert isinstance(r.status, ProvablyInfinite), beta


def test_no_partition_point_is_certified():
    # the region v_p < T lies below every partition point's valuation, so
    # the search never certifies a point where the map has two values
    maps = [parse_spec(path.read_text()).map for path in SPECS]
    maps += [m for _, m in _seeded_beta_maps()]
    rng = random.Random(3)
    maps += [make_rational_map(rng) for _ in range(40)]
    assert sum(bool(_certificate(m).regions) for m in maps) >= 40
    for m in maps:
        cert = _certificate(m)
        assert not any(cert.region_of(p) for p in m.partition)


def test_certified_orbits_stay_apart_from_themselves_and_the_partition():
    # derandomized: follow each orbit that the certificate ends for 2,000
    # more steps through the branches; none revisits a point or meets a
    # partition point
    rng = random.Random(5)
    followed = 0
    while followed < 12:
        m = make_rational_map(rng)
        cert = _certificate(m)
        partition = set(m.partition)
        for x in m.partition[1:-1]:
            points, status = tau_orbit(m, x, 500)
            if not isinstance(status, ProvablyInfinite):
                continue
            # the walk stops at the first point inside a region
            certified = next(i for i, p in enumerate(points) if cert.region_of(p))
            seen = set(points[: certified + 1])
            y = points[certified]
            for _ in range(2000):
                assert y not in partition
                (y,) = imap.limits(m, y)
                assert y not in seen
                seen.add(y)
            followed += 1


def _unit_branch_maps():
    """Maps that the certificate decides nothing on: at p = 3, the only
    prime of a slope denominator, each has a unit branch it excludes."""
    return {
        # slopes 2 and -2 are both units at 3
        "two unit branches": validate_map(
            [0, Fraction(1, 2), Fraction(3, 4), 1],
            [(Fraction(4, 3), 0), (2, -1), (-2, 2)],
        ),
        # x -> 1 - x swaps x and 1 - x
        "s = -1": validate_map([0, Fraction(1, 2), 1], [(Fraction(4, 3), 0), (-1, 1)]),
        # the identity fixes every point
        "s = 1, c = 0": validate_map(
            [0, Fraction(1, 2), 1], [(1, 0), (Fraction(-4, 3), Fraction(4, 3))]
        ),
        # -2x + 2 fixes 2/3, where v_3 = -1 is below T = 0
        "fixed point inside": validate_map(
            [0, Fraction(1, 2), 1], [(Fraction(4, 3), 0), (-2, 2)]
        ),
    }


@pytest.mark.parametrize("name", list(_unit_branch_maps()))
def test_a_unit_branch_outside_the_hypotheses_decides_nothing(name):
    m = _unit_branch_maps()[name]
    assert _ValuationCertificate(m).regions == []
    # what the hypothesis rules out happens: 2/3 is a fixed point in the region
    if name == "fixed point inside":
        r = forward_orbit(m, Fraction(2, 3))
        assert r.status == Closed(0, 1)


def test_one_unit_branch_with_its_fixed_point_outside_is_certified():
    # -2x + 2 fixes the partition point 2/3, and v_3(2/3) = -1 is not below
    # T = -1, which that partition point sets
    m = validate_map([0, Fraction(2, 3), 1], [(Fraction(4, 3), 0), (-2, 2)])
    assert _ValuationCertificate(m).regions == [(3, -1, 9)]
    # x + 1/3 has no periodic point at all; its intercept sets T = -1
    shift = validate_map(
        [0, Fraction(1, 2), 1], [(1, Fraction(1, 3)), (Fraction(-4, 3), Fraction(4, 3))]
    )
    assert _ValuationCertificate(shift).regions == [(3, -1, 9)]


def test_a_map_builds_its_certificate_once(monkeypatch):
    import imapk.orbit as orbit

    built = []

    class Counted(_ValuationCertificate):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)

    monkeypatch.setattr(orbit, "_ValuationCertificate", Counted)
    spec = parse_spec((SPECS_DIR / "multimodal.imapk").read_text())
    run("all", spec)
    assert built == [spec.map]


def test_trial_division_skips_a_cofactor_it_cannot_factor():
    from imapk.orbit import _TRIAL_DIVISION_BOUND, _slope_primes

    big = 2**61 - 1  # a prime above the bound
    assert _slope_primes(3**4 * 5 * big) == [3, 5]
    # 4099 has no factor up to its square root, so it is found prime
    assert _slope_primes(3 * 4099) == [3, 4099]
    assert _slope_primes(1) == []
    assert big > _TRIAL_DIVISION_BOUND**2 > 4099


def _size_limited_map():
    # slopes with denominators 3^49 and 5^34 add about 79 bits per step; each
    # numerator is divisible by the other slope's prime, so at 3 and at 5 a
    # slope has positive valuation and the valuation certificate does not apply
    s = Fraction(2 * 3**50 - 3, 3**50)
    t = Fraction(2 * 5**34 - 2, 5**34)
    m = validate_map([0, Fraction(1, 2), 1], [(s, 0), (-t, t)])
    assert _ValuationCertificate(m).regions == []
    return m


def test_size_limit_ends_forward_and_tau_orbits():
    m = _size_limited_map()
    r = forward_orbit(m, Fraction(1, 3))
    assert r.status == SizeLimitReached(MAX_COEFF_BITS)
    assert r.as_dict()["status"] == {"kind": "size_limit_reached", "max_coeff_bits": 4096}
    assert len(r.points) == 54 and len(r.edges) == 53
    points, status = tau_orbit(m, Fraction(1, 3))
    assert status == SizeLimitReached(MAX_COEFF_BITS) and len(points) == 54
    assert points == r.points


def test_size_limit_ends_the_closure():
    m = _size_limited_map()
    cc = critical_closure(m)
    assert not cc.complete and cc.stop == SizeLimitReached(MAX_COEFF_BITS)
    assert len(cc.points) == 111
    assert any(
        p.as_fraction().denominator.bit_length() > MAX_COEFF_BITS for p in cc.points
    )
    # the Markov verdict names the limit that ended the closure, not the cap
    assert detect_markov(m, closure=cc) == SizeLimitReached(MAX_COEFF_BITS)
    with pytest.raises(InvalidMarkovPartition, match="within the 4096-bit size limit"):
        markov_for_partition(m, [0, Fraction(1, 2), 1], closure=cc)
    b1, b2 = m.branches
    spec = parse_spec(
        "map { partition = [0, 1/2, 1]; branch = { slope = %s, intercept = 0 }\n"
        "  branch = { slope = %s, intercept = %s } }"
        % (b1.slope.text(), b2.slope.text(), b2.intercept.text())
    )
    assert run("markov", spec)[0]["markov"] == {
        "status": "not_markov_within_size_limit", "max_coeff_bits": MAX_COEFF_BITS,
    }


def test_oversized_reads_each_coefficient_in_lowest_terms():
    # 1/p + alpha/q with p and q coprime of about 3000 bits: den = p*q passes
    # 4096 bits, but no coefficient has a part past the limit
    field = NumberField([-1, -1, 1], (1, 2))
    p, q = (1 << 2999) + 1, (1 << 2999) + 3  # odd and two apart, so coprime
    x = field.element([Fraction(1, p), Fraction(1, q)])
    assert x.den.bit_length() > MAX_COEFF_BITS
    assert not _oversized(x)
    # one coefficient with a 4097-bit numerator or denominator is oversized,
    # in Q and in a field
    wide = 1 << MAX_COEFF_BITS
    for c in (Fraction(wide + 1, 3), Fraction(1, wide + 1), Fraction(wide - 1, wide + 1)):
        assert c.numerator.bit_length() > MAX_COEFF_BITS or c.denominator.bit_length() > MAX_COEFF_BITS
        assert _oversized(rational(c))
        assert _oversized(field.element([Fraction(1, 3), c]))
        assert _oversized(field.element([c, 1]))
    # and 4096 bits is not past the limit
    assert not _oversized(field.element([Fraction(wide - 1, 3), Fraction(1, wide - 1)]))
    assert not _oversized(rational(wide - 1, wide - 3))


def test_cap_reached():
    # irrational-slope-free map with a long pre-period still caps out honestly
    m = build(FamilySpec("beta", {"beta": Fraction(5, 2)}))
    points, status = tau_orbit(m, rational(1), 5)
    assert isinstance(status, (CapReached, ProvablyInfinite))


def test_closure_points_are_reported_in_order(golden_exchange, beta_three_halves, offdiag_realization):
    capped = critical_closure(golden_exchange, cap=40)
    certified = critical_closure(beta_three_halves)
    complete = critical_closure(offdiag_realization)
    assert not capped.complete and not certified.complete and complete.complete
    assert complete.points == sorted(complete.points)
    for cc in (capped, certified, complete):
        assert cc.as_dict()["points"] == [p.text() for p in sorted(cc.points)]


def test_growth_witness_rejects_a_point_it_cannot_certify(tent, beta_three_halves):
    # 1/3 -> 2/3 -> 2/3: v_3 stays -1, but the iterates repeat
    with pytest.raises(CertificateFailure, match="again"):
        _valuation_witness(tent, rational(1, 3), 3, 0)
    # the beta map jumps at 2/3, where it has the two limit values 1 and 0
    with pytest.raises(CertificateFailure, match="partition point"):
        _valuation_witness(beta_three_halves, rational(2, 3), 3, 0)
    # v_2(1/3) = 0 is not below T = 0
    with pytest.raises(CertificateFailure, match="outside"):
        _valuation_witness(beta_three_halves, rational(1, 3), 2, 0)
    # a tampered bound: 1/4 -> 3/8 has v_3 = 1, not below T = 1
    with pytest.raises(CertificateFailure, match="below 1"):
        _valuation_witness(beta_three_halves, rational(1, 4), 3, 1)
    assert _valuation_witness(beta_three_halves, rational(1, 4), 2, 0).startswith(
        "v_2 of the iterates [-2, -3, -4"
    )


class _NoTable(dict):
    """A table of images that refuses every lookup and every store."""

    def _refuse(self, *args):
        raise LookupError("the table of images was read")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _refuse


def test_the_rechecks_evaluate_the_branches_themselves(tent, monkeypatch):
    from imapk.ktheory import minimal_polynomial_iter
    from imapk.stepfun import apply_int_poly, indicator, transfer

    # a closed orbit: 1/3 -> 2/3 -> 2/3
    points, status = tau_orbit(tent, Fraction(1, 3))
    monkeypatch.setattr(tent, "images", _NoTable())
    assert reverify_closed(tent, points, status)
    with pytest.raises(LookupError):
        tau_orbit(tent, Fraction(1, 3))
    # a valuation witness: slopes 3/2, and v_2(1/4) = -2 is below T = 0
    beta = build(FamilySpec("beta", {"beta": Fraction(3, 2)}))
    assert _certificate(beta).region_of(rational(1, 4)) == (2, 0)
    monkeypatch.setattr(beta, "images", _NoTable())
    assert _valuation_witness(beta, rational(1, 4), 2, 0).startswith("v_2 of the iterates [-2, -3, -4")
    # a minimal polynomial whose iterates have the breakpoint 1/4 inside
    # the first branch's domain; the transfer maps it by its branch, so the
    # iteration, its re-check and a lone step all run without the table
    m = validate_map([0, Fraction(1, 2), 1], [(2, 0), (Fraction(-1, 2), Fraction(1, 2))])
    monkeypatch.setattr(m, "images", _NoTable())
    poly = minimal_polynomial_iter(m).poly
    assert poly.text() == "t^3 - t^2 - 1"
    assert apply_int_poly(m, poly, indicator(0, 1)).is_zero
    assert transfer(m, indicator(0, Fraction(1, 4))) == indicator(0, Fraction(1, 2))


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_the_iteration_reads_no_table(path, monkeypatch):
    from imapk.ktheory import minimal_polynomial_iter

    # every shipped map is surjective, as the iteration needs
    m = parse_spec(path.read_text()).map
    usual = minimal_polynomial_iter(m)
    monkeypatch.setattr(m, "images", _NoTable())
    assert minimal_polynomial_iter(m) == usual


# -- the integer-pair walk of a rational map against the Scalar search ----------

def _continuous_map(rng):
    n = rng.randint(2, 4)
    pts = [Fraction(0), *(Fraction(k, 40) for k in sorted(rng.sample(range(1, 40), n - 1))), Fraction(1)]
    heights = [Fraction(rng.randint(0, 24), 24)]
    while len(heights) <= n:
        y = Fraction(rng.randint(0, 24), 24)
        if y != heights[-1]:
            heights.append(y)
    branches = []
    for lo, hi, u, v in zip(pts, pts[1:], heights, heights[1:]):
        slope = (v - u) / (hi - lo)
        branches.append((slope, u - slope * lo))
    return validate_map(pts, branches)


def _integer_slope_map(rng):
    # every intercept and cut lies in (1/12)Z, so every orbit of a cut does
    # too and is eventually periodic
    n = rng.randint(2, 4)
    pts = [Fraction(0), *(Fraction(k, 12) for k in sorted(rng.sample(range(1, 12), n - 1))), Fraction(1)]
    branches = []
    for lo, hi in zip(pts, pts[1:]):
        while True:
            slope, u = rng.choice([-3, -2, -1, 1, 2, 3]), Fraction(rng.randint(0, 12), 12)
            if 0 <= u + slope * (hi - lo) <= 1:
                break
        branches.append((slope, u - slope * lo))
    return validate_map(pts, branches)


def _exchange_map(rng):
    # interval i of length a_i/A goes to the image place order[i] with
    # length b_i/B, so the slope is (b_i/B)/(a_i/A)
    n = rng.randint(2, 4)
    a = [rng.randint(1, 6) for _ in range(n)]
    b = [rng.randint(1, 6) for _ in range(n)]
    lengths = [Fraction(x, sum(a)) for x in a]
    images = [Fraction(x, sum(b)) for x in b]
    order = rng.sample(range(n), n)
    pts = [Fraction(0)]
    for length in lengths:
        pts.append(pts[-1] + length)
    branches = []
    for i in range(n):
        start = sum((images[j] for j in range(n) if order[j] < order[i]), Fraction(0))
        slope = images[i] / lengths[i]
        branches.append((slope, start - slope * pts[i]))
    return validate_map(pts, branches)


def test_the_pair_walk_matches_the_scalar_search():
    from imapk.orbit import _pair_walk, _search, _tau_step, is_exchange_map

    rng = random.Random(21)
    kinds = Counter()
    on_a_cut = 0
    draws = [_continuous_map, make_rational_map, _integer_slope_map, _exchange_map]
    for i in range(32):
        m = draws[i % 4](rng)
        certify = is_exchange_map(m)
        interior = set(m.partition[1:-1])
        for a in m.partition:
            for cap in (3, 40, 2000):
                m.images.clear()
                expected, stop, last = _search(m, [a], cap, _tau_step, certify=certify)
                table, m.images = m.images, _NoTable()
                try:
                    got = _pair_walk(m, a, cap, certify)
                finally:
                    m.images = table
                pairs = [p.as_fraction().as_integer_ratio() for p in expected]
                assert got == (pairs, stop, last), (m, a, cap)
                kinds[type(stop).__name__] += 1
                on_a_cut += any(p in interior for p in expected[1:])
    assert set(kinds) == {"NoneType", "CapReached", "SizeLimitReached", "ProvablyInfinite"}, kinds
    assert on_a_cut > 0


@pytest.mark.parametrize("make, text", [
    (lambda: validate_map(*CERTIFIED_COLLISION), "orbits of 1/8 and 3/16 collide at 19/64"),
    (
        lambda: validate_map([0, Fraction(1, 3), 1], [(1, Fraction(2, 3)), (1, Fraction(-1, 3))]),
        "orbit of 1/3 is eventually periodic (preperiod 0, period 3)",
    ),
], ids=["collision", "rotation"])
def test_the_pair_walk_refuses_in_the_words_of_the_scalar_walk(make, text, monkeypatch):
    m = make()
    with pytest.raises(HypothesisViolatedWithinCap) as pairs:
        interior_orbits_disjoint(m, 100)
    # any field context sends the same map through the Scalar search
    monkeypatch.setattr(m, "field", object())
    with pytest.raises(HypothesisViolatedWithinCap) as scalars:
        interior_orbits_disjoint(m, 100)
    assert str(pairs.value) == str(scalars.value) == text
