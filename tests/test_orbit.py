import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from imapk.errors import CertificateFailure, InvalidMarkovPartition, NotAnExchangeMap
from imapk.families import FamilySpec, build
from imapk.orbit import (
    CapReached,
    Closed,
    IdocFails,
    IdocHolds,
    MAX_COEFF_BITS,
    ProvablyInfinite,
    SizeLimitReached,
    _GrowthCertificate,
    _certificate_witness,
    critical_closure,
    forward_orbit,
    idoc_check,
    keane_idoc,
    reverify_closed,
    tau_orbit,
)
from imapk.interval_map import validate_map
from imapk.markov import detect_markov, markov_for_partition
from imapk.report import run
from imapk.scalar import ONE, NumberField, rational
from imapk.specfile import parse_spec

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))


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
    # over (x^2 - 2)(x^2 - 3) at sqrt(2), x^2/4 and 1 - x^2/4 have independent
    # coefficient vectors but are both 1/2: the rotation by 1/2
    a = NumberField([6, 0, -5, 0, 1], (1, Fraction(3, 2))).alpha()
    reducible_field = build(FamilySpec(
        "interval_exchange", {"lengths": [a * a / 4, 1 - a * a / 4], "permutation": [2, 1]}
    ))
    for m in (rational_rotation, three, generalized, overlapping, reducible_field):
        assert keane_idoc(m) is None


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
    # the certificate needs a denominator above every partition denominator,
    # so the search never certifies a point where the map has two values
    maps = [parse_spec(path.read_text()).map for path in SPECS]
    maps += [m for _, m in _seeded_beta_maps()]
    for m in maps:
        cert = _GrowthCertificate(m)
        assert not any(cert.certifies(p) for p in m.partition)


def _size_limited_map():
    # slopes with denominators 3^50 and 5^34 add about 79 bits per step, and
    # differ, so the growth certificate does not apply
    s = Fraction(2 * 3**50 - 1, 3**50)
    t = Fraction(2 * 5**34 - 1, 5**34)
    m = validate_map([0, Fraction(1, 2), 1], [(s, 0), (-t, t)])
    assert not _GrowthCertificate(m).ok
    return m


def test_size_limit_ends_forward_and_tau_orbits():
    m = _size_limited_map()
    r = forward_orbit(m, Fraction(1, 3))
    assert r.status == SizeLimitReached(MAX_COEFF_BITS)
    assert r.as_dict()["status"] == {"kind": "size_limit_reached", "max_coeff_bits": 4096}
    assert len(r.points) == 53 and len(r.edges) == 52
    points, status = tau_orbit(m, Fraction(1, 3))
    assert status == SizeLimitReached(MAX_COEFF_BITS) and len(points) == 53
    assert points == r.points


def test_size_limit_ends_the_closure():
    m = _size_limited_map()
    cc = critical_closure(m)
    assert not cc.complete and cc.stop == SizeLimitReached(MAX_COEFF_BITS)
    assert len(cc.points) == 107
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
    # 1/3 -> 2/3 -> 2/3: the denominators do not grow
    with pytest.raises(CertificateFailure, match="do not grow"):
        _certificate_witness(tent, rational(1, 3))
    # the beta map jumps at 2/3, where it has the two limit values 1 and 0
    with pytest.raises(CertificateFailure, match="partition point"):
        _certificate_witness(beta_three_halves, rational(2, 3))


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
    # a growth witness: slopes 3/2, and 1/4 has a large enough 2-power denominator
    beta = build(FamilySpec("beta", {"beta": Fraction(3, 2)}))
    assert _GrowthCertificate(beta).certifies(rational(1, 4))
    monkeypatch.setattr(beta, "images", _NoTable())
    assert _certificate_witness(beta, rational(1, 4)).startswith("denominators [4, 8, 16")
    # a minimal polynomial whose iterates have the breakpoint 1/4 inside
    # the first branch's domain
    m = validate_map([0, Fraction(1, 2), 1], [(2, 0), (Fraction(-1, 2), Fraction(1, 2))])
    poly = minimal_polynomial_iter(m).poly
    assert poly.text() == "t^3 - t^2 - 1"
    monkeypatch.setattr(m, "images", _NoTable())
    assert apply_int_poly(m, poly, indicator(0, 1)).is_zero
    with pytest.raises(LookupError):
        transfer(m, indicator(0, Fraction(1, 4)))
