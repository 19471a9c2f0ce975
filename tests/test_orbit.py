import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from imapk.errors import CertificateFailure, NotAnExchangeMap
from imapk.families import FamilySpec, build
from imapk.orbit import (
    CapReached,
    Closed,
    IdocFails,
    IdocHolds,
    MAX_COEFF_BITS,
    ProvablyInfinite,
    _GrowthCertificate,
    _certificate_witness,
    critical_closure,
    forward_orbit,
    idoc_check,
    reverify_closed,
    tau_orbit,
)
from imapk.interval_map import validate_map
from imapk.scalar import rational
from imapk.specfile import parse_spec

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))


def test_tent_orbit_of_half(tent):
    r = forward_orbit(tent, Fraction(1, 2))
    assert [p.text() for p in r.points] == ["1/2", "1", "0"]
    assert isinstance(r.status, Closed)
    assert (r.status.preperiod, r.status.period) == (2, 1)
    assert reverify_closed(tent, r.points, r.status)


def test_branched_orbit_edges_run_from_each_point_to_its_values():
    doubling = build(FamilySpec("beta", {"beta": 2})).map
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
    assert cc.certificate is not None


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
        m = build(FamilySpec("markov_realization", {"matrix": A})).map
        for _ in range(3):
            x = Fraction(rng.randint(0, 4 * n), 4 * n)
            points, status = tau_orbit(m, x, 4000)
            assert isinstance(status, Closed)
            assert reverify_closed(m, points, status)
            verified += 1
    assert verified >= 40


def test_idoc_golden_exchange(golden_exchange):
    result = idoc_check(golden_exchange, 1000)
    assert isinstance(result, IdocHolds)


def test_idoc_rational_rotation_fails():
    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 3), Fraction(2, 3)], "permutation": [2, 1]},
        )
    ).map
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
    ).map
    result = idoc_check(m, 1000)
    assert isinstance(result, IdocFails)


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
        out.append((beta, build(FamilySpec("beta", {"beta": beta})).map))
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
    assert r.status == CapReached(53)
    assert len(r.points) == 53 and len(r.edges) == 52
    points, status = tau_orbit(m, Fraction(1, 3))
    assert status == CapReached(53) and len(points) == 53
    assert points == r.points


def test_size_limit_ends_the_closure():
    cc = critical_closure(_size_limited_map())
    assert not cc.complete and cc.certificate is None
    assert len(cc.points) == 107
    assert any(
        p.as_fraction().denominator.bit_length() > MAX_COEFF_BITS for p in cc.points
    )


def test_cap_reached():
    # irrational-slope-free map with a long pre-period still caps out honestly
    m = build(FamilySpec("beta", {"beta": Fraction(5, 2)})).map
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
