import random
from fractions import Fraction

import pytest

from imapk.errors import (
    HypothesisViolatedWithinCap,
    ParameterOutOfRange,
    UnrealizableMatrix,
)
from imapk.families import (
    FamilySpec,
    NotApplicable,
    build,
    exchange_kgroups,
    multimodal_kgroups,
)
from imapk.interval_map import validate_map
from imapk.markov import detect_markov
from imapk.orbit import idoc_check
from imapk.scalar import NumberField, rational
from imapk.snf import kgroups_from_incidence

from conftest import A_OFFDIAG3


def test_tent_is_uniform_pl():
    tent = build(FamilySpec("tent")).map
    upl = build(
        FamilySpec(
            "uniform_pl",
            {"partition": [0, Fraction(1, 2), 1], "signs": [1, -1], "s": 2},
        )
    ).map
    assert tent == upl


def test_build_beta_golden(phi):
    result = build(FamilySpec("beta", {"beta": phi}))
    m = result.map
    assert [p.text() for p in m.partition] == ["0", (phi - 1).text(), "1"]
    assert m.branches[0].slope == phi and m.branches[0].intercept == rational(0)
    assert m.branches[1].slope == phi and m.branches[1].intercept == rational(-1)
    assert any(c.prop == "exact" and c.value for c in result.certificates)


def test_build_beta_integer_full_shift():
    result = build(FamilySpec("beta", {"beta": 3}))
    data = detect_markov(result.map)
    assert data.matrix == [[1, 1, 1]] * 3
    kg = kgroups_from_incidence(data.matrix)
    assert kg.torsion == [2] and kg.free_rank == 0  # Z/(3-1)


def test_restricted_tent_endpoints():
    field = NumberField([-2, 0, 1], (1, 2))
    s = field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s})).map
    c = m.partition[1]
    assert m.branches[0](c) == rational(1)
    assert m.branches[1](rational(1)) == rational(0)
    assert c == 1 - 1 / s


def test_restricted_tent_range_check():
    with pytest.raises(ParameterOutOfRange):
        build(FamilySpec("restricted_tent", {"s": Fraction(5, 2)}))
    with pytest.raises(ParameterOutOfRange):
        build(FamilySpec("restricted_tent", {"s": 1}))


def test_restricted_tent_certificates():
    above = build(FamilySpec("restricted_tent", {"s": Fraction(3, 2)}))
    assert any(c.prop == "exact" for c in above.certificates)
    below = build(FamilySpec("restricted_tent", {"s": Fraction(13, 10)}))
    assert not below.certificates
    at = build(FamilySpec("restricted_tent", {"s": NumberField([-2, 0, 1], (1, 2)).alpha()}))
    assert any(c.prop == "transitive" for c in at.certificates)


def test_build_validates(phi):
    rng = random.Random(3)
    specs = [
        FamilySpec("tent"),
        FamilySpec("beta", {"beta": Fraction(5, 2)}),
        FamilySpec("restricted_tent", {"s": Fraction(7, 4)}),
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 4), Fraction(3, 4)], "permutation": [2, 1]},
        ),
        FamilySpec("markov_realization", {"matrix": A_OFFDIAG3}),
    ]
    for spec in specs:
        m = build(spec).map
        assert validate_map(m.partition, m.branches) == m


def test_markov_realization_example():
    m = build(FamilySpec("markov_realization", {"matrix": A_OFFDIAG3})).map
    assert [p.text() for p in m.partition] == ["0", "1/3", "1/2", "2/3", "1"]
    assert all(b.slope == rational(2) for b in m.branches)
    data = detect_markov(m)
    assert (
        kgroups_from_incidence(data.matrix).as_dict()
        == kgroups_from_incidence(A_OFFDIAG3).as_dict()
    )


def test_markov_realization_invariance_random():
    rng = random.Random(29)
    done = 0
    while done < 15:
        n = rng.randint(1, 4)
        A = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if any(not any(row) for row in A):
            continue
        result = build(FamilySpec("markov_realization", {"matrix": A}))
        if "warning" in result.params:
            continue  # merged branches change the canonical partition
        data = detect_markov(result.map)
        assert (
            kgroups_from_incidence(data.matrix).as_dict()
            == kgroups_from_incidence(A).as_dict()
        ), A
        done += 1


def test_markov_realization_rejects_zero_row():
    with pytest.raises(UnrealizableMatrix):
        build(FamilySpec("markov_realization", {"matrix": [[1, 1], [0, 0]]}))


def test_exchange_kgroups_golden(golden_exchange):
    result = idoc_check(golden_exchange, 1000)
    kg, label = exchange_kgroups(golden_exchange, result)
    assert kg.free_rank == 2 and kg.k1_rank == 1
    assert label == "unconditional"


def test_exchange_kgroups_rational_not_applicable():
    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 3), Fraction(2, 3)], "permutation": [2, 1]},
        )
    ).map
    result = idoc_check(m, 1000)
    out = exchange_kgroups(m, result)
    assert isinstance(out, NotApplicable)


def test_exchange_three_intervals_conditional(phi):
    inv = phi - 1
    l1 = inv * inv
    l2 = l1 * l1
    lengths = [l1, l2, 1 - l1 - l2]
    m = build(
        FamilySpec("interval_exchange", {"lengths": lengths, "permutation": [3, 2, 1]})
    ).map
    result = idoc_check(m, 1000)
    kg, label = exchange_kgroups(m, result)
    assert kg.free_rank == 3 and kg.k1_rank == 1
    assert label.startswith("conditional")


MULTIMODAL = dict(
    partition=[0, Fraction(1, 3), Fraction(2, 3), 1],
    branches=[
        (Fraction(9, 5), Fraction(2, 5)),
        (-3, 2),
        (Fraction(9, 5), Fraction(-6, 5)),
    ],
)


def test_multimodal_kgroups_with_assertion():
    m = validate_map(MULTIMODAL["partition"], MULTIMODAL["branches"])
    out = multimodal_kgroups(m, cap=500, asserted=True)
    assert out is not None
    kg, label = out
    assert kg.free_rank == 2 and kg.k1_rank == 0
    assert label == "asserted"


def test_multimodal_refuses_without_assertion():
    m = validate_map(MULTIMODAL["partition"], MULTIMODAL["branches"])
    assert multimodal_kgroups(m, cap=500, asserted=False) is None


def test_multimodal_colliding_critical_orbits_are_rejected():
    # 1/3 -> 1 and 2/3 -> 0, and both endpoints map to 2/5
    m = validate_map(
        MULTIMODAL["partition"],
        [MULTIMODAL["branches"][0], (-3, 2), (Fraction(6, 5), Fraction(-4, 5))],
    )
    with pytest.raises(HypothesisViolatedWithinCap, match="of 1/3 and 2/3 collide at 2/5"):
        multimodal_kgroups(m, cap=500, asserted=True)


def test_multimodal_eventually_periodic_critical_orbit_is_rejected():
    # continuous and onto, 0 -> 1/4 and 1 -> 1/2, and 1/3 -> 1 -> 1/2 -> 1/2
    m = validate_map(
        [0, Fraction(1, 3), Fraction(2, 3), 1],
        [(Fraction(9, 4), Fraction(1, 4)), (-3, 2), (Fraction(3, 2), -1)],
    )
    with pytest.raises(HypothesisViolatedWithinCap) as info:
        multimodal_kgroups(m, cap=500, asserted=True)
    assert str(info.value) == "orbit of 1/3 is eventually periodic (preperiod 2, period 1)"


def test_multimodal_endpoint_violation(tent):
    with pytest.raises(HypothesisViolatedWithinCap):
        multimodal_kgroups(tent, cap=100, asserted=True)
