import random
from fractions import Fraction

import pytest

from imapk.errors import (
    HypothesisViolatedWithinCap,
    ParameterOutOfRange,
    SpecSemanticError,
    UnrealizableMatrix,
)
from imapk.families import (
    FamilySpec,
    build,
    exchange_kgroups,
    family_certificates,
    multimodal_kgroups,
)
from imapk.interval_map import eval_multivalued, limits, validate_map
from imapk.markov import detect_markov
from imapk.orbit import IdocHolds, idoc_check, keane_idoc, step_right_continuous
from imapk.report import run
from imapk.scalar import NumberField, rational
from imapk.snf import kgroups_from_incidence
from imapk.specfile import parse_spec

from conftest import A_OFFDIAG3


def test_tent_is_uniform_pl():
    tent = build(FamilySpec("tent"))
    upl = build(
        FamilySpec(
            "uniform_pl",
            {"partition": [0, Fraction(1, 2), 1], "signs": [1, -1], "s": 2},
        )
    )
    assert tent == upl


def test_build_beta_golden(phi):
    m = build(FamilySpec("beta", {"beta": phi}))
    assert [p.text() for p in m.partition] == ["0", (phi - 1).text(), "1"]
    assert m.branches[0].slope == phi and m.branches[0].intercept == rational(0)
    assert m.branches[1].slope == phi and m.branches[1].intercept == rational(-1)
    assert any(c.prop == "exact" and c.value for c in family_certificates(m))


def test_build_beta_integer_full_shift():
    data = detect_markov(build(FamilySpec("beta", {"beta": 3})))
    assert data.matrix == [[1, 1, 1]] * 3
    kg = kgroups_from_incidence(data.matrix)
    assert kg.torsion == [2] and kg.free_rank == 0  # Z/(3-1)


def test_restricted_tent_endpoints():
    field = NumberField([-2, 0, 1], (1, 2))
    s = field.alpha()
    m = build(FamilySpec("restricted_tent", {"s": s}))
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
    assert any(c.prop == "exact" for c in family_certificates(above))
    below = build(FamilySpec("restricted_tent", {"s": Fraction(13, 10)}))
    assert not family_certificates(below)
    at = build(FamilySpec("restricted_tent", {"s": NumberField([-2, 0, 1], (1, 2)).alpha()}))
    assert any(c.prop == "transitive" for c in family_certificates(at))


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
        m = build(spec)
        assert validate_map(m.partition, [(b.slope, b.intercept) for b in m.branches]) == m


def test_markov_realization_example():
    m = build(FamilySpec("markov_realization", {"matrix": A_OFFDIAG3}))
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
        m = build(FamilySpec("markov_realization", {"matrix": A}))
        if any("merged" in note for note in m.notes):
            continue  # merged branches change the canonical partition
        data = detect_markov(m)
        assert (
            kgroups_from_incidence(data.matrix).as_dict()
            == kgroups_from_incidence(A).as_dict()
        ), A
        done += 1


def test_markov_realization_rejects_zero_row():
    with pytest.raises(UnrealizableMatrix):
        build(FamilySpec("markov_realization", {"matrix": [[1, 1], [0, 0]]}))


def test_exchange_kgroups_golden(golden_exchange):
    # the walk alone proves nothing beyond its cap; Keane's proof is read
    # only when it is the result passed in
    result = idoc_check(golden_exchange, 1000)
    kg, label = exchange_kgroups(golden_exchange, result)
    assert kg.free_rank == 2 and kg.k1_rank == 1
    assert label == "conditional on disjointness beyond cap 1000"


def test_exchange_kgroups_reads_keanes_proof(golden_exchange):
    kg, label = exchange_kgroups(golden_exchange, keane_idoc(golden_exchange))
    assert (kg.free_rank, kg.k1_rank, label) == (2, 1, "unconditional")


def test_exchange_kgroups_rational_not_applicable():
    m = build(
        FamilySpec(
            "interval_exchange",
            {"lengths": [Fraction(1, 3), Fraction(2, 3)], "permutation": [2, 1]},
        )
    )
    result = idoc_check(m, 1000)
    with pytest.raises(HypothesisViolatedWithinCap) as info:
        exchange_kgroups(m, result)
    assert str(info.value) == result.witness


def test_a_two_branch_exchange_with_other_slopes_is_not_a_rotation(phi):
    # increasing, onto and injective, but 0 and 1 are fixed points: the
    # irrational break point c does not make it minimal
    c = phi - 1
    s1, s2 = rational(Fraction(1, 2)) / c, rational(Fraction(1, 2)) / (1 - c)
    m = validate_map([0, c, 1], [(s1, 0), (s2, 1 - s2)])
    assert family_certificates(m) == []
    _, label = exchange_kgroups(m, idoc_check(m, 200))
    assert label == "conditional on disjointness beyond cap 200"
    rotation = parse_spec(
        "field { poly = [-1,-1,1]; iso = [1,2] }\n"
        "map { family = interval_exchange; lengths = [alg:[-1,1], alg:[2,-1]]\n"
        "  permutation = [2,1] }"
    )
    got, _ = run("markov", rotation)
    assert [cert["property"] for cert in got["certificates"]] == ["transitive"]


def test_exchange_three_intervals_conditional(phi):
    inv = phi - 1
    l1 = inv * inv
    l2 = l1 * l1
    lengths = [l1, l2, 1 - l1 - l2]
    m = build(
        FamilySpec("interval_exchange", {"lengths": lengths, "permutation": [3, 2, 1]})
    )
    result = idoc_check(m, 1000)
    kg, label = exchange_kgroups(m, result)
    assert kg.free_rank == 3 and kg.k1_rank == 1
    assert label.startswith("conditional")
    route = exchange_kgroups(m, result, asserted=True)
    assert route.label == "asserted" and route.conditional


def test_the_identity_exchange_is_unconditional_but_not_minimal():
    # no interior partition point, so no orbit: K0 = K1 = Z outright
    identity = validate_map([0, 1], [(1, 0)])
    kg, label = exchange_kgroups(identity, idoc_check(identity, 1000))
    assert (kg.free_rank, kg.k1_rank, label) == (1, 1, "unconditional")
    report, code = run("all", parse_spec("map { partition = [0, 1]; branch = {slope=1, intercept=0} }"))
    assert code == 0
    assert report["kgroups"]["family_route"]["label"] == "unconditional"
    assert report["dynamics"]["transitive"] == "no"
    assert not any(c["property"] == "transitive" and c["value"] for c in report["certificates"])
    assert report["classification"]["conditional"] is False


def test_build_takes_the_multimodal_parameters_of_an_explicit_map(tent):
    spec = FamilySpec("multimodal", {"partition": [0, Fraction(1, 2), 1], "branch": [(2, 0), (-2, 2)]})
    assert build(spec) == tent


def test_build_names_a_missing_key_and_a_key_the_family_does_not_take():
    with pytest.raises(SpecSemanticError, match="^family beta needs beta$"):
        build(FamilySpec("beta"))
    with pytest.raises(SpecSemanticError, match="^family beta takes no key 's'$"):
        build(FamilySpec("beta", {"beta": 2, "s": Fraction(3, 2)}))


def test_build_does_not_truncate_integer_parameters():
    with pytest.raises(ParameterOutOfRange, match="expected an integer, got 3/2"):
        build(FamilySpec("markov_realization", {"matrix": [[Fraction(3, 2)]]}))


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
    route = multimodal_kgroups(m, cap=500, asserted=False)
    assert route.label == "conditional on disjointness beyond cap 500" and route.conditional


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


# continuous and onto, with slopes of negative valuation at 2: the valuation
# certificate proves each interior orbit infinite, yet
# 1/8 -> 0 -> 9/16 -> 29/32 -> 19/64 and 3/16 -> 7/32 -> 19/64
CERTIFIED_COLLISION = (
    [0, Fraction(1, 8), Fraction(3, 16), Fraction(5, 16), Fraction(5, 8), 1],
    [
        (Fraction(-9, 2), Fraction(9, 16)),
        (Fraction(7, 2), Fraction(-7, 16)),
        (Fraction(5, 2), Fraction(-1, 4)),
        (Fraction(3, 2), Fraction(1, 16)),
        (Fraction(-5, 2), Fraction(41, 16)),
    ],
)


def test_multimodal_route_follows_certified_orbits_to_their_collision():
    m = validate_map(*CERTIFIED_COLLISION)
    for asserted in (False, True):
        with pytest.raises(HypothesisViolatedWithinCap, match="of 1/8 and 3/16 collide at 19/64"):
            multimodal_kgroups(m, cap=100, asserted=asserted)


def test_a_certified_generalized_exchange_stays_unconditional():
    # slopes 3/2 and 1/2 have negative valuation at 2, so the certificate
    # ends each walk; an exchange is injective, so that proves disjointness too
    branches = [(Fraction(3, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(-1, 4))]
    m = validate_map([0, Fraction(1, 2), 1], branches)
    idoc = idoc_check(m, 1000)
    assert idoc.provably_infinite
    route = exchange_kgroups(m, idoc)
    assert route.label == "unconditional" and not route.conditional


def test_a_certified_idoc_names_no_cap():
    # the walks of both interior points end at the valuation certificate
    branches = [(Fraction(3, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(-1, 4))]
    idoc = idoc_check(validate_map([0, Fraction(1, 2), 1], branches), 1000)
    assert idoc.provably_infinite
    assert idoc.kind == "provably_infinite_and_disjoint"


def _dyadic_exchange(rng):
    """A three-branch generalized exchange with slopes odd/2 over 1/16ths."""
    while True:
        cuts = [0] + sorted(rng.sample(range(1, 16), 2)) + [16]
        lengths = [Fraction(b - a, 16) for a, b in zip(cuts, cuts[1:])]
        slopes = [Fraction(rng.choice((1, 3, 5, 7, 9)), 2) for _ in range(2)]
        slopes.append((1 - slopes[0] * lengths[0] - slopes[1] * lengths[1]) / lengths[2])
        if slopes[2] > 0 and slopes[2].denominator == 2:
            break
    rank = rng.sample(range(3), 3)  # the place of each image, left to right
    images = [s * l for s, l in zip(slopes, lengths)]
    branches = []
    for i, s in enumerate(slopes):
        start = sum((images[j] for j in range(3) if rank[j] < rank[i]), Fraction(0))
        branches.append((s, start - s * Fraction(cuts[i], 16)))
    return validate_map([Fraction(c, 16) for c in cuts], branches)


def _dyadic_multimodal(rng):
    """A continuous onto five-branch map with slopes +-odd/2 over 1/16ths
    and no endpoint mapping to an endpoint; vertices in units of 1/32."""
    while True:
        cuts = [0] + sorted(rng.sample(range(1, 16), 4)) + [16]
        sign = rng.choice((1, -1))
        ms = [rng.choice((1, 3, 5, 7, 9)) * sign * (-1) ** i for i in range(5)]
        v = [0]
        for mi, a, b in zip(ms, cuts, cuts[1:]):
            v.append(v[-1] + mi * (b - a))
        lo = min(v)
        if max(v) - lo == 32 and v[0] - lo not in (0, 32) and v[-1] - lo not in (0, 32):
            break
    pts = [Fraction(c, 16) for c in cuts]
    slopes = [Fraction(mi, 2) for mi in ms]
    return validate_map(pts, [(s, Fraction(x - lo, 32) - s * p) for s, x, p in zip(slopes, v, pts)])


def _orbits_meet(m, steps=60):
    """Whether two interior orbits, each followed on its own, share a point."""
    owner = {}
    for i, a in enumerate(m.partition[1:-1]):
        x = a
        for _ in range(steps):
            if owner.setdefault(x, i) != i:
                return True
            x = step_right_continuous(m, x)
    return False


def test_an_unconditional_route_has_disjoint_interior_orbits():
    # a fixed list of maps whose slopes all have negative valuation at 2, so
    # the valuation certificate applies; about one in four of the multimodal
    # ones has certified orbits that meet within 60 steps
    rng = random.Random(20)
    routes = []
    for m in [_dyadic_exchange(rng) for _ in range(40)]:
        idoc = idoc_check(m, 200)
        if isinstance(idoc, IdocHolds):
            routes.append((m, exchange_kgroups(m, idoc)))
    for m in [_dyadic_multimodal(rng) for _ in range(40)]:
        try:
            routes.append((m, multimodal_kgroups(m, 60)))
        except HypothesisViolatedWithinCap:
            pass
    unconditional = [m for m, route in routes if route is not None and route[1] == "unconditional"]
    assert len(unconditional) >= 20
    assert not [m for m in unconditional if _orbits_meet(m)]


def test_the_table_of_images_gives_the_direct_values():
    # every partition point (where an exchange has two one-sided values) and
    # the first points of the multivalued orbits, each mapped cold, then warm
    rng = random.Random(21)
    maps = [_dyadic_exchange(rng) for _ in range(20)] + [_dyadic_multimodal(rng) for _ in range(20)]
    for m in maps:
        points = list(m.partition)
        for x in points:  # breadth first: the loop reaches what it appends
            if len(points) >= 40:
                break
            points += [v for v in limits(m, x) if v not in points]
        direct = [limits(m, x) for x in points]
        m.images.clear()
        cold = [eval_multivalued(m, x) for x in points]
        assert set(m.images) == set(points)
        warm = [eval_multivalued(m, x) for x in points]
        assert cold == warm == direct
    assert any(len(v) == 2 for m in maps for v in m.images.values())
