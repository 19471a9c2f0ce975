import random
from fractions import Fraction
from pathlib import Path

import pytest

from imapk.errors import (
    BranchImageOutsideUnitInterval,
    EndpointsNotZeroOne,
    OutOfDomain,
    PartitionNotIncreasing,
    ZeroSlope,
)
from imapk.interval_map import (
    dynamics_flags,
    eval_multivalued,
    is_essentially_injective,
    limits,
    preimages,
    validate_map,
)
from imapk.orbit import forward_orbit, tau_orbit
from imapk.scalar import ONE, ZERO, as_scalar, rational
from imapk.specfile import parse_spec
from imapk.stepfun import StepFn, indicator

from conftest import make_rational_map

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.imapk"))


def test_tent_validates(tent):
    assert len(tent.branches) == 2
    assert tent.partition[1] == rational(1, 2)


def test_equal_end_images_are_one_object(tent):
    # the transfer step keys its jumps by these images
    (a, b), (c, d) = (branch.ends for branch in tent.branches)
    assert b is c and a is d is ZERO


def test_limits_at_a_partition_point_are_the_branch_ends():
    # the values at a partition point are read off AffineBranch.ends, not
    # mapped again; one map with a jump, the shipped ones without
    jump = validate_map([0, Fraction(1, 2), 1], [(1, Fraction(1, 2)), (1, Fraction(-1, 2))])
    maps = [jump] + [parse_spec(path.read_text()).map for path in SPECS]
    for m in maps:
        ends = [(m.branches[0].ends[0],)]
        ends += [(left.ends[1], right.ends[0]) for left, right in zip(m.branches, m.branches[1:])]
        ends.append((m.branches[-1].ends[1],))
        for t, held in zip(m.partition, ends):
            assert all(any(v is h for h in held) for v in limits(m, t)), (m, t)
    assert limits(jump, Fraction(1, 2)) == (ZERO, ONE)


@pytest.mark.parametrize("site", [
    lambda m, x: forward_orbit(m, x),
    lambda m, x: tau_orbit(m, x),
    lambda m, x: m.branch_index_at(as_scalar(x)),
    lambda m, x: limits(m, x),
    lambda m, x: eval_multivalued(m, x),
    lambda m, x: indicator(0, x),
    lambda m, x: StepFn((), (1,)).value_at(x),
    lambda m, x: preimages(m, x),
], ids=["forward_orbit", "tau_orbit", "branch_index_at", "limits", "eval_multivalued",
        "indicator", "value_at", "preimages"])
@pytest.mark.parametrize("x", [Fraction(-1, 2), Fraction(3, 2)], ids=["-1/2", "3/2"])
def test_a_point_outside_the_interval_is_out_of_domain(tent, site, x):
    with pytest.raises(OutOfDomain, match="%s is outside" % x):
        site(tent, x)
    # a failed lookup stores nothing in the table of images
    assert tent.images == {}


def test_duplicate_branches_merge():
    m = validate_map(
        [0, Fraction(1, 3), 1],
        [(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 3))],
    )
    assert len(m.branches) == 1
    assert any("merged" in note for note in m.notes)


def test_continuous_distinct_slopes_noted():
    # rises with slope 2 then slope 1/2; continuous at the junction
    m = validate_map(
        [0, Fraction(1, 4), 1],
        [(2, 0), (Fraction(1, 2), Fraction(3, 8))],
    )
    assert len(m.branches) == 2
    assert any("finer" in note for note in m.notes)


def test_validation_errors():
    with pytest.raises(BranchImageOutsideUnitInterval):
        validate_map([0, Fraction(1, 2), 1], [(3, 0), (-2, 2)])
    with pytest.raises(PartitionNotIncreasing):
        validate_map([0, Fraction(1, 2), Fraction(1, 2), 1], [(1, 0)] * 3)
    with pytest.raises(EndpointsNotZeroOne):
        validate_map([Fraction(1, 4), 1], [(1, 0)])
    with pytest.raises(ZeroSlope):
        validate_map([0, 1], [(0, Fraction(1, 2))])


def test_eval_multivalued_tent(tent):
    assert eval_multivalued(tent, Fraction(1, 4)) == (rational(1, 2),)
    assert eval_multivalued(tent, Fraction(1, 2)) == (rational(1),)
    assert eval_multivalued(tent, 0) == (rational(0),)
    assert eval_multivalued(tent, 1) == (rational(0),)


def test_eval_multivalued_golden_beta(golden_beta, phi):
    values = eval_multivalued(golden_beta, phi - 1)
    assert values == (rational(0), rational(1))


def test_preimages_tent(tent):
    assert preimages(tent, Fraction(1, 2)) == (rational(1, 4), rational(3, 4))
    assert preimages(tent, 1) == (rational(1, 2),)
    assert preimages(tent, 0) == (rational(0), rational(1))


def test_preimage_duality_random():
    rng = random.Random(23)
    for _ in range(25):
        m = make_rational_map(rng)
        for _ in range(8):
            x = Fraction(rng.randint(0, 60), 60)
            for y in eval_multivalued(m, x):
                assert x in preimages(m, y)
        for _ in range(8):
            y = Fraction(rng.randint(0, 60), 60)
            for x in preimages(m, y):
                assert y in eval_multivalued(m, x)


def test_multivalued_cardinality(tent):
    rng = random.Random(3)
    for _ in range(40):
        x = Fraction(rng.randint(0, 100), 100)
        vals = eval_multivalued(tent, x)
        assert 1 <= len(vals) <= 2
        if x not in (Fraction(1, 2),):
            assert len(vals) == 1


def test_flags_tent(tent):
    flags = dynamics_flags(tent)
    assert flags.surjective
    assert flags.eventually_surjective and flags.stabilization_depth == 0
    assert not flags.essentially_injective


def test_flags_exchange(golden_exchange):
    flags = dynamics_flags(golden_exchange)
    assert flags.surjective
    assert flags.essentially_injective
    assert flags.exact is False  # injectivity rules exactness out


def test_flags_not_surjective():
    m = validate_map([0, Fraction(1, 2), 1], [(1, 0), (-1, 1)])  # peak 1/2
    flags = dynamics_flags(m)
    assert not flags.surjective
    assert flags.eventually_surjective
    assert flags.eventual_range_intervals is not None


def test_exchange_maps_essentially_injective():
    rng = random.Random(8)
    for _ in range(10):
        k = rng.randint(2, 4)
        cuts = sorted({Fraction(rng.randint(1, 19), 20) for _ in range(k - 1)})
        pts = [Fraction(0)] + cuts + [Fraction(1)]
        lengths = [b - a for a, b in zip(pts, pts[1:])]
        perm = list(range(len(lengths)))
        rng.shuffle(perm)
        offsets = []
        for i in range(len(lengths)):
            offsets.append(sum(lengths[j] for j in range(len(lengths)) if perm[j] < perm[i]))
        branches = [(1, offsets[i] - pts[i]) for i in range(len(lengths))]
        m = validate_map(pts, branches)
        assert is_essentially_injective(m)
