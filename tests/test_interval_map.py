import bisect
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imapk import markov
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
from imapk.families import FamilySpec, build
from imapk.markov import detect_markov
from imapk.orbit import CapReached, forward_orbit, tau_orbit
from imapk.scalar import ONE, ZERO, NumberField, Scalar, _sort_key, as_scalar, rational
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


LOCATE_SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None)

# Q, Q(phi), Q(sqrt2) and the cubic field of x^3 - x - 1; alpha - 1 lies in
# (0, 1) in each and its conjugates have modulus above 1, so its powers have
# coefficients far larger than their values
LOCATE_FIELDS = [None] + [NumberField(poly, (1, 2)) for poly in ([-1, -1, 1], [-2, 0, 1], [-1, -1, 0, 1])]


def _reference_locate(m, x):
    if x < ZERO or x > ONE:
        return OutOfDomain
    i = bisect.bisect_left(m.partition, x)
    return i, m.partition[i] == x


@st.composite
def maps_and_points(draw):
    """A map of up to six branches whose cuts are rationals or fractional
    parts of field elements, and points to locate on it: the partition
    points, points within 2^-80 of them on both sides (outside [0, 1] too),
    elements with thousand-bit coefficients and a value in [0, 1], and 0
    and 1."""
    field = draw(st.sampled_from(LOCATE_FIELDS))
    pairs = draw(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 40)), min_size=1, max_size=5))
    if field is None:
        cuts = {rational(p % q, q) for p, q in pairs}
        tiny = rational(1, 2**1000 + 1)
    else:
        alpha = field.alpha()
        cuts = {x - x.floor() for x in (alpha * rational(p or 1, q) for p, q in pairs)}
        # about 2^-1000 or smaller, with coefficients of 1000 bits or more
        tiny = (alpha - 1) ** draw(st.integers(1450, 1600))
    pts = [ZERO] + sorted(cuts - {ZERO}) + [ONE]
    m = validate_map(pts, [(1 / (b - a), a / (a - b)) for a, b in zip(pts, pts[1:])])
    points = list(pts)
    for c in pts:
        for sign in (1, -1):
            points.append(c + rational(sign * draw(st.integers(1, 5)), 2**80))
            points.append(c + sign * tiny * draw(st.integers(1, 3)))
    t = rational(draw(st.integers(0, 64)), 64)
    points += [t + tiny, t - tiny, tiny, ONE - tiny, ZERO, ONE]
    return m, draw(st.permutations(points))


@LOCATE_SETTINGS
@given(maps_and_points())
def test_locate_is_bisect_left_and_equality(case):
    m, points = case
    for x in points:
        try:
            got = m.locate(x)
        except OutOfDomain:
            got = OutOfDomain
        assert got == _reference_locate(m, x), x.text()


def test_an_orbit_off_the_cuts_is_located_without_a_compare(monkeypatch, golden_field):
    # a three-interval exchange over Q(phi); the orbit of 1/2 runs to the
    # cap, and no point of it has a sort key that overlaps a cut's, so each
    # point is placed by its key alone
    phi = golden_field.alpha()
    lam = (phi - 1) * (phi - 1)
    m = build(FamilySpec("interval_exchange", {
        "lengths": [lam / 2, lam / 2, phi - 1], "permutation": [3, 2, 1],
    }))
    callers = []
    compare = Scalar.compare

    def spied(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return compare(self, other)

    monkeypatch.setattr(Scalar, "compare", spied)
    orbit = forward_orbit(m, rational(1, 2), cap=150)
    monkeypatch.undo()
    assert isinstance(orbit.status, CapReached) and len(orbit.points) > 150
    cut_keys = [_sort_key(c) for c in m.partition]
    for x in orbit.points:
        lo, hi = _sort_key(x)
        assert all(hi < c_lo or c_hi < lo for c_lo, c_hi in cut_keys), x.text()
    # the seed's check against 0 and 1 makes the only two compares
    assert "locate" not in callers and "limits" not in callers
    assert callers == ["__lt__", "__gt__"]
    assert [m.locate(x) for x in orbit.points] == [_reference_locate(m, x) for x in orbit.points]


def test_markov_data_bisects_only_integer_keys(monkeypatch):
    # 1 -> 1/4 -> 1/2 -> 1, so the Markov partition holds 1/4, which is no
    # cut of the map: locating it takes the integer bisection
    m = validate_map([0, Fraction(1, 2), 1], [(2, 0), (Fraction(-3, 2), Fraction(7, 4))])
    assert not hasattr(markov, "bisect")
    searched = []
    for name in ("bisect_left", "bisect_right"):
        real = getattr(bisect, name)

        def spied(seq, x, *args, real=real):
            searched.append((seq, x))
            return real(seq, x, *args)

        monkeypatch.setattr(bisect, name, spied)
    data = detect_markov(m)
    monkeypatch.undo()
    assert list(data.partition) == [ZERO, rational(1, 4), rational(1, 2), ONE]
    assert data.matrix == [[1, 1, 0], [0, 0, 1], [0, 1, 1]]
    assert searched
    assert all(type(x) is int and all(type(v) is int for v in seq) for seq, x in searched)
