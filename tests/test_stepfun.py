import random
from fractions import Fraction

import pytest

from imapk.interval_map import preimages
from imapk.scalar import rational
from imapk.stepfun import (
    ZERO_FN,
    StepFn,
    indicator,
    linear_comb,
    transfer,
)

from conftest import make_rational_map


def test_indicator_basics():
    assert indicator(0, 1).values == (1,)
    assert indicator(Fraction(1, 2), Fraction(1, 2)) == ZERO_FN
    assert indicator(Fraction(2, 3), Fraction(1, 3)) == indicator(Fraction(1, 3), Fraction(2, 3))


@pytest.mark.parametrize("breaks, values", [
    ((Fraction(2, 3), Fraction(1, 3)), (0, 1, 0)),  # unsorted
    ((Fraction(1, 3), Fraction(1, 3)), (0, 1, 2)),  # repeated
    ((0,), (0, 1)),                                  # at an end
    ((Fraction(1, 2), 1), (0, 1, 0)),
    ((Fraction(-1, 2),), (0, 1)),
    ((Fraction(1, 2),), (0, 1, 2)),                  # one value too many
], ids=["unsorted", "repeated", "at_zero", "at_one", "outside", "length"])
def test_step_functions_refuse_breakpoints_out_of_order(breaks, values):
    with pytest.raises(ValueError):
        StepFn(breaks, values)


def test_step_functions_are_canonical():
    third, half = Fraction(1, 3), Fraction(1, 2)
    f = StepFn((third, half, Fraction(2, 3)), (0, 1, 1, 0))
    assert f == indicator(third, Fraction(2, 3)) and hash(f) == hash(indicator(third, Fraction(2, 3)))
    assert (f.breaks, f.values) == ((rational(1, 3), rational(2, 3)), (0, 1, 0))
    assert f.value_at(half) == 1 and f.value_at(third, "-") == 0 and f.value_at(third, "+") == 1
    assert StepFn((), (1,)) == indicator(0, 1)
    assert f - f == ZERO_FN and (0 * f).is_zero
    assert repr(3 * f) == "StepFn(breaks=[1/3, 2/3], values=[0, 3, 0])"


def test_linear_comb():
    left = indicator(0, Fraction(1, 2))
    right = indicator(Fraction(1, 2), 1)
    assert linear_comb((1, 1), (left, right)) == indicator(0, 1)
    assert linear_comb((1, -1), (left, left)) == ZERO_FN
    f = linear_comb((2, -1), (indicator(0, 1), indicator(Fraction(1, 3), 1)))
    assert f.value_at(Fraction(1, 6)) == 2
    assert f.value_at(Fraction(1, 2)) == 1
    assert f.value_at(Fraction(1, 3), "-") == 2
    assert f.value_at(Fraction(1, 3), "+") == 1


def test_transfer_tent(tent):
    one = indicator(0, 1)
    assert transfer(tent, one) == linear_comb((2,), (one,))
    assert transfer(tent, indicator(0, Fraction(1, 4))) == indicator(0, Fraction(1, 2))
    assert transfer(tent, indicator(Fraction(1, 2), 1)) == one


def test_transfer_golden_beta(golden_beta, phi):
    one = indicator(0, 1)
    inv_phi = phi - 1
    v1 = transfer(golden_beta, one)
    assert v1 == linear_comb((1, 1), (one, indicator(0, inv_phi)))
    v2 = transfer(golden_beta, v1)
    assert v2 == linear_comb((1, 1), (v1, one))


def test_transfer_side_flip_on_decreasing_branch(tent):
    # the value just left of 1 must land just right of 0
    f = indicator(Fraction(3, 4), 1)
    image = transfer(tent, f)
    assert image == indicator(0, Fraction(1, 2))


def _random_stepfn(rng):
    k = rng.randint(0, 3)
    cuts = sorted({Fraction(rng.randint(1, 29), 30) for _ in range(k)})
    pieces = [rng.randint(-3, 3) for _ in range(len(cuts) + 1)]
    fns = []
    prev = Fraction(0)
    for cut, v in zip(cuts + [Fraction(1)], pieces):
        if v:
            fns.append(linear_comb((v,), (indicator(prev, cut),)))
        prev = cut
    if not fns:
        return ZERO_FN
    return linear_comb([1] * len(fns), fns)


def test_transfer_linearity_random():
    rng = random.Random(31)
    for _ in range(20):
        m = make_rational_map(rng)
        f, g = _random_stepfn(rng), _random_stepfn(rng)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = transfer(m, linear_comb((a, b), (f, g)))
        rhs = linear_comb((a, b), (transfer(m, f), transfer(m, g)))
        assert lhs == rhs


def test_transfer_positivity_random():
    rng = random.Random(17)
    for _ in range(20):
        m = make_rational_map(rng)
        f = _random_stepfn(rng)
        nonneg = type(f)(f.breaks, tuple(abs(v) for v in f.values))
        assert min(transfer(m, nonneg).values) >= 0


def test_injective_piece_law_random():
    # a characteristic function inside one branch pushes to the image indicator
    rng = random.Random(41)
    for _ in range(25):
        m = make_rational_map(rng)
        b = m.branches[rng.randrange(len(m.branches))]
        width = b.hi - b.lo
        c = b.lo + width * Fraction(1, 4)
        d = b.lo + width * Fraction(3, 4)
        assert transfer(m, indicator(c, d)) == indicator(b(c), b(d))


def test_counting_law_against_preimages():
    rng = random.Random(59)
    checked = 0
    for _ in range(30):
        m = make_rational_map(rng)
        f = _random_stepfn(rng)
        fbreaks = set(f.breaks)
        for _ in range(20):
            x = Fraction(rng.randint(1, 997), 998)
            ys = preimages(m, x)
            if any(y in fbreaks or y in set(m.partition) for y in ys):
                continue
            expected = sum(f.value_at(y) for y in ys)
            assert transfer(m, f).value_at(x) == expected
            checked += 1
    assert checked > 200


def test_mass_law_surjective(tent):
    one = indicator(0, 1)
    image = transfer(tent, one)
    for x in (Fraction(1, 3), Fraction(2, 3), Fraction(9, 10)):
        assert image.value_at(x) == len(preimages(tent, x))
