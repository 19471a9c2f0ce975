import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imapk.errors import (
    DivisionByZero,
    InvalidNumberField,
    MixedFieldContexts,
    ReducibleMinimalPolynomial,
)
from imapk.scalar import NumberField, rational, scalar_from_text


def test_rational_arithmetic():
    assert rational(1, 3) + rational(1, 6) == rational(1, 2)
    assert rational(2, 4) == rational(1, 2)
    assert (rational(3) * rational(1, 3)).as_fraction() == 1


def test_sqrt2_defining_relation(sqrt2_field):
    a = sqrt2_field.alpha()
    assert a * a == rational(2)


def test_golden_inverse_identity(golden_field):
    a = golden_field.alpha()
    # (phi - 1) * phi = 1, i.e. phi - 1 is 1/phi
    assert (a - 1) * a == rational(1)
    assert 1 / a == a - 1


def test_compare_algebraic_with_rational(sqrt2_field):
    a = sqrt2_field.alpha()
    assert a.compare(Fraction(3, 2)) < 0
    assert a.compare(Fraction(7, 5)) > 0
    assert a.compare(a) == 0


def test_compare_total_order_consistency(golden_field):
    rng = random.Random(11)
    a = golden_field.alpha()
    samples = [
        rational(rng.randint(-4, 4), rng.randint(1, 5)) + rational(rng.randint(-2, 2)) * a
        for _ in range(12)
    ]
    for x in samples:
        for y in samples:
            c = x.compare(y)
            z = rational(rng.randint(-3, 3), rng.randint(1, 4))
            if c < 0:
                assert (x + z).compare(y + z) < 0
                pos = rational(rng.randint(1, 5))
                assert (x * pos).compare(y * pos) < 0
            elif c == 0:
                assert x == y


def test_field_axioms_by_comparison(golden_field):
    rng = random.Random(5)
    a = golden_field.alpha()
    vals = [
        rational(rng.randint(-3, 3), rng.randint(1, 4)) + rational(rng.randint(-2, 2)) * a
        for _ in range(6)
    ]
    for x in vals:
        for y in vals:
            for z in vals:
                assert ((x + y) + z).compare(x + (y + z)) == 0
                assert (x * (y + z)).compare(x * y + x * z) == 0


def test_division(sqrt2_field):
    a = sqrt2_field.alpha()
    assert (a / a) == rational(1)
    assert ((a + 1) * (a - 1)) == rational(1)  # a^2 - 1 = 1
    with pytest.raises(DivisionByZero):
        rational(1) / rational(0)
    with pytest.raises(DivisionByZero):
        a / (a - a)


def test_mixed_contexts_rejected(sqrt2_field, golden_field):
    with pytest.raises(MixedFieldContexts):
        sqrt2_field.alpha() + golden_field.alpha()


def test_rationals_embed(golden_field):
    a = golden_field.alpha()
    lifted = a - a + rational(5, 7)
    assert lifted.is_rational and lifted.as_fraction() == Fraction(5, 7)
    assert hash(lifted) == hash(rational(5, 7))


def test_floor(golden_field, sqrt2_field):
    phi = golden_field.alpha()
    assert phi.floor() == 1
    assert (phi * phi).floor() == 2
    assert sqrt2_field.alpha().floor() == 1
    assert rational(-7, 2).floor() == -4


def test_text_round_trip(sqrt2_field):
    a = sqrt2_field.alpha() + rational(1, 3)
    assert scalar_from_text(a.text()) == a
    assert scalar_from_text("17/4") == rational(17, 4)
    assert scalar_from_text("-3") == rational(-3)


def test_field_validation():
    with pytest.raises(InvalidNumberField):
        NumberField([1, -2, 1], (0, 2))  # (x-1)^2 not squarefree
    with pytest.raises(InvalidNumberField):
        NumberField([-1, 0, 1], (0, 2))  # rational roots
    with pytest.raises(InvalidNumberField):
        NumberField([-2, 0, 1], (-2, 2))  # two roots isolated
    with pytest.raises(InvalidNumberField):
        NumberField([-2, 1], (1, 3))  # degree 1
    with pytest.raises(InvalidNumberField):
        NumberField([-2] + [0] * 8 + [1], (1, 2))  # degree 9 over the cap
    # degree cap is configurable
    NumberField([-2] + [0] * 8 + [1], (1, 2), degree_cap=9)


def test_cubic_field_arithmetic():
    field = NumberField([-2, -2, 0, 1], (Fraction(17, 10), Fraction(9, 5)))
    c = field.alpha()
    assert c * c * c == 2 * c + 2
    assert c * c.inverse() == rational(1)
    assert c.compare(Fraction(9, 5)) < 0


def test_refinement_never_equates_distinct(sqrt2_field):
    a = sqrt2_field.alpha()
    close = rational(1414213562373095049, 10**18)
    assert a.compare(close) != 0


# -- integer-ball sign tests against a Fraction-bisection reference -------------

# the fields of the alg_exchange benchmark workload: (poly, isolating interval)
SEVEN_FIELDS = [
    ([-1, -1, 1], (1, 2)),
    ([-2, 0, 1], (1, 2)),
    ([-3, 0, 1], (1, 2)),
    ([-5, 0, 1], (2, 3)),
    ([-7, 0, 1], (2, 3)),
    ([-1, -1, 0, 1], (1, 2)),
    ([-1, -1, 0, 0, 1], (1, 2)),
]

BALL_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


class _ReferenceSign:
    """Sign by exact Fraction bisection of a private copy of the isolating interval."""

    def __init__(self, poly, iso):
        self.poly = poly
        self.lo, self.hi = Fraction(iso[0]), Fraction(iso[1])
        self.lo_positive = self._eval(self.lo) > 0

    def _eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.poly):
            acc = acc * x + c
        return acc

    def __call__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if not any(coeffs[1:]):
            return (coeffs[0] > 0) - (coeffs[0] < 0)
        while True:
            mn = mx = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                ends = (mn * self.lo, mn * self.hi, mx * self.lo, mx * self.hi)
                mn, mx = min(ends) + c, max(ends) + c
            if mn > 0:
                return 1
            if mx < 0:
                return -1
            self.bisect()

    def bisect(self):
        mid = (self.lo + self.hi) / 2
        if (self._eval(mid) > 0) == self.lo_positive:
            self.lo = mid
        else:
            self.hi = mid


_FIELDS = [NumberField(poly, iso) for poly, iso in SEVEN_FIELDS]
_REFERENCES = [_ReferenceSign(poly, iso) for poly, iso in SEVEN_FIELDS]

coefficient = st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 60))


@st.composite
def field_pairs(draw):
    """A field index and two elements of it, sometimes equal or a rational apart."""
    index = draw(st.integers(0, len(SEVEN_FIELDS) - 1))
    degree = len(SEVEN_FIELDS[index][0]) - 1
    x = draw(st.lists(coefficient, min_size=degree, max_size=degree))
    kind = draw(st.sampled_from(("random", "equal", "rational_apart", "scaled")))
    if kind == "random":
        y = draw(st.lists(coefficient, min_size=degree, max_size=degree))
    elif kind == "equal":
        y = list(x)
    elif kind == "rational_apart":
        y = [x[0] + draw(coefficient)] + x[1:]
    else:
        k = draw(st.integers(0, 200))
        x = [c * 2**k for c in x]
        y = [c * 2**k + draw(coefficient) for c in x]
    return index, x, y


@BALL_SETTINGS
@given(field_pairs())
def test_ball_sign_and_compare_match_bisection(case):
    index, x, y = case
    field, reference = _FIELDS[index], _REFERENCES[index]
    a, b = field.element(x), field.element(y)
    expected = reference([p - q for p, q in zip(x, y)])
    assert a.compare(b) == expected
    assert b.compare(a) == -expected
    assert (a - b).sign() == expected
    assert a.sign() == reference(x)
    assert a.compare(y[0]) == reference([x[0] - y[0]] + x[1:])


# negative roots and isolating intervals whose ends are not dyadic
OTHER_ROOTS = [
    ([-1, -1, 1], (Fraction(-2, 3), Fraction(-3, 5))),
    ([-2, 0, 1], (Fraction(7, 5), Fraction(3, 2))),
    ([-1, -1, 0, 0, 1], (Fraction(-3, 4), Fraction(-5, 7))),
    ([-1, -1, 0, 1], (Fraction(13, 10), Fraction(4, 3))),
]


@pytest.mark.parametrize("poly, iso", SEVEN_FIELDS + OTHER_ROOTS)
def test_ball_encloses_the_powers_of_alpha(poly, iso):
    field = NumberField(poly, iso)
    reference = _ReferenceSign(poly, iso)
    for bits in (64, 128, 256, 512, 1024):
        while reference.hi - reference.lo > Fraction(1, 2 ** (bits + 40)):
            reference.bisect()
        L, H = field._ball(bits)
        for k in range(field.degree):
            # the reference bracket excludes 0, so alpha^k lies between its ends' powers
            ends = (reference.lo**k, reference.hi**k)
            assert L[k] <= min(ends) * 2**bits
            assert H[k] >= max(ends) * 2**bits
            assert H[k] - L[k] <= 4 ** (k + 1)
    assert field.interval() == (Fraction(iso[0]), Fraction(iso[1]))


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b  # F_n, F_(n+1)


def test_near_zero_golden_and_pell_elements_double_the_precision():
    phi_field = NumberField([-1, -1, 1], (1, 2))
    sqrt2_field = NumberField([-2, 0, 1], (1, 2))
    before = (phi_field.interval(), sqrt2_field.interval())
    phi, sqrt2 = phi_field.alpha(), sqrt2_field.alpha()
    p, q = 1, 0
    for n in range(1, 301):
        f_n, f_next = _fibonacci(n)
        # F_(n+1) - F_n phi = (-1/phi)^n and p - q sqrt2 = (1 - sqrt2)^n
        p, q = p + 2 * q, p + q
        sign = (-1) ** n
        assert (f_next - f_n * phi).sign() == sign
        assert rational(f_next).compare(f_n * phi) == sign
        assert (f_n * phi).compare(f_next) == -sign
        assert (p - q * sqrt2).sign() == sign
        assert rational(p).compare(q * sqrt2) == sign
    # the precision doubled (Pell at n = 300 needs more than 512 bits) and the
    # shared interval was never refined
    assert len(sqrt2_field._balls) >= 5
    assert (phi_field.interval(), sqrt2_field.interval()) == before


@pytest.mark.parametrize("poly, inverse", [
    ([-1, -1, 0, 1], [-1, 0, 1]),  # 1/a = a^2 - 1 for a^3 = a + 1
    ([-1, -1, 0, 0, 1], [-1, 0, 0, 1]),  # 1/a = a^3 - 1 for a^4 = a + 1
])
def test_near_zero_unit_powers_in_cubic_and_quartic_fields(poly, inverse):
    # a^-n is tiny while its coefficients grow, so the higher powers of the
    # ball decide it at raised precision
    field = NumberField(poly, (1, 2))
    unit = field.element(inverse)
    reference = _ReferenceSign(poly, (1, 2))
    x = rational(1)
    for n in range(1, 301):
        x = x * unit
        assert x.sign() == 1
        assert (-x).sign() == -1
        shifted = x - rational(1, 2**n)
        assert shifted.sign() == reference(shifted.coeffs)
        assert shifted.compare(0) == -((0 - shifted).sign())
    assert len(field._balls) >= 3
    assert field.interval() == (Fraction(1), Fraction(2))


def test_beyond_the_ball_ceiling_bisection_decides():
    field = NumberField([-1, -1, 1], (1, 2))
    phi = field.alpha()
    f_n, f_next = _fibonacci(900)
    # |F_901 - F_900 phi| = phi^-900 needs about 1250 bits
    assert (f_next - f_n * phi).sign() == 1
    assert phi.compare(rational(f_next, f_n)) == -1
    lo, hi = field.interval()
    assert hi - lo < Fraction(1, 2**1000)


def test_ball_sign_tests_leave_the_shared_interval_alone():
    rng = random.Random(3)
    for field in (NumberField(poly, iso) for poly, iso in SEVEN_FIELDS):
        before = field.interval()
        for _ in range(1000 // len(SEVEN_FIELDS) + 1):
            vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(field.degree)]
            vec[1] = vec[1] or Fraction(1)
            field.element(vec).sign()
        assert field.interval() == before
        # enclosure() still meets its width bound after the ball sign tests
        lo, hi = field.alpha().enclosure(Fraction(1, 1000))
        assert hi - lo <= Fraction(1, 1000)


def test_zero_real_image_over_reducible_polynomial_raises():
    # (x^2 - 2)(x^2 - 3) has its root sqrt2 alone in (1, 3/2)
    field = NumberField([6, 0, -5, 0, 1], (1, Fraction(3, 2)))
    a = field.alpha()
    with pytest.raises(ReducibleMinimalPolynomial):
        (a * a - 2).sign()
    with pytest.raises(ReducibleMinimalPolynomial):
        (a * a).compare(2)
    assert (a * a - 3).sign() == -1


def test_compare_rejects_mixed_fields(sqrt2_field, golden_field):
    with pytest.raises(MixedFieldContexts):
        sqrt2_field.alpha().compare(golden_field.alpha())
    assert sqrt2_field.alpha().compare(NumberField([-2, 0, 1], (1, 2)).alpha()) == 0


def test_hashes_are_the_tuple_hashes_of_the_field_key(golden_field):
    x = golden_field.element([Fraction(1, 3), Fraction(-2, 7)])
    assert hash(x) == hash(("Scalar", golden_field.key(), x.coeffs))
    assert hash(golden_field) == hash(("NumberField", golden_field.key()))


def test_hash_is_cached_with_the_unchanged_formula(golden_field):
    x = rational(-22, 7)
    y = golden_field.element([Fraction(1, 3), Fraction(-2, 7)])
    cases = ((x, hash(("Scalar", Fraction(-22, 7)))),
             (y, hash(("Scalar", golden_field.key(), y.coeffs))))
    for s, expected in cases:
        with pytest.raises(AttributeError):
            s._hash = 0  # before the hash is cached
        assert hash(s) == expected
        with pytest.raises(AttributeError):
            s._hash = 0  # after
        assert hash(s) == expected


def test_compare_error_names_the_operand():
    with pytest.raises(TypeError, match="cannot compare Scalar with 'x'"):
        rational(1).compare("x")


def test_equality_and_hash_agree(golden_field, sqrt2_field):
    # a field element with zero higher coefficients is the rational
    lifted = golden_field.element([5, 0])
    assert lifted == rational(5) and rational(5) == lifted
    assert hash(lifted) == hash(rational(5))
    # equal fields held as distinct objects
    twin = NumberField([-1, -1, 1], (1, 2))
    a, b = golden_field.element([1, 2]), twin.element([1, 2])
    assert twin is not golden_field
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != twin.element([1, 3])
    # mixed fields, and a rational against an irrational element
    assert golden_field.alpha() != sqrt2_field.alpha()
    assert sqrt2_field.alpha() != rational(1) and rational(1) != sqrt2_field.alpha()
    assert len({golden_field.alpha(), sqrt2_field.alpha(), rational(1)}) == 3


def test_enclosure_depends_only_on_the_element_and_tol(golden_field):
    phi = golden_field.alpha()
    tol = Fraction(1, 10**6)
    before = phi.enclosure(tol)
    # the shared interval is left alone, and refining it changes nothing
    assert golden_field.interval() == (1, 2)
    for _ in range(10):
        golden_field.refine()
    assert phi.enclosure(tol) == before
    lo, hi = before
    assert hi - lo == Fraction(1, 2**20)
    assert lo < phi < hi


def test_a_rational_operand_is_lifted_on_either_side():
    field = NumberField([-1, -1, 0, 1], (1, 2))  # x^3 - x - 1
    a = field.alpha()
    for value in (a + 2, 2 + a, a - rational(1, 2) + rational(5, 2)):
        assert value.coeffs == (2, 1, 0)
    assert (3 * a).coeffs == (a * 3).coeffs == (0, 3, 0)
    twin = NumberField([-1, -1, 0, 1], (1, 2))
    assert (a + twin.alpha()).coeffs == (0, 2, 0)
    with pytest.raises(MixedFieldContexts):
        a * NumberField([-2, 0, 1], (1, 2)).alpha()
