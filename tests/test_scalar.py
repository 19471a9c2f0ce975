import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imapk import polynomials, scalar
from imapk.errors import (
    DivisionByZero,
    InvalidNumberField,
    MixedFieldContexts,
    ReducibleMinimalPolynomial,
)
from imapk.orbit import critical_closure
from imapk.cli import main
from imapk.polynomials import poly_divmod, poly_mul, proper_factor
from imapk.scalar import NumberField, Scalar, rational, scalar_from_text, sort_scalars
from imapk.specfile import parse_spec

SPECS = Path(__file__).resolve().parents[1] / "specs"
SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


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


@pytest.mark.parametrize("poly, iso", [
    ([-1, -1, 1], (1, 2)), ([-2, 0, 1], (1, 2)), ([-1, -1, 0, 1], (1, 2)), ([-1, -1, 0, 0, 1], (1, 2)),
], ids=["phi", "sqrt2", "cubic", "quartic"])
def test_the_text_of_an_element_depends_on_its_field_key_alone(poly, iso):
    # two separately built fields with one key give one text, whichever of
    # them rendered first
    first, second = NumberField(poly, iso), NumberField(poly, iso)
    rng = random.Random(len(poly))
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in poly[:-1]]
        coeffs[1] = coeffs[1] or Fraction(1)
        x, y = first.element(coeffs), second.element(coeffs)
        assert y.text() == x.text()
        assert scalar_from_text(x.text()) == x == y
    head = "poly:[%s]; iso:[%s,%s]; elem:[" % (",".join(map(str, poly)), *iso)
    assert (first.alpha() + rational(1, 3)).text() == head + "1/3,1" + ",0" * (len(poly) - 3) + "]"


def test_field_validation():
    with pytest.raises(InvalidNumberField):
        NumberField([1, -2, 1], (0, 2))  # (x-1)^2 not squarefree
    with pytest.raises(InvalidNumberField):
        NumberField([-1, 0, 1], (0, 2))  # rational roots
    with pytest.raises(InvalidNumberField):
        NumberField([-2, 0, 1], (-2, 2))  # two roots isolated
    with pytest.raises(InvalidNumberField, match="exactly one root"):
        NumberField([1, -3, 0, 1], (-2, 2))  # a sign change over three roots
    with pytest.raises(InvalidNumberField):
        NumberField([-2, 1], (1, 3))  # degree 1
    with pytest.raises(InvalidNumberField):
        NumberField([-2] + [0] * 8 + [1], (1, 2))  # degree 9 over the cap


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

    def range(self, coeffs):
        """Interval Horner enclosure of the element over the current interval."""
        mn = mx = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            ends = (mn * self.lo, mn * self.hi, mx * self.lo, mx * self.hi)
            mn, mx = min(ends) + c, max(ends) + c
        return mn, mx

    def __call__(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if not any(coeffs[1:]):
            return (coeffs[0] > 0) - (coeffs[0] < 0)
        while True:
            mn, mx = self.range(coeffs)
            if mn > 0:
                return 1
            if mx < 0:
                return -1
            self.bisect()

    def floor(self, coeffs):
        """Floor by bisection, the two-candidate case settled by the sign."""
        coeffs = [Fraction(c) for c in coeffs]
        while True:
            mn, mx = self.range(coeffs)
            k_lo, k_hi = mn.numerator // mn.denominator, mx.numerator // mx.denominator
            if k_lo == k_hi:
                return k_lo
            if k_hi - k_lo == 1:
                return k_hi if self([coeffs[0] - k_hi] + coeffs[1:]) >= 0 else k_lo
            self.bisect()

    def enclosure(self, coeffs, tol):
        """Enclosure of width <= tol; on a fresh reference it bisects the isolating interval."""
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        while True:
            mn, mx = self.range(coeffs)
            if mx - mn <= tol:
                return mn, mx
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


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b  # F_n, F_(n+1)


def test_near_zero_golden_and_pell_elements_double_the_precision():
    phi_field = NumberField([-1, -1, 1], (1, 2))
    sqrt2_field = NumberField([-2, 0, 1], (1, 2))
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
    # the precision doubled (Pell at n = 300 needs more than 512 bits)
    assert len(sqrt2_field._balls) >= 5


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


def test_beyond_the_zero_test_precision_a_2048_bit_ball_decides():
    field = NumberField([-1, -1, 1], (1, 2))
    phi = field.alpha()
    f_n, f_next = _fibonacci(900)
    # |F_901 - F_900 phi| = phi^-900 needs about 1250 bits
    assert (f_next - f_n * phi).sign() == 1
    assert phi.compare(rational(f_next, f_n)) == -1
    assert len(field._balls) >= 6


def test_ball_sign_tests_leave_the_shared_interval_alone():
    rng = random.Random(3)
    for field in (NumberField(poly, iso) for poly, iso in SEVEN_FIELDS):
        before = field.alpha().enclosure(Fraction(1, 1000))
        for _ in range(1000 // len(SEVEN_FIELDS) + 1):
            vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(field.degree)]
            vec[1] = vec[1] or Fraction(1)
            field.element(vec).sign()
        # enclosure() still meets its width bound after the ball sign tests,
        # and reports what it reported before them
        lo, hi = field.alpha().enclosure(Fraction(1, 1000))
        assert hi - lo <= Fraction(1, 1000)
        assert (lo, hi) == before


def test_zero_real_image_over_reducible_polynomial_raises():
    # (x^2 - 2)(x^2 - 3) has its root sqrt2 alone in (1, 3/2), where x^2 - 2
    # would be a nonzero element with a zero real image: the field is refused
    # where it is built, and the message names the factor with the root
    with pytest.raises(ReducibleMinimalPolynomial, match=r"factor x\^2 - 2 has the isolated root"):
        NumberField([6, 0, -5, 0, 1], (1, Fraction(3, 2)))
    with pytest.raises(ReducibleMinimalPolynomial, match=r"factor x\^2 - 3 has the isolated root"):
        NumberField([6, 0, -5, 0, 1], (Fraction(3, 2), 2))
    with pytest.raises(ReducibleMinimalPolynomial, match=r"factor x - 1 has the isolated root"):
        NumberField([-1, 0, 1], (0, 2))
    assert issubclass(ReducibleMinimalPolynomial, InvalidNumberField)


def test_a_reducible_field_is_refused_under_optimize_and_by_the_cli(tmp_path, capsys):
    path = tmp_path / "reducible.imapk"
    path.write_text("field { poly = [6,0,-5,0,1]; iso = [1,3/2] }\nmap { family = tent }\n")
    message = "factor x^2 - 2 has the isolated root"
    assert main(["classify", str(path)]) == 1
    assert message in capsys.readouterr().err
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "imapk", "classify", str(path), "--json"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert message in done.stderr


def _spy(monkeypatch, name):
    """A list that records the arguments of each call of `polynomials.<name>`,
    made from `polynomials` or from `scalar`."""
    calls = []
    real = getattr(polynomials, name)

    def spied(*args):
        calls.append(args)
        return real(*args)

    for module in (polynomials, scalar):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, spied)
    return calls


def test_a_zero_image_over_a_reducible_polynomial_reaches_the_exact_gcd(monkeypatch):
    # over (x^2 - 2)(x^2 - 3)^2 with its simple root sqrt2 isolated, x^2 - 2
    # would be a nonzero element with a zero real image; the repeated factor
    # fails the modular coprimality proof once, and the one exact gcd with
    # the derivative finds x^2 - 3, whose cofactor holds the root
    proofs, gcds = _spy(monkeypatch, "_coprime_mod_prime"), _spy(monkeypatch, "poly_gcd")
    f = poly_mul((6, 0, -5, 0, 1), (-3, 0, 1))
    with pytest.raises(ReducibleMinimalPolynomial, match=r"factor x\^4 - 5x\^2 \+ 6 has the isolated root"):
        NumberField(f, (1, Fraction(3, 2)))
    assert len(proofs) == len(gcds) == 1


def test_the_zero_tests_over_q_sqrt2_run_no_exact_gcd(monkeypatch, sqrt2_field):
    # x = (sqrt2 - 1)^900 is about 2^-1144 with coefficients near 2^1144, so
    # the 1024-bit balls of x and of x^2 - x hold 0; finer balls decide both
    # signs, with no gcd and no irreducibility test, which the field ran once
    # when it was built
    spies = [_spy(monkeypatch, name) for name in ("poly_gcd", "_coprime_mod_prime", "proper_factor")]
    x = (sqrt2_field.alpha() - 1) ** 900
    assert x.sign() == 1
    assert (x * x - x).sign() == -1
    assert spies == [[], [], []]


def _random_monic(rng, degree):
    return tuple(rng.randint(-10**6, 10**6) for _ in range(degree)) + (1,)


def test_proper_factor_divides_products_of_random_polynomials():
    # (x^2 - 2)(x^2 - 3) is not squarefree mod 3, splits as [2, 2] mod 5 and
    # as [1, 1, 2] mod 7; x^5 - 1 has the rational root 1
    cases = [((-2, 0, 1), (-3, 0, 1)), ((-1, 1), (1, 1, 1, 1, 1))]
    rng = random.Random(31)
    for _ in range(120):
        d = rng.randint(1, 7)
        a = _random_monic(rng, d)
        b = a if 2 * d <= 8 and rng.random() < 0.2 else _random_monic(rng, rng.randint(1, 8 - d))
        cases.append((a, b))
    for a, b in cases:
        f = poly_mul(a, b)
        factor = proper_factor(f)
        assert factor is not None and 0 < len(factor) - 1 < len(f) - 1, (a, b)
        assert not poly_divmod(f, factor)[1], (a, b)
    assert proper_factor((6, 0, -5, 0, 1)) in ((-2, 0, 1), (-3, 0, 1))


def test_proper_factor_proves_irreducibility():
    odd_primes = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]
    irreducible = [
        (-2, 0, 1),
        (-1, -1, 0, 1),
        (-1, -1, 0, 0, 1),
        (-2, 0, 0, 0, 1),
        (-1, -1, 0, 0, 0, 0, 0, 0, 1),
        (1, 0, 0, 0, 1),
        # sqrt(2) + sqrt(3) and sqrt(2) + sqrt(3) + sqrt(5): they split modulo
        # every prime, so the factor degrees alone never prove them
        (1, 0, -10, 0, 1),
        (576, 0, -960, 0, 352, 0, -40, 0, 1),
        # not squarefree modulo any odd prime below 200
        (-prod(odd_primes), 0, 1),
    ]
    rng = random.Random(7)
    for degree in range(2, 9):
        p = rng.choice([2, 3, 5, 7])
        lower = [p * rng.randint(-50, 50) for _ in range(degree)]
        lower[0] = p * rng.choice([k for k in range(-20, 21) if k % p])
        irreducible.append(tuple(lower) + (1,))  # Eisenstein at p
    for f in irreducible:
        assert proper_factor(f) is None, f


def test_compare_rejects_mixed_fields(sqrt2_field, golden_field):
    with pytest.raises(MixedFieldContexts):
        sqrt2_field.alpha().compare(golden_field.alpha())
    assert sqrt2_field.alpha().compare(NumberField([-2, 0, 1], (1, 2)).alpha()) == 0


def test_equal_scalars_hash_equally(golden_field):
    # equal values built different ways: from coefficients, by arithmetic,
    # over a twin field, and a rational lifted into a field
    twin = NumberField([-1, -1, 1], (1, 2))
    x = golden_field.element([Fraction(1, 3), Fraction(-2, 7)])
    phi = golden_field.alpha()
    for a, b in [
        (x, twin.element([Fraction(1, 3), Fraction(-2, 7)])),
        (x, (x * phi + 1) / phi - 1 / phi),
        (golden_field.element([Fraction(-22, 7), 0]), rational(-22, 7)),
        ((phi + 3) - phi, rational(3)),
        (rational(5, 2 * MODULUS), rational(1, MODULUS) * rational(5, 2)),
    ]:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert hash(golden_field) == hash(twin)


def test_the_hash_is_cached(golden_field):
    for s in (rational(-22, 7), golden_field.element([Fraction(1, 3), Fraction(-2, 7)])):
        assert s._hash is None
        with pytest.raises(AttributeError):
            s._hash = 0  # before the hash is cached
        h = hash(s)
        assert s._hash == h == hash(s)
        with pytest.raises(AttributeError):
            s._hash = 0  # after
        # a second hash reads the cache and computes nothing
        object.__setattr__(s, "_hash", h + 1)
        assert hash(s) == h + 1


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
    # refining the field's bracket changes nothing
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


# a unit of each of the seven fields with real image in (0, 1), and the least
# n with u^n < 2^-200: from there on k + u^n is within 2^-200 of the integer k
SMALL_UNITS = [[-1, 1], [-1, 1], [2, -1], [-2, 1], [8, -3], [-1, 0, 1], [-1, 0, 0, 1]]
DEEP_POWERS = [289, 158, 106, 97, 51, 493, 696]
FLOOR_SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def field_elements(draw):
    """A field index and an element: random, or an integer plus a power of a small unit."""
    index = draw(st.integers(0, len(SEVEN_FIELDS) - 1))
    field = _FIELDS[index]
    if draw(st.booleans()):
        return index, field.element(draw(st.lists(coefficient, min_size=field.degree, max_size=field.degree)))
    n = draw(st.integers(1, 60) | st.integers(DEEP_POWERS[index], DEEP_POWERS[index] + 20))
    k = draw(st.integers(-5, 5))
    sign = draw(st.sampled_from((1, -1)))
    return index, k + sign * field.element(SMALL_UNITS[index]) ** n


_FLOOR_REFERENCES = [_ReferenceSign(poly, iso) for poly, iso in SEVEN_FIELDS]


def test_small_units_are_units_below_one():
    for index, unit in enumerate(SMALL_UNITS):
        u = _FIELDS[index].element(unit)
        assert 0 < u < 1
        assert u.inverse().inverse() == u
        n = DEEP_POWERS[index]
        assert u ** n < rational(1, 2**200) <= u ** (n - 1)


@FLOOR_SETTINGS
@given(field_elements())
def test_floor_matches_bisection(case):
    index, x = case
    expected = _FLOOR_REFERENCES[index].floor(list(x.coeffs))
    assert x.floor() == expected
    assert (x - expected).sign() >= 0 and (x - expected - 1).sign() < 0


@pytest.mark.parametrize("index", range(len(SEVEN_FIELDS)))
def test_floor_within_2_to_the_minus_200_of_an_integer(index):
    tiny = _FIELDS[index].element(SMALL_UNITS[index]) ** DEEP_POWERS[index]
    for k in (-3, 0, 4):
        for x, expected in ((k + tiny, k), (k - tiny, k - 1)):
            assert x.floor() == expected
            assert _FLOOR_REFERENCES[index].floor(list(x.coeffs)) == expected


@pytest.mark.parametrize("index", range(len(SEVEN_FIELDS)))
@pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 2)])
def test_enclosure_matches_fraction_halving(index, tol):
    poly, iso = SEVEN_FIELDS[index]
    field = _FIELDS[index]
    rng = random.Random(index)
    elements = [field.alpha(), field.element(SMALL_UNITS[index]) ** 40 + 3]
    for _ in range(20):
        vec = [Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(field.degree)]
        elements.append(field.element(vec))
    for x in elements:
        expected = _ReferenceSign(poly, iso).enclosure(list(x.coeffs), tol)
        assert x.enclosure(tol) == expected
        lo, hi = expected
        assert hi - lo <= tol and lo < x < hi


# -- floor and enclosure of elements with coefficients past 4096 bits ----------

def _sqrt7_near_three(n):
    # 8 - 3 sqrt7 is a unit in (0, 1): the n-th power is below 2^-4n
    field = NumberField([-7, 0, 1], (2, 3))
    return 3 + field.element([8, -3]) ** n


def test_floor_of_elements_with_coefficients_past_4096_bits():
    for n in (1000, 1100):
        x = _sqrt7_near_three(n)
        assert x.floor() == 3
        assert (-x).floor() == -4
    assert max(c.numerator.bit_length() for c in x.coeffs) == 4393


def test_enclosure_of_a_4393_bit_element():
    x = _sqrt7_near_three(1100)
    lo, hi = x.enclosure(Fraction(1, 2))
    assert hi - lo <= Fraction(1, 2) and lo < x < hi
    assert lo < 3 < hi


def test_enclosure_rejects_a_tolerance_that_is_not_positive(golden_field):
    for x in (golden_field.alpha(), rational(1, 3)):
        for tol in (0, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="tol must be positive"):
                x.enclosure(tol)


# -- sorting by certified integer keys ------------------------------------------

SORT_SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def _fibonacci_gap(n):
    """F_(n+1) - F_n phi = (-1/phi)^n in Q(phi)."""
    f_n, f_next = _fibonacci(n)
    return f_next - f_n * _FIELDS[0].alpha()


def _copy(x):
    """An equal Scalar that is a different object."""
    return Scalar(x.field, x.coeffs)


@st.composite
def sort_inputs(draw):
    """Scalars of at most one of the seven fields: rationals (some of 4096 bits,
    some 2^-100 apart), field elements (some within 2^-100 of each other or of
    a rational), and repeats, both the same object and equal copies."""
    index = draw(st.integers(0, len(SEVEN_FIELDS) - 1))
    field = _FIELDS[index]
    unit = field.element(SMALL_UNITS[index])
    big = st.integers(2**4095, 2**4096)
    points = []
    for kind in draw(st.lists(st.sampled_from(
        ("rational", "big", "apart", "element", "near", "fibonacci", "repeat")
    ), max_size=25)):
        if kind == "rational":
            points.append(rational(draw(coefficient)))
        elif kind == "big":
            points.append(rational(draw(big) * draw(st.sampled_from((1, -1))), draw(big)))
        elif kind == "apart":
            r = draw(coefficient)
            points += [rational(r), rational(r + Fraction(1, 2**100))]
        elif kind == "element":
            points.append(field.element(draw(st.lists(coefficient, min_size=field.degree, max_size=field.degree))))
        elif kind == "near":
            # x = k + s u^n, x + 2^-100, and the rationals k and k + s 2^-100
            k, s = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1)))
            x = k + s * unit ** draw(st.integers(100, 700))
            points += [x, x + rational(1, 2**100), rational(k), rational(k) + rational(s, 2**100)]
        elif kind == "fibonacci":
            # Q(phi) only: elements of one field per list
            if index == 0:
                points.append(_fibonacci_gap(draw(st.integers(1, 200))))
        elif points:
            x = draw(st.sampled_from(points))
            points.append(draw(st.sampled_from((x, _copy(x)))))
    return draw(st.permutations(points))


@SORT_SETTINGS
@given(sort_inputs())
def test_sort_scalars_is_sorted_element_for_element(points):
    keyed, expected = sort_scalars(points), sorted(points)
    assert len(keyed) == len(expected)
    assert all(a is b for a, b in zip(keyed, expected))


def _count_compares(monkeypatch):
    """Count Scalar.compare calls from here on; sorted() reaches it through __lt__."""
    calls = [0]
    original = Scalar.compare

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(Scalar, "compare", counted)
    return calls


def test_sort_scalars_falls_back_to_compare_on_overlapping_balls(monkeypatch):
    # (-1/phi)^n for n up to 200, beside 0 and +-2^-100: the balls of all
    # but the first few overlap, so the exact compare orders them
    points = [_fibonacci_gap(n) for n in range(200, 0, -1)]
    points += [rational(0), rational(1, 2**100), rational(-1, 2**100)]
    expected = sorted(points)
    calls = _count_compares(monkeypatch)
    keyed = sort_scalars(points)
    assert calls[0] > 0
    assert all(a is b for a, b in zip(keyed, expected)) and len(keyed) == len(expected)


KEY_SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)
_KEY_REFERENCES = [_ReferenceSign(poly, iso) for poly, iso in SEVEN_FIELDS]


@st.composite
def key_elements(draw):
    """A field index and an element: one of ``field_elements``, or
    c (alpha - 1)^k, whose coefficients have hundreds of bits more than its
    denominator whether its value is tiny or huge."""
    if draw(st.booleans()):
        return draw(field_elements())
    index = draw(st.integers(0, len(SEVEN_FIELDS) - 1))
    c = draw(coefficient.filter(bool))
    return index, (_FIELDS[index].alpha() - 1) ** draw(st.integers(300, 900)) * c


@KEY_SETTINGS
@given(key_elements())
def test_sort_keys_enclose_the_value_tightly(case):
    # lo <= x 2^64 <= hi, decided by the Fraction reference
    index, x = case
    lo, hi = scalar._sort_key(x)
    scaled = [c * 2**64 for c in x.coeffs]
    reference = _KEY_REFERENCES[index]
    assert reference([scaled[0] - lo] + scaled[1:]) >= 0
    assert reference([hi - scaled[0]] + [-c for c in scaled[1:]]) >= 0
    # a key is at most a few units wide when the coefficients outgrow the
    # denominator, however small or large the value
    if max(abs(n).bit_length() for n in x.num) - x.den.bit_length() >= 40:
        assert hi - lo <= 4


def test_sort_scalars_rejects_two_fields(golden_field, sqrt2_field):
    with pytest.raises(MixedFieldContexts):
        sort_scalars([golden_field.alpha(), rational(1), sqrt2_field.alpha()])
    assert sort_scalars([]) == []


# a closure that walks to the size limit, and one that walks to the cap
@pytest.mark.parametrize("path, size", [
    (DATA / "uncertified_multimodal.imapk", 6553), (SPECS / "golden_exchange.imapk", 10001),
], ids=["uncertified_multimodal-6553", "golden_exchange-10001"])
def test_shipped_closures_sort_without_a_single_compare(path, size, monkeypatch):
    spec = parse_spec(path.read_text())
    points = critical_closure(spec.map).points
    assert len(points) == size
    calls = _count_compares(monkeypatch)
    keyed = sort_scalars(points)
    assert calls[0] == 0
    monkeypatch.undo()
    # a permutation of distinct points whose neighbours increase strictly is
    # the one sorted order, so this is keyed == sorted(points) by identity
    assert sorted(map(id, keyed)) == sorted(map(id, points))
    assert all(a < b for a, b in zip(keyed, keyed[1:]))


# -- the integer storage against a tuple-of-Fraction model ----------------------

# a rational is (None, (c,)) and an element of _FIELDS[i] is (i, full-length
# tuple of Fractions), an element whose higher coefficients vanish being the
# rational: the representation and the formulas the storage replaced
MODULUS = sys.hash_info.modulus
STORAGE_SETTINGS = settings(max_examples=250, derandomize=True, database=None, deadline=None)


def _model(index, coeffs):
    coeffs = tuple(Fraction(c) for c in coeffs)
    if index is not None and not any(coeffs[1:]):
        return None, coeffs[:1]
    return index, coeffs


def _model_lift(a, b):
    index = a[0] if a[0] is not None else b[0]
    if index is None:
        return None, a[1], b[1]
    degree = _FIELDS[index].degree
    return index, a[1] + (Fraction(0),) * (degree - len(a[1])), b[1] + (Fraction(0),) * (degree - len(b[1]))


def _model_add(a, b):
    index, x, y = _model_lift(a, b)
    return _model(index, [p + q for p, q in zip(x, y)])


def _model_neg(a):
    return a[0], tuple(-c for c in a[1])


def _model_mul(a, b):
    index, x, y = _model_lift(a, b)
    if index is None:
        return None, (x[0] * y[0],)
    poly = _FIELDS[index].poly
    degree = len(poly) - 1
    raw = [Fraction(0)] * (2 * degree - 1)
    for i, p in enumerate(x):
        for j, q in enumerate(y):
            raw[i + j] += p * q
    # alpha^k = alpha^(k - degree) * (alpha^degree - poly), top down
    for k in range(len(raw) - 1, degree - 1, -1):
        for i in range(degree):
            raw[k - degree + i] -= raw[k] * poly[i]
    return _model(index, raw[:degree])


def _model_inverse(a):
    """The inverse by solving y * z = 1 for z over the rationals."""
    index, x = a
    if index is None:
        return None, (1 / x[0],)
    degree = _FIELDS[index].degree
    unit = [(index, tuple(Fraction(int(i == j)) for i in range(degree))) for j in range(degree)]
    columns = [_model_lift(_model_mul(a, u), u)[1] for u in unit]
    rows = [[columns[j][i] for j in range(degree)] + [Fraction(int(i == 0))] for i in range(degree)]
    for col in range(degree):
        pivot = next(r for r in range(col, degree) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [c / rows[col][col] for c in rows[col]]
        for r in range(degree):
            if r != col and rows[r][col]:
                rows[r] = [p - rows[r][col] * q for p, q in zip(rows[r], rows[col])]
    return _model(index, [row[-1] for row in rows])


def _model_sign(a):
    index, x = a
    if index is None:
        return (x[0] > 0) - (x[0] < 0)
    return _REFERENCES[index](list(x))


def _model_floor(a):
    index, x = a
    if index is None:
        return x[0].numerator // x[0].denominator
    return _FLOOR_REFERENCES[index].floor(list(x))


def _model_text(a):
    index, x = a
    if index is None:
        return str(x[0])
    poly, iso = SEVEN_FIELDS[index]
    return "poly:[%s]; iso:[%s,%s]; elem:[%s]" % (
        ",".join(map(str, poly)), Fraction(iso[0]), Fraction(iso[1]), ",".join(map(str, x)))


def _cleared(coeffs):
    """(den, vec): the least positive den making vec = coeffs * den integral."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _agrees(x, a):
    """The Scalar x stores the model value a."""
    index, coeffs = a
    assert x.field is (None if index is None else _FIELDS[index])
    assert x.coeffs == coeffs
    assert (x.den, list(x.num)) == _cleared(coeffs)
    assert hash(x) == hash(_scalar_of(a))
    assert x.text() == _model_text(a)


big = st.integers(2**4095, 2**4200) | st.integers(-2**4200, -2**4095)
# denominators include multiples of the hash modulus
storage_coefficient = st.builds(
    Fraction,
    st.integers(-3000, 3000) | big,
    st.integers(1, 60) | st.sampled_from([MODULUS, 2 * MODULUS, 3 * MODULUS**2]) | big.map(abs),
)


@st.composite
def storage_values(draw, index):
    """A model value of Q or of _FIELDS[index]: a rational, possibly past
    4096 bits, or an element with small coefficients, some scaled by 2^k,
    some vanishing."""
    if index is None or draw(st.booleans()):
        return _model(None, [draw(storage_coefficient)])
    degree = _FIELDS[index].degree
    small = coefficient | st.sampled_from([Fraction(0), Fraction(1, MODULUS), Fraction(2, 3 * MODULUS)])
    coeffs = draw(st.lists(small, min_size=degree, max_size=degree))
    k = draw(st.sampled_from((0, 0, 60, 200)))
    return _model(index, [c * 2**k for c in coeffs])


@st.composite
def storage_pairs(draw):
    index = draw(st.none() | st.integers(0, len(SEVEN_FIELDS) - 1))
    return draw(storage_values(index)), draw(storage_values(index))


def _scalar_of(a):
    index, coeffs = a
    return Scalar(None, coeffs) if index is None else _FIELDS[index].element(coeffs)


@STORAGE_SETTINGS
@given(storage_pairs())
def test_the_integer_storage_matches_the_fraction_model(pair):
    a, b = pair
    x, y = _scalar_of(a), _scalar_of(b)
    _agrees(x, a)
    _agrees(y, b)
    _agrees(x + y, _model_add(a, b))
    _agrees(x - y, _model_add(a, _model_neg(b)))
    _agrees(-x, _model_neg(a))
    _agrees(x * y, _model_mul(a, b))
    if _model_sign(b):
        _agrees(x / y, _model_mul(a, _model_inverse(b)))
    expected = _model_sign(_model_add(a, _model_neg(b)))
    assert x.compare(y) == expected and y.compare(x) == -expected
    assert (x == y) == (a == b) == (expected == 0)
    assert x.sign() == _model_sign(a)
    if a[0] is None or all(abs(c) < 2**300 for c in a[1]):
        assert x.floor() == _model_floor(a)
    values = [x, y, x + y, x - y, y - x, _copy(x)]
    models = [a, b, _model_add(a, b), _model_add(a, _model_neg(b)), _model_add(b, _model_neg(a)), a]
    order = sorted(range(len(values)), key=cmp_to_key(
        lambda i, j: _model_sign(_model_add(models[i], _model_neg(models[j])))))
    assert [id(v) for v in sort_scalars(values)] == [id(values[i]) for i in order]


@pytest.mark.parametrize("index", [None, 0, 5])
def test_the_hash_of_a_denominator_divisible_by_the_modulus(index):
    # equal values hash equally also where den is a multiple of the hash
    # modulus P, built from coefficients and by arithmetic
    cases = [[Fraction(1, MODULUS)], [Fraction(-5, 2 * MODULUS**2)], [Fraction(7, 3)]]
    if index is not None:
        degree = _FIELDS[index].degree
        cases += [[Fraction(1, MODULUS), Fraction(1, 3)] + [0] * (degree - 2),
                  [Fraction(2, 3), Fraction(1, MODULUS)] + [Fraction(-1, 5)] * (degree - 2),
                  [Fraction(1, 2 * MODULUS), Fraction(-1, MODULUS)] + [0] * (degree - 2)]
    for coeffs in cases:
        a = _model(index if len(coeffs) > 1 else None, coeffs)
        x = _scalar_of(a)
        assert x.den % MODULUS == 0 or coeffs == [Fraction(7, 3)]
        y = (x * 3 + 1) / 3 - rational(1, 3)
        assert y == x and hash(y) == hash(x)
        _agrees(x, a)
