"""Exact scalar arithmetic: rationals and real algebraic numbers.

Every coordinate in the package is a :class:`Scalar`: either an
arbitrary-precision rational or an element of a real algebraic context
``Q(alpha)``, stored as a rational coefficient vector of ``alpha``.  The
context is a :class:`NumberField`: a monic squarefree integer polynomial with
no rational roots together with an isolating interval certified (by sign
change and a Sturm count of one) to contain exactly one real root.

Comparisons are decided exactly.  Equality reduces to the zero coefficient
vector.  The sign of a nonzero element is read off integer balls.  A field
keeps one integer bracket lo/scale < alpha < hi/scale, made from the
isolating interval; :meth:`NumberField.refine` halves it by homogeneous
integer Horner (no ``Fraction``).  Because the defining polynomial has no
rational roots, a midpoint is never a root, so every halving makes progress.
For a precision P the bracket is halved until it is at most 2^-P wide, and
integer enclosures [L_k, H_k] of alpha^k * 2^P, k < degree, are cached, one
pair per level P = 64 * 2^level.  The element's denominators are cleared,
and one integer dot product, taking L_k or H_k by the sign of each
coefficient, encloses its value times a positive integer.  If that
enclosure contains zero, P doubles from 64 bits, without a ceiling
(midpoint-radius ball arithmetic as in Johansson's Arb; integer coefficient
vectors as in Hart's ANTIC).  A nonzero element of a genuine
field has a nonzero real image, so some precision decides it.  Once the
1024-bit ball has failed, one exact zero-image test runs: if the gcd of the
element with the defining polynomial has a root in the bracket, the user
supplied a reducible polynomial and an element whose real image vanishes,
and that is reported as an error rather than silently mis-ordered.  A sign
is only ever returned when a certified enclosure proves it.

:meth:`NumberField.ball` is the one dot product, and three things read it.
``sign_of`` is one.  :meth:`Scalar.floor` is another: it reads the floors of
both ends off the ball, doubling P until they agree or the ball is narrower
than 1, and then one exact compare picks between the two candidates.  The
third is :func:`sort_scalars`, which keys each point by its 64-bit ball
(floor(n * 2^64 / d) and one more for a rational n/d), sorts by the lower ends
as plain ints, and orders only runs of overlapping balls with the exact
compare; its result is the list ``sorted`` returns.

:meth:`Scalar.enclosure` halves its own copy of the isolating interval with
the same halving step and bounds the element by interval Horner in integers
until the width is at most the tolerance, so its result depends only on the
element and the tolerance.  Interval Horner converges for any polynomial, so
no halving limit is needed.

A scalar is immutable, so its hash is computed on first use and cached: a
large rational in an orbit set or a breakpoint set is hashed once, however
often it is looked up.  The cached value is the plain tuple hash, so set and
dict order do not depend on the cache.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    DivisionByZero,
    InvalidNumberField,
    MixedFieldContexts,
    ReducibleMinimalPolynomial,
)
from .polynomials import (
    IntPoly,
    count_real_roots,
    is_squarefree,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
)

# precision of the first integer ball (the sort keys are taken at it), and
# the precision whose failed ball runs the exact zero-image test
_BALL_BITS = 64
_ZERO_TEST_BITS = 1024

DEGREE_CAP = 8


def _homogeneous_eval(poly, num, scale):
    """p(num/scale) * scale^deg p for an integer polynomial, in integers."""
    acc = poly[-1]
    power = 1
    for c in reversed(poly[:-1]):
        power *= scale
        acc = acc * num + c * power
    return acc


def _power_range(a, b, k):
    """[min, max] of x^k over the integers a <= x <= b."""
    lo, hi = a**k, b**k
    if k % 2 or a >= 0:
        return lo, hi
    if b <= 0:
        return hi, lo
    return 0, max(lo, hi)


def _cleared(coeffs):
    """(den, vec): the least positive integer den making vec = coeffs * den integral."""
    # a list: with a generator here the alg_exchange benchmark peaked 0.5 MB higher
    den = lcm(*[c.denominator for c in coeffs])
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _integer_bracket(lo, hi):
    """(lo, hi, scale) in integers for the rational interval [lo, hi]."""
    scale = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (scale // lo.denominator), hi.numerator * (scale // hi.denominator), scale


def _interval_eval(coeffs, lo, hi, scale):
    """Interval Horner enclosure of an integer polynomial over [lo/scale,
    hi/scale], times scale^deg, in integers."""
    mn = mx = coeffs[-1]
    power = 1
    for c in reversed(coeffs[:-1]):
        power *= scale
        candidates = (mn * lo, mn * hi, mx * lo, mx * hi)
        mn, mx = min(candidates) + c * power, max(candidates) + c * power
    return mn, mx


class NumberField:
    """Real algebraic context Q(alpha) with a certified isolated root.

    The defining polynomial is normalized to a monic integer polynomial
    (denominators cleared, content divided out).  Irreducibility is not
    verified beyond squarefreeness and a rational-root scan; the isolating
    interval keeps every comparison sound for genuinely irreducible inputs.
    """

    __slots__ = (
        "poly", "degree", "iso", "_sign_lo", "_powers", "_key_hash", "_bracket", "_balls",
    )

    def __init__(self, coeffs, isolating_interval):
        cleared = [Fraction(c) for c in coeffs]
        cleared = poly_trim(cleared)
        if not cleared:
            raise InvalidNumberField("defining polynomial is zero")
        denom = lcm(*[c.denominator for c in cleared])
        ints = [int(c * denom) for c in cleared]
        content = gcd(*ints)
        ints = [c // content for c in ints]
        if ints[-1] < 0:
            ints = [-c for c in ints]
        if ints[-1] != 1:
            raise InvalidNumberField(
                "polynomial is not monic after clearing content: %s" % (ints,)
            )
        self.poly = tuple(ints)
        self.degree = len(ints) - 1
        if self.degree < 2:
            raise InvalidNumberField("degree must be at least 2")
        if self.degree > DEGREE_CAP:
            raise InvalidNumberField("degree %d exceeds cap %d" % (self.degree, DEGREE_CAP))
        if not is_squarefree(self.poly):
            raise InvalidNumberField("polynomial is not squarefree")
        if IntPoly(self.poly).integer_roots():
            raise InvalidNumberField("polynomial has a rational root, so is reducible")
        if len(isolating_interval) != 2:
            raise InvalidNumberField("isolating interval must be [lo, hi]")
        lo, hi = (Fraction(isolating_interval[0]), Fraction(isolating_interval[1]))
        if not lo < hi:
            raise InvalidNumberField("isolating interval is empty")
        s_lo = poly_eval(self.poly, lo)
        s_hi = poly_eval(self.poly, hi)
        if s_lo == 0 or s_hi == 0 or (s_lo > 0) == (s_hi > 0):
            raise InvalidNumberField("no sign change over the isolating interval")
        if count_real_roots(self.poly, lo, hi) != 1:
            raise InvalidNumberField("isolating interval does not contain exactly one root")
        self.iso = (lo, hi)
        self._sign_lo = 1 if s_lo > 0 else -1
        # x^degree .. x^(2*degree-2) reduced mod poly, for multiplication
        powers = []
        current = [Fraction(-c) for c in self.poly[:-1]]
        powers.append(tuple(current))
        for _ in range(self.degree - 2):
            shifted = [Fraction(0)] + current[:-1]
            top = current[-1]
            current = [s - top * self.poly[i] for i, s in enumerate(shifted)]
            powers.append(tuple(current))
        self._powers = tuple(powers)
        self._key_hash = _KeyHash(self.key())
        # integer bracket (lo, hi, scale) of alpha, and the balls built from it
        self._bracket = _integer_bracket(lo, hi)
        self._balls = []

    def key(self):
        return (self.poly, self.iso)

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField) and self.key() == other.key())

    def __hash__(self):
        return hash(("NumberField", self._key_hash))

    def __repr__(self):
        return "NumberField(%s, iso=(%s, %s))" % (
            IntPoly(self.poly).text("x"),
            self.iso[0],
            self.iso[1],
        )

    def _halve(self, lo, hi, scale):
        """The half of the bracket lo/scale < alpha < hi/scale that holds alpha."""
        mid = lo + hi
        scale *= 2
        # no rational roots, so the value at the midpoint is nonzero
        if (_homogeneous_eval(self.poly, mid, scale) > 0) == (self._sign_lo > 0):
            return mid, 2 * hi, scale
        return 2 * lo, mid, scale

    def refine(self):
        """Halve the bracket of alpha once."""
        self._bracket = self._halve(*self._bracket)

    def _ball(self, bits):
        """Integer enclosures (L, H) of alpha^k * 2^bits, k < degree, from the
        bracket refined to at most 2^-bits wide."""
        lo, hi, scale = self._bracket
        while (hi - lo) << bits > scale:
            self.refine()
            lo, hi, scale = self._bracket
        a = (lo << bits) // scale
        b = -((-hi << bits) // scale)
        L, H = [1 << bits], [1 << bits]
        for k in range(1, self.degree):
            p, q = _power_range(a, b, k)
            shift = bits * (k - 1)
            L.append(p >> shift)
            H.append(-(-q >> shift))
        return tuple(L), tuple(H)

    def ball(self, vec, level):
        """Integers lo <= sum(vec[k] * alpha^k) * 2^(64 * 2^level) <= hi for an
        integer vector, from the cached enclosures of the powers of alpha."""
        balls = self._balls
        while level >= len(balls):
            balls.append(self._ball(_BALL_BITS << len(balls)))
        L, H = balls[level]
        lo = hi = 0
        for n, l, h in zip(vec, L, H):
            if n > 0:
                lo += n * l
                hi += n * h
            elif n < 0:
                lo += n * h
                hi += n * l
        return lo, hi

    def sign_of(self, vec):
        """Sign of sum(vec[k] * alpha^k) for an integer vector with a nonzero
        irrational part, by integer balls of doubling precision."""
        level = 0
        while True:
            lo, hi = self.ball(vec, level)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if _BALL_BITS << level == _ZERO_TEST_BITS:
                # rule out a zero real image (possible only when the defining
                # polynomial is reducible); the bracket isolates alpha
                shared = poly_gcd(poly_trim(vec), self.poly)
                a, b, scale = self._bracket
                if len(shared) > 1 and count_real_roots(shared, Fraction(a, scale), Fraction(b, scale)):
                    raise ReducibleMinimalPolynomial(
                        "element has zero real image but nonzero coefficients; "
                        "the defining polynomial is reducible"
                    )
            level += 1

    def alpha(self):
        return Scalar(self, (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2))

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        vec += [Fraction(0)] * (self.degree - len(vec))
        return Scalar(self, tuple(vec))

    def reduce(self, raw):
        """Reduce a raw product vector (length <= 2*degree-1) mod the polynomial."""
        vec = list(raw) + [Fraction(0)] * max(0, (2 * self.degree - 1) - len(raw))
        out = list(vec[: self.degree])
        for k in range(self.degree, 2 * self.degree - 1):
            c = vec[k]
            if c == 0:
                continue
            power = self._powers[k - self.degree]
            for i in range(self.degree):
                out[i] += c * power[i]
        return tuple(out)


class _KeyHash:
    """Stands in for a field's key inside a tuple hash: same hash, computed once."""

    __slots__ = ("value",)

    def __init__(self, key):
        self.value = hash(key)

    def __hash__(self):
        return self.value


class Scalar:
    """Exact number: a rational, or an element of one NumberField context.

    Immutable and hashable in canonical form: an algebraic element whose
    higher coefficients all vanish collapses to the plain rational, so equal
    values hash equally and orbit lookups behave.  Field elements always hold
    a full-length coefficient vector.  The hash and the text are computed on
    first use and kept in ``_hash`` and ``_text``.
    """

    __slots__ = ("field", "coeffs", "_hash", "_text")

    def __init__(self, field, coeffs):
        if field is not None and all(c == 0 for c in coeffs[1:]):
            field, coeffs = None, (coeffs[0],)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- classification ---------------------------------------------------

    @property
    def is_rational(self):
        return self.field is None

    def as_fraction(self):
        if self.field is not None:
            raise ValueError("not a rational scalar")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(None, (Fraction(other),))
        return None

    @staticmethod
    def _join(a, b):
        """Common field context, lifting a rational operand; distinct fields are
        an error.  A field element is always full length, so only a rational
        is padded."""
        fa, fb = a.field, b.field
        if fa is fb:
            return fa, a.coeffs, b.coeffs
        if fa is None:
            return fb, a.coeffs + (Fraction(0),) * (fb.degree - len(a.coeffs)), b.coeffs
        if fb is None:
            return fa, a.coeffs, b.coeffs + (Fraction(0),) * (fa.degree - len(b.coeffs))
        if fa != fb:
            raise MixedFieldContexts(
                "operands live in different number fields: %r vs %r" % (fa, fb)
            )
        return fa, a.coeffs, b.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        field, a, b = Scalar._join(self, other)
        return Scalar(field, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        fa, fb = self.field, other.field
        if fa is None and fb is None:
            return Scalar(None, (self.coeffs[0] * other.coeffs[0],))
        if fa is None or fb is None:
            # a rational times a field element scales its coefficients
            c, x = (self.coeffs[0], other) if fa is None else (other.coeffs[0], self)
            return x if c == 1 else Scalar(x.field, tuple(c * y for y in x.coeffs))
        field, a, b = Scalar._join(self, other)
        raw = [Fraction(0)] * (2 * field.degree - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                raw[i + j] += x * y
        return Scalar(field, field.reduce(raw))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("division by zero scalar")
        if self.field is None:
            return Scalar(None, (1 / self.coeffs[0],))
        g = poly_trim(self.coeffs)
        m = self.field.poly
        # extended Euclid over Q[x]: s*g + t*m = r
        r0, r1 = g, poly_trim(m)
        s0, s1 = (Fraction(1),), ()
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        if len(r0) - 1 > 0:
            raise ReducibleMinimalPolynomial(
                "element is a zero divisor; the defining polynomial is reducible"
            )
        unit = Fraction(r0[0])
        inv = tuple(Fraction(c) / unit for c in s0)
        return self.field.element(inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.field is None:
            if other.coeffs[0] == 0:
                raise DivisionByZero("division by zero scalar")
            return self * Scalar(None, (1 / other.coeffs[0],))
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Scalar(None, (Fraction(1),))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison --------------------------------------------------------

    @property
    def is_zero(self):
        return self.field is None and self.coeffs[0] == 0

    def sign(self):
        if self.field is None:
            c = self.coeffs[0]
            return 0 if c == 0 else (1 if c > 0 else -1)
        return self.field.sign_of(_cleared(self.coeffs)[1])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        fa, fb = self.field, other.field
        if fa is None and fb is None:
            return self.coeffs[0] == other.coeffs[0]
        # canonical form: a rational never equals an irrational field element
        if fa is None or fb is None:
            return False
        return (fa is fb or fa == fb) and self.coeffs == other.coeffs

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        if self.field is None:
            h = hash(("Scalar", self.coeffs[0]))
        else:
            h = hash(("Scalar", self.field._key_hash, self.coeffs))
        object.__setattr__(self, "_hash", h)
        return h

    def compare(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError("cannot compare Scalar with %r" % (other,))
        other = coerced
        fa, fb = self.field, other.field
        if fa is None and fb is None:
            a, b = self.coeffs[0], other.coeffs[0]
            return 0 if a == b else (-1 if a < b else 1)
        if fa is not fb and fa is not None and fb is not None and fa != fb:
            raise MixedFieldContexts(
                "operands live in different number fields: %r vs %r" % (fa, fb)
            )
        # the coefficient difference, denominators cleared, without a new Scalar
        n = len(self.coeffs)
        ints = _cleared(self.coeffs + other.coeffs)[1]
        diff = [x - y for x, y in zip_longest(ints[:n], ints[n:], fillvalue=0)]
        if not any(diff[1:]):
            d = diff[0]
            return 0 if d == 0 else (1 if d > 0 else -1)
        return (fa or fb).sign_of(diff)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- rounding ----------------------------------------------------------

    def floor(self):
        if self.field is None:
            return self.coeffs[0].numerator // self.coeffs[0].denominator
        den, vec = _cleared(self.coeffs)
        level = 0
        while True:
            lo, hi = self.field.ball(vec, level)
            unit = den << (_BALL_BITS << level)
            k_lo, k_hi = lo // unit, hi // unit
            if k_lo == k_hi:
                return k_lo
            if hi - lo < unit:
                # narrower than 1, so the candidates are k_lo and k_lo + 1
                return k_hi if self.compare(k_hi) >= 0 else k_lo
            level += 1

    def enclosure(self, tol=Fraction(1, 10**6)):
        """Rational interval [lo, hi] containing the value, of width <= tol.

        It halves its own copy of the isolating interval until interval
        Horner is that narrow, so the result depends only on the element and
        tol.
        """
        tol = Fraction(tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        if self.field is None:
            return self.coeffs[0], self.coeffs[0]
        den, g = _cleared(poly_trim(self.coeffs))
        field = self.field
        lo, hi, scale = _integer_bracket(*field.iso)
        while True:
            # interval Horner over [lo/scale, hi/scale] of the element times unit
            mn, mx = _interval_eval(g, lo, hi, scale)
            unit = den * scale ** (len(g) - 1)
            if (mx - mn) * tol.denominator <= tol.numerator * unit:
                return Fraction(mn, unit), Fraction(mx, unit)
            lo, hi, scale = field._halve(lo, hi, scale)

    # -- text forms ----------------------------------------------------------

    def text(self):
        try:
            return self._text
        except AttributeError:
            pass
        text = self._render_text()
        object.__setattr__(self, "_text", text)
        return text

    def _render_text(self):
        if self.field is None:
            return str(self.coeffs[0])
        poly = ",".join(str(c) for c in self.field.poly)
        iso = "%s,%s" % self.field.iso
        elem = ",".join(str(c) for c in self.coeffs)
        return "poly:[%s]; iso:[%s]; elem:[%s]" % (poly, iso, elem)

    def __repr__(self):
        return "Scalar(%s)" % self.text()


ZERO = Scalar(None, (Fraction(0),))
ONE = Scalar(None, (Fraction(1),))


def rational(p, q=1):
    return Scalar(None, (Fraction(p, q),))


def as_scalar(x, field=None):
    """Coerce ints, Fractions, and Scalars; ``field`` only fills in context checks."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(None, (Fraction(x),))
    if isinstance(x, str):
        return scalar_from_text(x, field)
    raise TypeError("cannot interpret %r as a Scalar" % (x,))


def common_field(*values):
    """The unique NumberField context among values, or None if all rational."""
    field = None
    for v in values:
        if isinstance(v, Scalar) and v.field is not None:
            if field is None:
                field = v.field
            elif field != v.field:
                raise MixedFieldContexts("values mix distinct number fields")
    return field


def _sort_key(x):
    """Integers lo <= x * 2^64 <= hi for a Scalar, from the 64-bit ball."""
    if x.field is None:
        c = x.coeffs[0]
        lo = (c.numerator << _BALL_BITS) // c.denominator
        return lo, lo + 1
    den, vec = _cleared(x.coeffs)
    lo, hi = x.field.ball(vec, 0)
    return lo // den, -(-hi // den)


def sort_scalars(points):
    """The list sorted(points), ordered by certified integer keys.

    Each point gets one integer ball [lo, hi] around x * 2^64, and the list is
    sorted by lo.  A point whose ball lies wholly above the balls before it
    is greater than all of them, so only runs of chained overlapping balls
    are ordered with the exact compare.  Equal points have equal balls and
    both sorts are stable, so the result equals sorted(points) also when
    points repeat.
    """
    points = list(points)
    common_field(*points)
    keyed = sorted(((*_sort_key(x), x) for x in points), key=itemgetter(0))
    out = []
    i = 0
    while i < len(keyed):
        j = i + 1
        top = keyed[i][1]
        while j < len(keyed) and keyed[j][0] <= top:
            top = max(top, keyed[j][1])
            j += 1
        if j == i + 1:
            out.append(keyed[i][2])
        else:
            out.extend(sorted(entry[2] for entry in keyed[i:j]))
        i = j
    return out


def _parse_bracketed(text, label):
    text = text.strip()
    if not (text.startswith(label + ":[") and text.endswith("]")):
        raise ValueError("expected %s:[...] in scalar text" % label)
    inner = text[len(label) + 2 : -1]
    if not inner.strip():
        return []
    return [Fraction(part.strip()) for part in inner.split(",")]


def scalar_from_text(text, field=None):
    """Parse 'p/q', 'p', or 'poly:[...]; iso:[...]; elem:[...]'."""
    text = text.strip()
    if text.startswith("poly:"):
        parts = [p for p in text.split(";") if p.strip()]
        if len(parts) != 3:
            raise ValueError("algebraic scalar text needs poly, iso, elem parts")
        poly = _parse_bracketed(parts[0], "poly")
        iso = _parse_bracketed(parts[1], "iso")
        elem = _parse_bracketed(parts[2], "elem")
        if len(iso) != 2:
            raise ValueError("iso part must have two entries")
        parsed = NumberField(poly, (iso[0], iso[1]))
        if field is not None and field != parsed:
            raise MixedFieldContexts("scalar text declares a different field")
        return parsed.element(elem)
    return Scalar(None, (Fraction(text),))
