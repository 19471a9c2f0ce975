"""Exact scalar arithmetic: rationals and real algebraic numbers.

Every coordinate in the package is a :class:`Scalar`: either an
arbitrary-precision rational or an element of a real algebraic context
``Q(alpha)``.  The context is a :class:`NumberField`: a monic integer
polynomial, proved irreducible over Q when the field is built
(``polynomials.proper_factor``), together with an isolating interval
certified (by sign change and a Sturm count of one) to contain exactly one
real root.  So every field is a genuine field, and no later step checks it.

A scalar is stored as one integer vector ``num`` over one positive integer
``den``, as ANTIC's ``nf_elem`` stores a number field element (W. Hart,
"ANTIC: Algebraic Number Theory In C", 2015): ``num`` holds the coefficients
of 1, alpha, ..., alpha^(degree-1) times ``den`` for a field element and has
length 1 for a rational.  The form is canonical: gcd(den, *num) = 1, and a
field element whose higher coefficients all vanish is the rational.  So
``den`` is the least common denominator of the coefficients, and equal
values have equal fields, vectors and denominators.  Every operation works
in Python ints.  A sum reduces by gcds with the small operand
gcd(den_1, den_2), and a product of rationals by cross gcds, as
``Fraction`` does (Knuth, TAOCP 2, 4.5.1); a product of field elements
reduces by the monic integer polynomial, then by the gcd of the result.
The rational coefficient vector ``coeffs`` is built on demand.

Comparisons are decided exactly.  Equality compares the canonical
storage.  The sign of a nonzero element is read off integer balls.  A field
keeps one integer bracket lo/scale < alpha < hi/scale, made from the
isolating interval; :meth:`NumberField.refine` halves it by homogeneous
integer Horner (no ``Fraction``).  An irreducible polynomial has no rational
root, so a midpoint is never a root, and every halving makes progress.
For a precision P the bracket is halved until it is at most 2^-P wide, and
integer enclosures [L_k, H_k] of alpha^k * 2^P, k < degree, are cached, one
pair per level P = 64 * 2^level.  One integer dot product of ``num``,
taking L_k or H_k by the sign of each coefficient, encloses the value times
``den``; a compare takes the cross-multiplied difference of two vectors.  If
that enclosure contains zero, P doubles from 64 bits, without a ceiling
(midpoint-radius ball arithmetic as in Johansson's Arb; integer coefficient
vectors as in Hart's ANTIC).  A nonzero element of a field has a nonzero
real image, so some precision decides it.  A sign is only ever returned
when a certified enclosure proves it.

:meth:`NumberField.ball` is the one dot product, and three things read it.
``sign_of`` is one.  :meth:`Scalar.floor` is another: it reads the floors of
both ends off the ball, doubling P until they agree or the ball is narrower
than 1, and then one exact compare picks between the two candidates.  The
third is :func:`sort_scalars`, which keys each point by its 64-bit ball
(floor(n * 2^64 / d) and one more for a rational n/d), sorts by the lower ends
as plain ints, and orders only runs of overlapping balls with the exact
compare; its result is the list ``sorted`` returns.  ``PMMap.locate`` reads
the same keys.  The 64-bit ball of a field element is about max |num| / den
units wide, so an element whose coefficients are far larger than its value
(a high power of a number below 1) would get a key that overlaps every other.
When that width passes 2^32 units, the key is taken from the ball at a
precision that exceeds 64 bits by the coefficients' excess bits over ``den``
and a few more, and both ends are rounded outward to 2^64: the key is then a
few units wide.

:meth:`Scalar.enclosure` halves its own copy of the isolating interval with
the same halving step and bounds the element by interval Horner in integers
until the width is at most the tolerance, so its result depends only on the
element and the tolerance.  Interval Horner converges for any polynomial, so
no halving limit is needed.

A scalar is immutable, so its hash is computed on first use and cached: a
large rational in an orbit set or a breakpoint set is hashed once, however
often it is looked up.  The hash is that of the canonical storage
``(num, den)``, so equal scalars hash equally.  No report order reads a
hash value (``tests/test_report.py::test_report_bytes_read_no_scalar_hash``
salts it and gets every shipped report byte for byte).
"""

from __future__ import annotations

from fractions import Fraction
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
    homogeneous_eval,
    integral,
    poly_divmod,
    poly_eval,
    poly_mul,
    poly_sub,
    poly_trim,
    proper_factor,
)

# precision of the first integer ball (the sort keys are taken at it)
_BALL_BITS = 64

# a sort key wider than 2^_KEY_WIDTH_BITS units is taken again from a ball
# _KEY_SLACK_BITS finer than the coefficients' excess over the denominator
_KEY_WIDTH_BITS = 32
_KEY_SLACK_BITS = 8

DEGREE_CAP = 8


def _power_range(a, b, k):
    """[min, max] of x^k over the integers a <= x <= b."""
    lo, hi = a**k, b**k
    if k % 2 or a >= 0:
        return lo, hi
    if b <= 0:
        return hi, lo
    return 0, max(lo, hi)


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
    (denominators cleared, content divided out) and must be irreducible over
    Q: ``polynomials.proper_factor`` decides that once, here, and a
    reducible polynomial raises ReducibleMinimalPolynomial.
    """

    # `_text_head` is set on first use, not by __init__, so building a field
    # that never reaches a text costs nothing more
    __slots__ = ("poly", "degree", "iso", "_sign_lo", "_powers", "_bracket", "_balls", "_text_head")

    def __init__(self, coeffs, isolating_interval):
        ints = integral(poly_trim([Fraction(c) for c in coeffs]))
        if not ints:
            raise InvalidNumberField("defining polynomial is zero")
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
        factor = proper_factor(self.poly)
        if factor is not None:
            if not count_real_roots(factor, lo, hi):
                factor = integral(poly_divmod(self.poly, factor)[0])
            text = IntPoly(factor).text("x")
            raise ReducibleMinimalPolynomial("reducible polynomial: its factor %s has the isolated root" % text)
        self.iso = (lo, hi)
        self._sign_lo = 1 if s_lo > 0 else -1
        # x^degree .. x^(2*degree-2) reduced mod poly, for multiplication
        powers = []
        current = [-c for c in self.poly[:-1]]
        powers.append(tuple(current))
        for _ in range(self.degree - 2):
            shifted = [0] + current[:-1]
            top = current[-1]
            current = [s - top * self.poly[i] for i, s in enumerate(shifted)]
            powers.append(tuple(current))
        self._powers = tuple(powers)
        # integer bracket (lo, hi, scale) of alpha, and the balls built from it
        self._bracket = _integer_bracket(lo, hi)
        self._balls = []

    def key(self):
        return (self.poly, self.iso)

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField) and self.key() == other.key())

    def __hash__(self):
        return hash(("NumberField", self.key()))

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
        # irreducible, so no rational root: the value at the midpoint is nonzero
        if (homogeneous_eval(self.poly, mid, scale) > 0) == (self._sign_lo > 0):
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
        irrational part, by integer balls of doubling precision.  Alpha is no
        root of a nonzero vector of lower degree than its irreducible
        polynomial, so some precision decides."""
        level = 0
        while True:
            lo, hi = self.ball(vec, level)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            level += 1

    def alpha(self):
        return _scalar(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        vec += [Fraction(0)] * (self.degree - len(vec))
        return Scalar(self, tuple(vec))

    def reduce(self, raw):
        """Reduce an integer product vector of length 2*degree-1 mod the polynomial."""
        degree = self.degree
        out = raw[:degree]
        for c, power in zip(raw[degree:], self._powers):
            if c:
                for i, p in enumerate(power):
                    out[i] += c * p
        return tuple(out)


def _coefficient_text(n, den):
    """str(Fraction(n, den))."""
    g = gcd(n, den)
    return str(n // g) if g == den else "%d/%d" % (n // g, den // g)


class Scalar:
    """Exact number: a rational, or an element of one NumberField context.

    Stored as ``field`` (None for a rational), an integer vector ``num`` and
    a positive integer ``den`` in the canonical form of the module
    docstring: gcd(den, *num) = 1, a field element holds a full-length
    vector, and one whose higher coefficients all vanish is the rational.
    The hash is that of ``(num, den)``, so equal values hash equally and
    orbit lookups behave; no report order reads it (see
    ``test_report_bytes_read_no_scalar_hash``).  Immutable; the hash and
    the text are computed on first use and kept in ``_hash`` and ``_text``
    (None until then).  ``Scalar(field, coeffs)`` builds one from rational
    coefficients.
    """

    __slots__ = ("field", "num", "den", "_hash", "_text")

    def __init__(self, field, coeffs):
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = lcm(*[d for _, d in ratios])
        # each coefficient is in lowest terms, so den and the vector are coprime
        _fill(self, field, tuple([n * (den // d) for n, d in ratios]), den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- classification ---------------------------------------------------

    @property
    def is_rational(self):
        return self.field is None

    def as_fraction(self):
        if self.field is not None:
            raise ValueError("not a rational scalar")
        return Fraction(self.num[0], self.den)

    @property
    def coeffs(self):
        """The rational coefficient vector, built on each read."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(self.field, tuple([-n for n in self.num]), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, True)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _sum(other, self, True)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        fa, fb = self.field, other.field
        if fa is None or fb is None:
            # a rational n/d times a scalar X/e by cross gcds, as Fraction
            # multiplies: n and e are coprime to X and d after them, so the
            # product is in lowest terms
            c, x = (self, other) if fa is None else (other, self)
            n, d = c.num[0], c.den
            if n == 0:
                return ZERO
            if n == d:
                return x
            g1 = gcd(n, x.den)
            g2 = gcd(d, *x.num)
            n //= g1
            num = tuple([n * (m // g2) for m in x.num])
            return _scalar(x.field, num, (d // g2) * (x.den // g1))
        field, a, b = _join(self, other)
        raw = [0] * (2 * field.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        num, den = field.reduce(raw), self.den * other.den
        g = gcd(den, *num)
        if g != 1:
            num, den = tuple([n // g for n in num]), den // g
        return _scalar(field, num, den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("division by zero scalar")
        n, d = self.num[0], self.den
        if self.field is None:
            return _scalar(None, (d,), n) if n > 0 else _scalar(None, (-d,), -n)
        g = poly_trim(self.num)
        m = self.field.poly
        # extended Euclid over Q[x]: s*g + t*m = r
        r0, r1 = g, poly_trim(m)
        s0, s1 = (Fraction(1),), ()
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        # num * s0 = r0 modulo the polynomial, and r0 is a nonzero constant
        # because the polynomial is irreducible, so den / num = den * s0 / r0
        unit = Fraction(r0[0])
        return self.field.element([Fraction(c) * d / unit for c in s0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
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
        return self.field is None and self.num[0] == 0

    def sign(self):
        if self.field is None:
            n = self.num[0]
            return (n > 0) - (n < 0)
        return self.field.sign_of(self.num)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        fa, fb = self.field, other.field
        # canonical form: a rational never equals an irrational field element
        if fa is not fb and (fa is None or fb is None or fa != fb):
            return False
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def compare(self, other):
        coerced = _coerce(other)
        if coerced is None:
            raise TypeError("cannot compare Scalar with %r" % (other,))
        other = coerced
        da, db = self.den, other.den
        if self.field is None and other.field is None:
            d = self.num[0] * db - other.num[0] * da
            return (d > 0) - (d < 0)
        # the cross-multiplied difference: a positive multiple of the value
        field, a, b = _join(self, other)
        diff = [x * db - y * da for x, y in zip(a, b)]
        if any(diff[1:]):
            return field.sign_of(diff)
        d = diff[0]
        return (d > 0) - (d < 0)

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
        den = self.den
        if self.field is None:
            return self.num[0] // den
        level = 0
        while True:
            lo, hi = self.field.ball(self.num, level)
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
            value = self.as_fraction()
            return value, value
        g = poly_trim(self.num)
        field = self.field
        lo, hi, scale = _integer_bracket(*field.iso)
        while True:
            # interval Horner over [lo/scale, hi/scale] of the element times unit
            mn, mx = _interval_eval(g, lo, hi, scale)
            unit = self.den * scale ** (len(g) - 1)
            if (mx - mn) * tol.denominator <= tol.numerator * unit:
                return Fraction(mn, unit), Fraction(mx, unit)
            lo, hi, scale = field._halve(lo, hi, scale)

    # -- text forms ----------------------------------------------------------

    def text(self):
        text = self._text
        if text is None:
            text = self._render_text()
            object.__setattr__(self, "_text", text)
        return text

    def _render_text(self):
        field, den = self.field, self.den
        if field is None:
            n = self.num[0]
            return str(n) if den == 1 else "%d/%d" % (n, den)
        try:
            head = field._text_head
        except AttributeError:
            # the text up to the coefficients depends on the field alone
            head = field._text_head = "poly:[%s]; iso:[%s,%s]; elem:[" % (
                ",".join(map(str, field.poly)), field.iso[0], field.iso[1],
            )
        return head + ",".join([_coefficient_text(c, den) for c in self.num]) + "]"

    def __repr__(self):
        return "Scalar(%s)" % self.text()


_new = object.__new__
_set = object.__setattr__


def _fill(x, field, num, den):
    """Store num/den over field in x, collapsing a field element with
    vanishing higher coefficients to the rational; gcd(den, *num) = 1."""
    if field is not None and not any(num[1:]):
        field, num = None, num[:1]
    _set(x, "field", field)
    _set(x, "num", num)
    _set(x, "den", den)
    _set(x, "_hash", None)
    _set(x, "_text", None)
    return x


def _scalar(field, num, den):
    """The Scalar num/den over field (None for Q), for an int tuple num and
    den > 0 with gcd(den, *num) = 1."""
    return _fill(_new(Scalar), field, num, den)


def _coerce(x):
    """x as a Scalar when it is a Scalar, an int or a Fraction, else None."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        n, d = x.as_integer_ratio()
        return _scalar(None, (n,), d)
    return None


def _join(a, b):
    """(field, vector of a, vector of b) over the common field context,
    lifting a rational operand; distinct fields are an error.  A field
    element is always full length, so only a rational is padded."""
    fa, fb = a.field, b.field
    if fa is fb:
        return fa, a.num, b.num
    if fa is None:
        return fb, a.num + (0,) * (fb.degree - 1), b.num
    if fb is None:
        return fa, a.num, b.num + (0,) * (fa.degree - 1)
    if fa != fb:
        raise MixedFieldContexts(
            "operands live in different number fields: %r vs %r" % (fa, fb)
        )
    return fa, a.num, b.num


def _sum(x, y, subtract):
    """x + y, or x - y when ``subtract``.  With g = gcd(d_x, d_y), the
    cross sum t over d_x * d_y / g shares with that denominator exactly
    gcd(g, *t), as for Fraction addition, so every gcd has an operand no
    larger than the smaller denominator."""
    dx, dy = x.den, y.den
    g = gcd(dx, dy)
    s, r = dx // g, dy // g
    if x.field is None and y.field is None:
        nx, ny = x.num[0], y.num[0]
        t = nx * r - ny * s if subtract else nx * r + ny * s
        if g != 1:
            g2 = gcd(t, g)
            if g2 != 1:
                return _scalar(None, (t // g2,), s * (dy // g2))
        return _scalar(None, (t,), s * dy)
    field, a, b = _join(x, y)
    if subtract:
        t = [m * r - n * s for m, n in zip(a, b)]
    else:
        t = [m * r + n * s for m, n in zip(a, b)]
    if g != 1:
        g2 = gcd(g, *t)
        if g2 != 1:
            return _scalar(field, tuple([c // g2 for c in t]), s * (dy // g2))
    return _scalar(field, tuple(t), s * dy)


ZERO = _scalar(None, (0,), 1)
ONE = _scalar(None, (1,), 1)


def rational(p, q=1):
    n, d = Fraction(p, q).as_integer_ratio()
    return _scalar(None, (n,), d)


def as_scalar(x, field=None):
    """Coerce ints, Fractions, and Scalars; ``field`` only fills in context checks."""
    if isinstance(x, str):
        return scalar_from_text(x, field)
    coerced = _coerce(x)
    if coerced is None:
        raise TypeError("cannot interpret %r as a Scalar" % (x,))
    return coerced


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
    """Integers lo <= x * 2^64 <= hi for a Scalar, from the 64-bit ball, or
    from a finer ball when the coefficients are far larger than the value."""
    den = x.den
    if x.field is None:
        lo = (x.num[0] << _BALL_BITS) // den
        return lo, lo + 1
    lo, hi = x.field.ball(x.num, 0)
    if hi - lo > den << _KEY_WIDTH_BITS:
        # the ball is about max |num| / den units wide: take it at a
        # precision with that many bits (and a few) beyond 2^64
        excess = max(abs(n).bit_length() for n in x.num) - den.bit_length() + _KEY_SLACK_BITS
        level = 1
        while (_BALL_BITS << level) - _BALL_BITS < excess:
            level += 1
        lo, hi = x.field.ball(x.num, level)
        den <<= (_BALL_BITS << level) - _BALL_BITS
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
        # the text of a scalar of `field` names field.key(): reuse the field
        if field is not None and (tuple(poly), tuple(iso)) == field.key():
            return field.element(elem)
        parsed = NumberField(poly, (iso[0], iso[1]))
        if field is not None and field != parsed:
            raise MixedFieldContexts("scalar text declares a different field")
        return parsed.element(elem)
    n, d = Fraction(text).as_integer_ratio()
    return _scalar(None, (n,), d)
