"""Exact arithmetic in the field of rational functions of one variable.

A nonzero element is ``scale * q**power * num / den``: a rational scale
(an ``int`` when it is integral, else a ``Fraction``, never a float), an
integer power, and coprime primitive integer polynomials with positive
leading coefficients and nonzero constant terms (zero is scale 0, num ()).
Powers of q and rational content never reach a gcd, and a Laurent
polynomial has ``den == (1,)``.  Since both operands are reduced, a gcd is
taken only where a common factor can appear (Henrici's rule, JACM 3,
1956): a product or quotient cancels the two cross gcds, each numerator
against the other denominator; a sum cancels its numerator against the
gcd of the denominators, and not at all when they are coprime.  A gcd
with a one-term operand is 1 and is not computed, nor is any gcd of a
product by a monomial c q^k, and a scale 1 is not multiplied.  The only
analytic operation the library needs is behaviour at the origin: the
valuation, and exact evaluation when it is non-negative.

One pass of the 25 sl2 shapes repeats 83% of its multi-term gcd pairs (the
denominators are products of a few 1 - q^2k), so ``_gcd_cofactors`` keeps
each checked result in an unbounded memo, 3,005 pairs after it (1.7 MB: what
clearing it frees, under tracemalloc on CPython 3.11).

A gcd is found by the heuristic GCDHEU (B. Char, K. Geddes, G. Gonnet,
J. Symbolic Comput. 7, 1989): evaluate both polynomials at an integer
xi >= 2 min(|a|, |b|) + 2, take the integer gcd of the two values and read
a candidate off its balanced base-xi digits.  A candidate whose primitive
part divides both operands exactly is their gcd, and the two divisions
give the cofactors; a constant candidate proves them coprime.  After a
few rejected rounds with growing xi the primitive pseudo-remainder
sequence decides, so every gcd is exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cartan import frac

# Integer polynomials are tuples of ints, lowest degree first, trimmed.


def _trim(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs)[:n]


def _iadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] += y
    return _trim(out)


def _imul(a, b):
    if not a or not b:
        return ()
    if a == (1,):
        return b
    if b == (1,):
        return a
    out = [0] * (len(a) + len(b) - 1)
    # most operands are polynomials in q^2: visit only the nonzero terms of b
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return _trim(out)


def _scale(x):
    """The rational x as a scale: an int when it is integral, else the Fraction."""
    return x.numerator if x.denominator == 1 else x


def _iscale(a, c: int):
    return a if c == 1 else tuple(x * c for x in a)  # c != 0: nothing to trim


def _unit_split(a):
    """(c, p) with a == c * p, p primitive with positive leading coefficient."""
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return c, (a if c == 1 else tuple(x // c for x in a))


def _primitive(a):
    return _unit_split(a)[1] if a else ()


def _strip(a):
    """(k, b) with a == q**k * b and b[0] != 0; a must be nonzero."""
    k = 0
    while a[k] == 0:
        k += 1
    return k, a[k:]


def _pseudo_rem(a, b):
    """A remainder of a by b over the integers, up to a nonzero factor."""
    a = list(a)
    lead, m = b[-1], len(b) - 1
    for top in range(len(a) - 1, m - 1, -1):
        c = a[top]
        if not c:
            continue
        if c % lead:
            # scaling by the leading coefficient keeps the elimination integral
            a[:top] = [lead * x for x in a[:top]]
            c *= lead
        c //= lead
        shift = top - m
        for k in range(m):
            a[shift + k] -= c * b[k]
    return _trim(a[:m])


def _igcd_poly(a, b):
    """Primitive gcd of integer polynomials, positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a if a else ()


def _idivexact(a, b):
    """a / b for integer polynomials, or None when b does not divide a."""
    if not a:
        return ()
    n, m, lead = len(a) - len(b), len(b) - 1, b[-1]
    if n < 0:
        return None
    out = [0] * (n + 1)
    rem = list(a)
    for shift in range(n, -1, -1):
        c, r = divmod(rem[shift + m], lead)
        if r:
            return None
        if c:
            out[shift] = c
            for k in range(m):
                rem[shift + k] -= c * b[k]
    return None if any(rem[:m]) else tuple(out)


def _ieval(a, xi: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _balanced_digits(h: int, xi: int):
    """The polynomial whose value at xi is h, digits in (-xi/2, xi/2]."""
    out = []
    while h:
        d = h % xi
        if d > xi // 2:
            d -= xi
        out.append(d)
        h = (h - d) // xi
    return tuple(out)


def _divides(g, a, b):
    """(g, a / g, b / g) when g divides both a and b, else None."""
    if g == (1,):
        return g, a, b
    qa = _idivexact(a, g)
    qb = None if qa is None else _idivexact(b, g)
    return None if qb is None else (g, qa, qb)


_HEU_ROUNDS = 6


def _cancel(a, b):
    """(g, a / g, b / g), g = gcd(a, b); a, b primitive, constant terms nonzero."""
    if len(a) == 1 or len(b) == 1:
        return (1,), a, b
    if a == b:
        return a, (1,), (1,)
    return _gcd_cofactors(a, b)


@lru_cache(maxsize=None)
def _gcd_cofactors(a, b):
    """_cancel on two multi-term operands; only checked results are kept."""
    # heuristic gcd: for xi >= 2 min(|a|, |b|) + 2, a candidate read off
    # gcd(a(xi), b(xi)) that divides both a and b is their gcd
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_ROUNDS):
        h = gcd(_ieval(a, xi), _ieval(b, xi))
        out = _divides(_primitive(_balanced_digits(h, xi)), a, b)
        if out:
            return out
        xi = xi * 73794 // 27011
    out = _divides(_igcd_poly(a, b), a, b)
    if out is None:
        raise ArithmeticError("polynomial gcd does not divide its operands")
    return out


class QScalar(NamedTuple):
    """Rational function in q over the rationals, in canonical form.

    A ``NamedTuple``: immutable, with ``==`` and ``hash`` on the four fields;
    ``__rmul__`` refuses the tuple repetition ``2 * x``.
    """

    scale: int | Fraction
    power: int
    num: tuple[int, ...]
    den: tuple[int, ...]

    @staticmethod
    def const(x) -> "QScalar":
        x = _scale(frac(x))
        return QScalar(x, 0, (1,), (1,)) if x else Q_ZERO

    @staticmethod
    @lru_cache(maxsize=None)
    def q_power(k: int) -> "QScalar":
        return QScalar(1, k, (1,), (1,))

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other: "QScalar") -> "QScalar":
        if not self.num:
            return other
        if not other.num:
            return self
        # the lcm of the denominators is g * d1 * d2
        g, d1, d2 = _cancel(self.den, other.den)
        power = min(self.power, other.power)
        p, r = self.scale, other.scale
        pd, rd = p.denominator, r.denominator
        num = _iadd(
            _iscale((0,) * (self.power - power) + _imul(self.num, d2),
                    p.numerator * rd),
            _iscale((0,) * (other.power - power) + _imul(other.num, d1),
                    r.numerator * pd),
        )
        if not num:
            return Q_ZERO
        k, num = _strip(num)
        c, num = _unit_split(num)
        # a common factor of num and d1 * d2 would divide an operand's
        # numerator and denominator, so only g can share one with num
        _, num, g = _cancel(num, g)
        return QScalar(c if pd == rd == 1 else _scale(Fraction(c, pd * rd)),
                       power + k, num, _imul(_imul(d1, d2), g))

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        return QScalar(-self.scale, self.power, self.num, self.den)

    def _times(self, scale: int | Fraction, power: int, num, den) -> "QScalar":
        """self * scale * q**power * num / den, the factor in canonical form."""
        if self.scale != 1:
            scale = self.scale if scale == 1 else _scale(scale * self.scale)
        if num == den == (1,):
            num, den = self.num, self.den
        elif self.num != (1,) or self.den != (1,):
            _, n1, d2 = _cancel(self.num, den)
            _, n2, d1 = _cancel(num, self.den)
            num, den = _imul(n1, n2), _imul(d1, d2)
        return QScalar(scale, self.power + power, num, den)

    def __mul__(self, other: "QScalar") -> "QScalar":
        if not self.num or not other.num:
            return Q_ZERO
        return self._times(other.scale, other.power, other.num, other.den)

    def __rmul__(self, other):
        return NotImplemented

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        if not self.num:
            return Q_ZERO
        # through Fraction: 1 / an int scale would be a float
        s = other.scale if other.scale in (1, -1) else _scale(Fraction(1, other.scale))
        return self._times(s, -other.power, other.den, other.num)

    def valuation(self) -> int | None:
        """Order at the origin; None for the zero function."""
        return None if not self.num else self.power

    @property
    def regular_at_zero(self) -> bool:
        return not self.num or self.power >= 0

    def at_zero(self) -> Fraction:
        """Exact value at the origin; defined when the valuation allows it."""
        if not self.num or self.power > 0:
            return Fraction(0)
        if self.power < 0:
            raise ZeroDivisionError("pole at the origin")
        return self.scale * Fraction(self.num[0], self.den[0])

    def coeffs(self):
        """Rational coefficient tuples (num, den) for display and tests."""
        num = (0,) * max(self.power, 0) + self.num
        den = (0,) * max(-self.power, 0) + self.den
        return tuple(self.scale * c for c in num), tuple(Fraction(c) for c in den)

    def __repr__(self):
        if not self.num:
            return "QScalar(0)"

        def poly(cs):
            terms = []
            for k, c in enumerate(cs):
                if c == 0:
                    continue
                if k == 0:
                    terms.append(str(c))
                elif k == 1:
                    terms.append("%s*q" % c if c != 1 else "q")
                else:
                    terms.append("%s*q^%d" % (c, k) if c != 1 else "q^%d" % k)
            return " + ".join(terms) or "0"

        scaled, den = self.coeffs()
        if den == (1,):
            return "QScalar(%s)" % poly(scaled)
        return "QScalar((%s)/(%s))" % (poly(scaled), poly(den))


Q_ZERO = QScalar(0, 0, (), (1,))
Q_ONE = QScalar(1, 0, (1,), (1,))


@lru_cache(maxsize=None)
def qint(m: int) -> QScalar:
    """Balanced integer: (q^m - q^-m)/(q - q^-1)."""
    if m < 0:
        raise ValueError("negative argument")
    return (QScalar.q_power(m) - QScalar.q_power(-m)) / (
        QScalar.q_power(1) - QScalar.q_power(-1)
    )


@lru_cache(maxsize=None)
def qfact(m: int) -> QScalar:
    if m < 0:
        raise ValueError("negative argument")
    if m == 0:
        return Q_ONE
    return qfact(m - 1) * qint(m)


@lru_cache(maxsize=None)
def qbinom(m: int, n: int) -> QScalar:
    if not m >= n >= 0:
        raise ValueError("binomial needs m >= n >= 0")
    return qfact(m) / (qfact(n) * qfact(m - n))
