"""Test-side constructors and views of ``QScalar``.

``of`` builds an element from its rational coefficient lists, the form
the tests write their references in, and ``_make`` reduces it to the
canonical form; ``bar`` substitutes the inverse
variable and ``is_laurent`` reads a trivial denominator.  The library
itself builds its scalars from constants, powers of q and the field
operations.
"""

from fractions import Fraction
from math import lcm

from loom.cartan import frac
from loom.qfield import Q_ZERO, QScalar, _cancel, _scale, _strip, _trim, _unit_split


def _make(scale: Fraction, num, den) -> QScalar:
    """Reduce scale * num / den for integer polynomials of any shape."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if scale == 0 or not num:
        return Q_ZERO
    (kn, num), (kd, den) = _strip(num), _strip(den)
    (cn, num), (cd, den) = _unit_split(num), _unit_split(den)
    _, num, den = _cancel(num, den)
    return QScalar(_scale(scale * Fraction(cn, cd)), kn - kd, num, den)


def of(num, den=(1,)) -> QScalar:
    """Build from rational coefficient sequences, lowest degree first."""
    num = [frac(c) for c in num]
    den = [frac(c) for c in den]
    mn = lcm(*[c.denominator for c in num]) if num else 1
    md = lcm(*[c.denominator for c in den]) if den else 1
    return _make(Fraction(md, mn), [int(c * mn) for c in num],
                 [int(c * md) for c in den])


def bar(x: QScalar) -> QScalar:
    """Substitute the inverse variable."""
    if x.is_zero:
        return x
    # reversing keeps both parts primitive and coprime; only signs move
    cn, num = _unit_split(x.num[::-1])
    cd, den = _unit_split(x.den[::-1])
    return QScalar(_scale(x.scale * (cn * cd)), len(x.den) - len(x.num) - x.power, num, den)


def is_laurent(x: QScalar) -> bool:
    """True when the denominator is a single power of the variable."""
    return x.den == (1,)
