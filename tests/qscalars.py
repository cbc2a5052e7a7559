"""Test-side constructors and views of ``QScalar``.

``of`` builds an element from its rational coefficient lists, the form
the tests write their references in; ``bar`` substitutes the inverse
variable and ``is_laurent`` reads a trivial denominator.  The library
itself builds its scalars from constants, powers of q and the field
operations.
"""

from fractions import Fraction
from math import lcm

from loom.cartan import frac
from loom.qfield import QScalar, _unit_split


def of(num, den=(1,)) -> QScalar:
    """Build from rational coefficient sequences, lowest degree first."""
    num = [frac(c) for c in num]
    den = [frac(c) for c in den]
    mn = lcm(*[c.denominator for c in num]) if num else 1
    md = lcm(*[c.denominator for c in den]) if den else 1
    return QScalar._make(Fraction(md, mn), [int(c * mn) for c in num],
                         [int(c * md) for c in den])


def bar(x: QScalar) -> QScalar:
    """Substitute the inverse variable."""
    if x.is_zero:
        return x
    # reversing keeps both parts primitive and coprime; only signs move
    cn, num = _unit_split(x.num[::-1])
    cd, den = _unit_split(x.den[::-1])
    return QScalar(x.scale * (cn * cd), len(x.den) - len(x.num) - x.power, num, den)


def is_laurent(x: QScalar) -> bool:
    """True when the denominator is a single power of the variable."""
    return x.den == (1,)
