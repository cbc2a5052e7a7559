"""Weight routes that only the tests read.

The library never asks for an affine fundamental weight, an affine
simple root, the highest finite root, the set of positive roots, the level
of a weight, a rational multiple of a weight or an order on ``Weight``
values; the tests use them to state expectations by an independent route.
A weight here is either a library :class:`~loom.cartan.Stretch` or its
exact coordinates as a tuple of ``Fraction`` values, null-root entry last
when affine.
"""

from fractions import Fraction
from math import lcm

from loom.cartan import Stretch, Weight, frac


def coords(s: Stretch) -> tuple:
    """The exact coordinates of a stretch, null-root entry last when affine."""
    return tuple(Fraction(x, s.den) for x in s.nums)


def stretch_of(v, affine: bool) -> Stretch:
    """The reduced stretch with the exact coordinates v."""
    den = lcm(*(x.denominator for x in v))
    return Stretch(tuple(x.numerator * (den // x.denominator) for x in v), den, affine)


def scaled(c, s: Stretch) -> Stretch:
    """The stretch of c times s for an integer or ``Fraction`` c."""
    return stretch_of(tuple(frac(c) * x for x in coords(s)), s.affine)


def named(v, affine: bool) -> Weight:
    """The named weight with the exact coordinates v."""
    return Weight(v[:-1], v[-1]) if affine else Weight(v)


def fund(cartan, i: int = 1, affine: bool = False) -> Stretch:
    """The level-zero fundamental weight i, as the library's seeds read it."""
    return cartan.classical_fundamental(i, affine=affine)


def fundamental_weight(cartan, i: int) -> Stretch:
    """The i-th affine fundamental weight, null-root coefficient zero."""
    cartan._check_index(i)
    return Stretch(tuple(int(j == i) for j in cartan.indices) + (0,), 1, True)


def affine_root(cartan, j: int) -> Stretch:
    """alpha_j with its null-root entry, as the cartan's root table holds it."""
    cartan._check_index(j)
    return Stretch(cartan.roots[j], 1, True)


def highest_finite_root(cartan) -> Stretch:
    """theta as a classical weight; the node-0 root projects to -theta."""
    return -cartan.simple_root(0)


def positive_roots(mat) -> list[tuple[int, ...]]:
    """Every positive root of a finite-type matrix in simple-root coordinates, by reflection."""
    n = len(mat)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            for j in range(n):
                pair = sum(c[i] * mat[j][i] for i in range(n))
                refl = tuple(c[k] - pair if k == j else c[k] for k in range(n))
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return [c for c in seen if all(x >= 0 for x in c)]


def level(cartan, w: Stretch) -> Fraction:
    """Sum over i of comark i times the i-th coordinate of w."""
    return Fraction(sum(cartan.comarks[i] * w.nums[i] for i in cartan.indices), w.den)


def order_key(w: Weight) -> tuple:
    """Lexicographic on the exact coordinates; classical first on equal coordinates."""
    return (w.coords, w.delta is not None, w.delta or Fraction(0))
