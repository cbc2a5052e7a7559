"""Weight routes that only the tests read.

The library never asks for an affine fundamental weight, the highest
finite root, the level of a weight, or an order on ``Weight`` values;
the tests use them to state expectations by an independent route.
"""

from fractions import Fraction

from loom.cartan import Weight


def fundamental_weight(cartan, i: int) -> Weight:
    """The i-th affine fundamental weight, null-root coefficient zero."""
    cartan._check_index(i)
    return Weight(tuple(Fraction(1 if j == i else 0) for j in cartan.indices), Fraction(0))


def highest_finite_root(cartan) -> Weight:
    """theta as a classical weight; the node-0 root projects to -theta."""
    return -cartan.simple_root(0).classical()


def level(cartan, w: Weight) -> Fraction:
    """Sum over i of comark i times the i-th coordinate of w."""
    return sum((cartan.comarks[i] * w.coords[i] for i in cartan.indices), Fraction(0))


def order_key(w: Weight) -> tuple:
    """Lexicographic on the exact coordinates; classical first on equal coordinates."""
    return (w.coords, w.delta is not None, w.delta or Fraction(0))
