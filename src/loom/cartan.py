"""Affine Cartan data for the untwisted types and exact weight arithmetic.

A weight is held as one reduced integer :class:`Stretch`: numerators over
the affine fundamental weights, the null-root numerator last when the
weight is affine, and one common denominator.  In that basis a coroot
pairing is a coordinate read and the null-root direction stays explicit;
sums refuse to mix the two ambients, which the one flag ``affine`` names
here and on paths.  :class:`Weight` is only the named form a user types
and reads: the seeds :meth:`AffineCartan.null_root` and
:meth:`AffineCartan.classical_fundamental` cross from it to a stretch
once, inside this module, and a label renders through :meth:`Stretch.weight`.

Every numeric entry is exact.  :func:`build_cartan` finds the highest
root theta and its coroot theta^vee by a Weyl walk to the dominant chamber
and assembles the affine matrix; :class:`AffineCartan` derives the marks
and comarks from that matrix by one elimination, and the symmetrizers as
comarks over marks, rather than copying them from tables.
:func:`build_cartan` then checks the null identities and the symmetry of
D·A, so a transcription error in the type data cannot survive
construction: every such check raises ``ArithmeticError``, a failed
self-check, while a bad type, rank, matrix shape or index is refused with
``ValueError``.
The simple roots form one integer table that both :meth:`AffineCartan.reflect`
and the root operators of :mod:`loom.paths` read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


# the least rank of each infinite family, and the one rank of each exceptional type
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4}
_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
# the supported types in words, as the --type help and a refused type name them
SUPPORTED_TYPES_TEXT = "one of %s" % ", ".join((*_LEAST_RANK, *_RANK))


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


class Stretch(NamedTuple):
    """The weight ``nums / den`` in lowest terms; null-root entry last when affine.

    The one weight arithmetic: sums, differences, negatives and integer
    multiples are exact reduced results, never tuple concatenation or
    repetition, and sums refuse a mixed ambient or rank.
    """

    nums: tuple[int, ...]
    den: int
    affine: bool

    def weight(self) -> Weight:
        c = tuple(Fraction(x, self.den) for x in self.nums)
        return Weight(c[:-1], c[-1]) if self.affine else Weight(c)

    def __add__(self, other: Stretch, sign: int = 1) -> Stretch:
        if self.affine != other.affine or len(self.nums) != len(other.nums):
            raise ValueError("stretches of different ambients or ranks")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return _stretch([x * a + y * b for x, y in zip(self.nums, other.nums)], den, self.affine)

    def __sub__(self, other: Stretch) -> Stretch:
        return self.__add__(other, -1)

    def __mul__(self, c: int) -> Stretch:
        if not isinstance(c, int):
            raise TypeError("a stretch scales only by an integer, got %r" % (c,))
        return _stretch([x * c for x in self.nums], self.den, self.affine)

    __rmul__ = __mul__

    def __neg__(self) -> Stretch:
        return Stretch(tuple([-x for x in self.nums]), self.den, self.affine)

    def __lt__(self, other: Stretch) -> bool:
        """Weight order by cross-multiplication; classical first on equal coordinates."""
        for a, b in zip(self.nums, other.nums):
            a, b = a * other.den, b * self.den
            if a != b:
                return a < b
        return len(self.nums) < len(other.nums)

    # the other comparisons follow __lt__, not the inherited tuple order
    def __gt__(self, other: Stretch) -> bool:
        return other < self

    def __le__(self, other: Stretch) -> bool:
        return not other < self

    def __ge__(self, other: Stretch) -> bool:
        return not self < other


def _stretch(nums, den: int, affine: bool) -> Stretch:
    g = gcd(den, *nums)
    return Stretch(tuple(x // g for x in nums), den // g, affine)


@dataclass(frozen=True, slots=True)
class Weight:
    """A weight by name: ``coords[i]`` pairs with the i-th simple coroot.

    ``delta`` is the null-root coefficient, or ``None`` for a weight of the
    classical quotient.  This is the form a user types and reads, with no
    order or arithmetic of its own: every sum, multiple, reflection and
    comparison runs on its :meth:`stretch`.
    """

    coords: tuple[Fraction, ...]
    delta: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(frac(c) for c in self.coords))
        if self.delta is not None:
            object.__setattr__(self, "delta", frac(self.delta))

    def stretch(self) -> Stretch:
        """The reduced integer form, read once where a seed enters the arithmetic."""
        c = self.coords if self.delta is None else self.coords + (self.delta,)
        den = lcm(*(x.denominator for x in c))
        return Stretch(tuple(x.numerator * den // x.denominator for x in c), den,
                       self.delta is not None)

    def __repr__(self):
        body = ",".join(str(c) for c in self.coords)
        if self.delta is None:
            return "Weight(%s)" % body
        return "Weight(%s | %sd)" % (body, self.delta)


def _finite_matrix(label: str, rank: int) -> list[list[int]]:
    """Cartan matrix of the finite type, rows indexed by coroots.

    The diagram is the chain 0 - 1 - ... - (rank-1); D forks its last node
    off node rank-3, E takes node 1 out of the chain and branches it off
    node 3, and each non-simply-laced type sets one ``special`` entry.
    """
    if label in _LEAST_RANK:
        if rank < _LEAST_RANK[label]:
            raise ValueError("type %s needs rank >= %d" % (label, _LEAST_RANK[label]))
    elif label in _RANK:
        if rank != _RANK[label]:
            raise ValueError("type %s needs rank %d" % (label, _RANK[label]))
    else:
        raise ValueError("unsupported type %r; expected %s" % (label, SUPPORTED_TYPES_TEXT))
    edges = {(k, k + 1) for k in range(rank - 1)}
    if label == "D":
        edges ^= {(rank - 2, rank - 1), (rank - 3, rank - 1)}
    elif label[0] == "E":
        edges ^= {(0, 1), (1, 2), (0, 2), (1, 3)}
    special = {"B": {(rank - 1, rank - 2): -2}, "C": {(rank - 2, rank - 1): -2},
               "F4": {(2, 1): -2}, "G2": {(1, 0): -3}}
    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        mat[i][j] = mat[j][i] = -1
    for (i, j), v in special.get(label, {}).items():
        mat[i][j] = v
    return mat


def _dominant(mat: list[list[int]], k: int) -> tuple[int, ...]:
    """The dominant root of the Weyl orbit of alpha_k, in simple-root coordinates.

    Reflects in a simple root that pairs negatively until none does; each
    reflection raises the height, so on a finite-type matrix the walk ends.
    """
    root = [int(i == k) for i in range(len(mat))]
    while True:
        for j, row in enumerate(mat):
            pair = sum(x * c for x, c in zip(row, root))
            if pair < 0:
                root[j] -= pair
                break
        else:
            return tuple(root)


def eliminate(matrix) -> list:
    """Exact Gauss–Jordan on row copies of a square matrix, recorded for replay.

    Returns one ``(pivot row, pivot, [(row, factor), ...])`` step per
    column; the pivot choice and every factor depend on the matrix alone.
    Any field with a falsy zero and ``/`` works: ``Fraction``, ``QScalar``.
    A singular matrix raises ArithmeticError.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    steps = []
    for col in range(n):
        piv = next((k for k in range(col, n) if a[k][col]), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        factors = [(k, a[k][col]) for k in range(n) if k != col and a[k][col]]
        for k, f in factors:
            a[k] = [x - f * y for x, y in zip(a[k], a[col])]
        steps.append((piv, pivot, factors))
    return steps


def replay(steps, rhs) -> list:
    """The solution for rhs: the row operations of ``eliminate`` on one column."""
    b = list(rhs)
    for col, (piv, pivot, factors) in enumerate(steps):
        b[col], b[piv] = b[piv], b[col]
        b[col] = b[col] / pivot
        for k, f in factors:
            b[k] = b[k] - f * b[col]
    return b


def _primitive(vec) -> list[int]:
    """The positive primitive integer multiple of a rational vector."""
    den = lcm(*(v.denominator for v in vec))
    g = gcd(*(int(v * den) for v in vec))
    ints = [int(v * den) // g for v in vec]
    if any(v <= 0 for v in ints):
        raise ArithmeticError("kernel vector is not positive")
    return ints


@dataclass(frozen=True)
class AffineCartan:
    """Cartan data of an affine type, indices 0..rank, derived from its matrix.

    One elimination of the finite block A (indices 1..rank) gives the
    columns of A^-1.  The marks are ``[1] + A^-1 (-column 0)`` and the
    comarks ``[1] + A^-T (-row 0)``, each scaled to the primitive positive
    integer vector, and the symmetrizers are the comarks over the marks
    scaled the same way (Kac §6.1).  The caller checks node 0, both kernel
    identities and that the symmetrizers symmetrize the matrix.
    """

    label: str
    rank: int
    matrix: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...] = field(init=False)
    comarks: tuple[int, ...] = field(init=False)
    sym: tuple[int, ...] = field(init=False)
    # alpha_j per index in the fundamental-weight basis, null-root entry last
    roots: tuple = field(init=False, repr=False, compare=False)
    # the invariant form on classical weights, up to a positive factor, on their
    # pairings f with h_1..h_rank: (f, f) ∝ sum_i sym_i f_i (A^-1 f)_i, A the finite block
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(tuple(row) for row in self.matrix)
        n = self.rank
        if len(a) != n + 1 or any(len(row) != n + 1 for row in a):
            raise ValueError("a rank-%d cartan needs a %d x %d matrix" % (n, n + 1, n + 1))
        steps = eliminate([[Fraction(x) for x in row[1:]] for row in a[1:]])
        # cols[j] is column j of A^-1
        cols = [replay(steps, [Fraction(int(k == j)) for k in range(n)]) for j in range(n)]
        marks = _primitive([1] + [sum(-row[0] * col[i] for row, col in zip(a[1:], cols))
                                  for i in range(n)])
        comarks = _primitive([1] + [sum(-x * y for x, y in zip(a[0][1:], col)) for col in cols])
        sym = _primitive([Fraction(c, m) for c, m in zip(comarks, marks)])
        den = lcm(*(x.denominator for col in cols for x in col))
        for name, value in (
                ("matrix", a), ("marks", marks), ("comarks", comarks), ("sym", sym),
                ("roots", (tuple(row[j] for row in a) + (int(j == 0),) for j in self.indices)),
                ("form", (tuple(int(sym[i + 1] * col[i] * den) for col in cols)
                          for i in range(n)))):
            object.__setattr__(self, name, tuple(value))

    @property
    def indices(self) -> range:
        """The affine index set, node 0 first."""
        return range(self.rank + 1)

    @property
    def name(self) -> str:
        if self.label[-1].isdigit():
            return self.label
        return "%s%d" % (self.label, self.rank)

    # -- weights ---------------------------------------------------------

    def null_root(self) -> Stretch:
        return Weight((0,) * (self.rank + 1), 1).stretch()

    def classical_fundamental(self, i: int, *, affine: bool = False) -> Stretch:
        """Level-zero lift of the i-th finite fundamental weight, 1 <= i <= rank."""
        if not 1 <= i <= self.rank:
            raise ValueError("classical fundamental index must be in 1..rank")
        coords = [0] * (self.rank + 1)
        coords[i] = 1
        coords[0] = -self.comarks[i]
        return Weight(tuple(coords), 0 if affine else None).stretch()

    def simple_root(self, j: int) -> Stretch:
        """The classical alpha_j in the fundamental-weight basis."""
        self._check_index(j)
        return Stretch(self.roots[j][:-1], 1, False)

    def _check_index(self, i: int):
        if not 0 <= i <= self.rank:
            raise ValueError("index %r out of range 0..%d" % (i, self.rank))

    def reflect(self, i: int, w: Stretch) -> Stretch:
        """s_i w = w - <h_i, w> alpha_i; a classical w zips away the null-root entry."""
        self._check_index(i)
        if len(w.nums) != self.rank + 1 + w.affine:
            raise ValueError("weight of another rank than the cartan")
        c = w.nums[i]
        if c == 0:
            return w
        return _stretch([x - c * y for x, y in zip(w.nums, self.roots[i])], w.den, w.affine)


def build_cartan(label: str, rank: int) -> AffineCartan:
    """Construct the affine Cartan data for an untwisted type.

    The affine matrix is assembled from the finite matrix, the highest
    finite root theta and its coroot theta^vee: theta is the highest of the
    dominant roots that :func:`_dominant` walks to from the simple roots,
    and theta^vee the walk of the transposed matrix from a simple root
    whose walk ends at theta.  :class:`AffineCartan` derives the marks,
    comarks and symmetrizers from the matrix.  Both node-0 entries, every
    row of both null identities, the symmetry of D·A and the sign pattern
    of the matrix are then checked.
    """
    if not isinstance(rank, int):
        raise ValueError("rank must be an integer")
    fin = _finite_matrix(label, rank)
    walks = [_dominant(fin, k) for k in range(rank)]
    long = max(range(rank), key=lambda k: sum(walks[k]))
    theta, theta_co = walks[long], _dominant([list(col) for col in zip(*fin)], long)

    # row 0 is -theta^vee paired with the simple roots, column 0 the simple coroots on -theta
    aff = [[2] + [-sum(c * row[j] for c, row in zip(theta_co, fin)) for j in range(rank)]]
    aff += [[-sum(t * x for t, x in zip(theta, row))] + row for row in fin]
    cartan = AffineCartan(label, rank, aff)
    marks, comarks, sym, aff, nodes = (cartan.marks, cartan.comarks, cartan.sym, cartan.matrix,
                                       cartan.indices)
    if marks[0] != 1 or comarks[0] != 1:
        raise ArithmeticError("node-0 mark and comark must equal one")
    for i in nodes:
        if sum(aff[i][j] * marks[j] for j in nodes) != 0:
            raise ArithmeticError("marks are not a kernel vector")
        if sum(comarks[j] * aff[j][i] for j in nodes) != 0:
            raise ArithmeticError("comarks are not a kernel vector")
    if any(sym[i] * aff[i][j] != sym[j] * aff[j][i] for i in nodes for j in nodes):
        raise ArithmeticError("matrix is not symmetrizable")
    # with D·A symmetric and D positive, a zero entry has a zero transpose
    if any(aff[i][j] > 0 for i in nodes for j in nodes if i != j):
        raise ArithmeticError("affine matrix shape check failed")
    return cartan
