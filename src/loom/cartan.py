"""Affine Cartan data for the untwisted types and exact weight arithmetic.

Weights are stored by their coefficients over the affine fundamental
weights, together with an optional exact coefficient of the null root.
In that basis a coroot pairing is a coordinate read and the null-root
direction stays explicit.  A weight with no null-root coefficient lives
in the classical quotient lattice; operations refuse to mix the two
ambients silently.

Every numeric entry is an exact rational.  Marks, comarks and the
symmetrizers are recomputed from the affine matrix itself rather than
copied from tables, so a transcription error in the type data cannot
survive construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm


class CartanError(ValueError):
    """Invalid type/rank combination or inconsistent Cartan data."""


class AmbientError(ValueError):
    """Classical and affine quantities were mixed in one expression."""


SUPPORTED_TYPES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


@dataclass(frozen=True, slots=True)
class Weight:
    """Exact weight vector; ``coords[i]`` pairs with the i-th simple coroot.

    ``delta`` is the null-root coefficient, or ``None`` for a weight of the
    classical quotient.  Weights sort lexicographically on their exact
    coordinates; crystal nodes are emitted in the order of their
    :class:`~loom.paths.Stretch` keys, which ``tests/test_keys.py`` checks
    against this order.
    """

    coords: tuple[Fraction, ...]
    delta: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(frac(c) for c in self.coords))
        if self.delta is not None:
            object.__setattr__(self, "delta", frac(self.delta))

    def _order_key(self):
        return (self.coords, self.delta is not None, self.delta or Fraction(0))

    def __lt__(self, other: "Weight"):
        return self._order_key() < other._order_key()

    @property
    def is_classical(self) -> bool:
        return self.delta is None

    @property
    def is_integral(self) -> bool:
        if any(c.denominator != 1 for c in self.coords):
            return False
        return self.delta is None or self.delta.denominator == 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords) and (self.delta is None or self.delta == 0)

    def classical(self) -> "Weight":
        """Image under the projection that kills the null root."""
        if self.delta is None:
            raise AmbientError("weight is already classical")
        return _weight(self.coords, None)

    def _check_compatible(self, other: "Weight"):
        if len(self.coords) != len(other.coords):
            raise AmbientError("weights of different ranks")
        if (self.delta is None) != (other.delta is None):
            raise AmbientError("cannot mix classical and affine weights")

    def __add__(self, other: "Weight") -> "Weight":
        self._check_compatible(other)
        d = None if self.delta is None else self.delta + other.delta
        return _weight(tuple(a + b for a, b in zip(self.coords, other.coords)), d)

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_compatible(other)
        d = None if self.delta is None else self.delta - other.delta
        return _weight(tuple(a - b for a, b in zip(self.coords, other.coords)), d)

    def __neg__(self) -> "Weight":
        return _weight(tuple(-c for c in self.coords), None if self.delta is None else -self.delta)

    def scale(self, c) -> "Weight":
        c = frac(c)
        return _weight(
            tuple(c * x for x in self.coords),
            None if self.delta is None else c * self.delta,
        )

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __repr__(self):
        body = ",".join(str(c) for c in self.coords)
        if self.delta is None:
            return "Weight(%s)" % body
        return "Weight(%s | %sd)" % (body, self.delta)


def _weight(coords: tuple, delta) -> Weight:
    """A weight from coordinates that are already Fractions, skipping the checks."""
    w = object.__new__(Weight)
    for name, value in (("coords", coords), ("delta", delta)):
        object.__setattr__(w, name, value)
    return w


def _finite_matrix(label: str, rank: int) -> list[list[int]]:
    """Cartan matrix of the finite type, rows indexed by coroots."""
    if label == "A":
        if rank < 1:
            raise CartanError("type A needs rank >= 1")
        edges = [(k, k + 1) for k in range(rank - 1)]
        special = {}
    elif label == "B":
        if rank < 2:
            raise CartanError("type B needs rank >= 2")
        edges = [(k, k + 1) for k in range(rank - 1)]
        special = {(rank - 1, rank - 2): -2}
    elif label == "C":
        if rank < 2:
            raise CartanError("type C needs rank >= 2")
        edges = [(k, k + 1) for k in range(rank - 1)]
        special = {(rank - 2, rank - 1): -2}
    elif label == "D":
        if rank < 4:
            raise CartanError("type D needs rank >= 4")
        edges = [(k, k + 1) for k in range(rank - 2)] + [(rank - 3, rank - 1)]
        special = {}
    elif label in ("E6", "E7", "E8"):
        want = int(label[1])
        if rank != want:
            raise CartanError("type %s needs rank %d" % (label, want))
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        for k in range(5, rank - 1):
            edges.append((k, k + 1))
        special = {}
    elif label == "F4":
        if rank != 4:
            raise CartanError("type F4 needs rank 4")
        edges = [(0, 1), (1, 2), (2, 3)]
        special = {(2, 1): -2}
    elif label == "G2":
        if rank != 2:
            raise CartanError("type G2 needs rank 2")
        edges = [(0, 1)]
        special = {(1, 0): -3}
    else:
        raise CartanError("unsupported type %r; expected one of %s" % (label, SUPPORTED_TYPES))

    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        mat[i][j] = -1
        mat[j][i] = -1
    for (i, j), v in special.items():
        mat[i][j] = v
    return mat


def _symmetrizers(mat: list[list[int]]) -> list[int]:
    """Coprime positive integers d with d_i a_ij symmetric.

    The Dynkin diagram must be connected, which holds for every finite and
    affine matrix built here.
    """
    n = len(mat)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and mat[i][j] != 0:
                ratio = Fraction(mat[i][j], mat[j][i])
                val = d[i] * ratio
                if d[j] is None:
                    d[j] = val
                    stack.append(j)
                elif d[j] != val:
                    raise CartanError("matrix is not symmetrizable")
    if any(x is None for x in d):
        raise CartanError("Dynkin diagram is not connected")
    denom = lcm(*[x.denominator for x in d])
    ints = [int(x * denom) for x in d]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if any(x <= 0 for x in ints):
        raise CartanError("symmetrizers are not positive")
    for i in range(n):
        for j in range(n):
            if ints[i] * mat[i][j] != ints[j] * mat[j][i]:
                raise CartanError("symmetrizer check failed")
    return ints


def _positive_roots(mat: list[list[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by reflection closure."""
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


def _highest_root(mat: list[list[int]]) -> tuple[int, ...]:
    roots = _positive_roots(mat)
    best = max(roots, key=sum)
    ties = [r for r in roots if sum(r) == sum(best)]
    if len(ties) != 1:
        raise CartanError("highest root is not unique")
    return best


def solve_square(matrix, rhs) -> list:
    """The one solution of a square system by exact Gauss–Jordan on row copies.

    Any field with a falsy zero and ``/`` works: ``Fraction``, ``QScalar``.
    A singular matrix raises ArithmeticError.
    """
    n = len(matrix)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((k for k in range(col, n) if a[k][col]), None)
        if piv is None:
            raise ArithmeticError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for k in range(n):
            if k != col and a[k][col]:
                f = a[k][col]
                a[k] = [x - f * y for x, y in zip(a[k], a[col])]
    return [a[k][n] for k in range(n)]


def _primitive_null_vector(mat) -> list[int]:
    """The positive primitive integer kernel vector of an affine integer matrix.

    Node 0 gets one and the nonsingular finite block gives the rest; the
    caller checks row 0.
    """
    vec = [Fraction(1)] + solve_square(
        [[Fraction(x) for x in row[1:]] for row in mat[1:]], [Fraction(-row[0]) for row in mat[1:]]
    )
    denom = lcm(*[v.denominator for v in vec])
    ints = [int(v * denom) for v in vec]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if any(v <= 0 for v in ints):
        raise CartanError("kernel vector is not positive")
    return ints


@dataclass(frozen=True)
class AffineCartan:
    """Cartan data of an untwisted affine type, indices 0..rank."""

    label: str
    rank: int
    matrix: tuple[tuple[int, ...], ...]
    marks: tuple[int, ...]
    comarks: tuple[int, ...]
    sym: tuple[int, ...]
    # (affine, classical) simple root per index, built once
    _roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        roots = [Weight(tuple(row[j] for row in self.matrix), int(j == 0)) for j in self.indices]
        object.__setattr__(self, "_roots", tuple((r, r.classical()) for r in roots))

    @property
    def indices(self) -> range:
        """The affine index set, node 0 first."""
        return range(self.rank + 1)

    @property
    def name(self) -> str:
        if self.label[-1].isdigit():
            return self.label
        return "%s%d" % (self.label, self.rank)

    # -- weight constructors -------------------------------------------

    def zero_weight(self, classical: bool = True) -> Weight:
        d = None if classical else Fraction(0)
        return Weight((Fraction(0),) * (self.rank + 1), d)

    def fundamental_weight(self, i: int) -> Weight:
        """The i-th affine fundamental weight, null-root coefficient zero."""
        self._check_index(i)
        return Weight(
            tuple(Fraction(1 if j == i else 0) for j in self.indices),
            Fraction(0),
        )

    def null_root(self) -> Weight:
        return Weight((Fraction(0),) * (self.rank + 1), Fraction(1))

    def classical_fundamental(self, i: int, classical: bool = True) -> Weight:
        """Level-zero lift of the i-th finite fundamental weight, 1 <= i <= rank."""
        if not 1 <= i <= self.rank:
            raise CartanError("classical fundamental index must be in 1..rank")
        coords = [Fraction(0)] * (self.rank + 1)
        coords[i] = Fraction(1)
        coords[0] = Fraction(-self.comarks[i])
        return Weight(tuple(coords), None if classical else Fraction(0))

    def simple_root(self, j: int) -> Weight:
        """alpha_j in the fundamental-weight basis, with its null-root part."""
        self._check_index(j)
        return self._roots[j][0]

    def highest_finite_root(self) -> Weight:
        """theta as a classical weight; the node-0 root projects to -theta."""
        return -self.simple_root(0).classical()

    # -- pairings and reflections --------------------------------------

    def _check_index(self, i: int):
        if not 0 <= i <= self.rank:
            raise CartanError("index %r out of range 0..%d" % (i, self.rank))

    def pairing(self, i: int, w: Weight) -> Fraction:
        """Pairing of the i-th simple coroot with w; blind to the null root."""
        self._check_index(i)
        return w.coords[i]

    def level(self, w: Weight) -> Fraction:
        return sum((self.comarks[i] * w.coords[i] for i in self.indices), Fraction(0))

    def reflect(self, i: int, w: Weight) -> Weight:
        self._check_index(i)
        if w.coords[i] == 0:
            return w
        return w - w.coords[i] * self._roots[i][1 if w.is_classical else 0]

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {
            "type": self.label,
            "rank": self.rank,
            "matrix": [list(row) for row in self.matrix],
            "marks": list(self.marks),
            "comarks": list(self.comarks),
            "d": list(self.sym),
        }

    @staticmethod
    def from_json(obj) -> "AffineCartan":
        cartan = build_cartan(obj["type"], obj["rank"])
        if cartan.to_json() != obj:
            raise CartanError("serialized Cartan data does not match its type")
        return cartan


def build_cartan(label: str, rank: int) -> AffineCartan:
    """Construct the affine Cartan data for an untwisted type.

    The affine matrix is assembled from the finite matrix and the highest
    finite root.  Marks and comarks are the primitive positive kernel
    vectors of the matrix and its transpose: node 0 gets one and
    :func:`solve_square` solves the finite block for the rest.  Every row of
    both null identities and both node-0 entries are then checked.
    """
    if not isinstance(rank, int):
        raise CartanError("rank must be an integer")
    fin = _finite_matrix(label, rank)
    fin_sym = _symmetrizers(fin)
    theta = _highest_root(fin)

    # (theta, theta)/2 in the normalization (alpha_i, alpha_j) = d_i a_ij.
    theta_norm2 = sum(
        theta[i] * theta[j] * fin_sym[i] * fin[i][j] for i in range(rank) for j in range(rank)
    )
    d_theta = Fraction(theta_norm2, 2)
    theta_covec = [Fraction(theta[i] * fin_sym[i], 1) / d_theta for i in range(rank)]
    if any(c.denominator != 1 for c in theta_covec):
        raise CartanError("highest coroot coefficients are not integral")

    n = rank + 1
    aff = [[0] * n for _ in range(n)]
    aff[0][0] = 2
    for i in range(rank):
        for j in range(rank):
            aff[i + 1][j + 1] = fin[i][j]
    for j in range(rank):
        aff[0][j + 1] = -sum(int(theta_covec[i]) * fin[i][j] for i in range(rank))
        aff[j + 1][0] = -sum(theta[i] * fin[j][i] for i in range(rank))

    marks = _primitive_null_vector(aff)
    comarks = _primitive_null_vector(list(zip(*aff)))
    sym = _symmetrizers(aff)

    if marks[0] != 1 or comarks[0] != 1:
        raise CartanError("node-0 mark and comark must equal one")
    for i in range(n):
        if sum(aff[i][j] * marks[j] for j in range(n)) != 0:
            raise CartanError("marks are not a kernel vector")
        if sum(comarks[j] * aff[j][i] for j in range(n)) != 0:
            raise CartanError("comarks are not a kernel vector")
    for i in range(n):
        for j in range(n):
            if i != j and (aff[i][j] > 0 or (aff[i][j] == 0) != (aff[j][i] == 0)):
                raise CartanError("affine matrix shape check failed")

    return AffineCartan(
        label=label,
        rank=rank,
        matrix=tuple(tuple(row) for row in aff),
        marks=tuple(marks),
        comarks=tuple(comarks),
        sym=tuple(sym),
    )
