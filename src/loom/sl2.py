"""Exact divided-power computations in tensors of simple rank-one modules.

Basis vectors of a tensor of simple modules are tagged by the divided
powers applied to each highest weight vector.  All actions are exact
over the rational function field; the crystal-limit machinery expresses
a vector in the string basis through the singular vectors, checks that
every coordinate is regular at the origin, and evaluates there.  The
change of basis of each weight level is eliminated once by
``cartan.eliminate``, the exact Gauss–Jordan routine that also derives
the affine marks and comarks, and each vector's coordinates replay that
record (``cartan.replay``).

One :class:`StringLattice` per shape holds the singular vectors, built
from their hypergeometric-style closed form, the string vectors and one
record per weight level; ``crystal_limit_table`` reads the lattice it is
given.  Both Kashiwara operators are one shift loop over the string
parts, ``_kashiwara``, with s - 1 and s + 1.
``tests/test_sl2.py::test_singular_vectors_match_kernel_solve``
re-derives the singular vectors by solving for the kernel of the raising
action, so the two routes police each other.

The lowering divided power ``act_F_div`` is closed form, with Laurent
coefficients from the coproduct (G. Lusztig, Introduction to Quantum
Groups, 1993); the raising ``act_E_div`` applies ``act_E`` r times.
``act_E``, ``act_F`` and ``act_F_div`` read each basis tag's row of
(target tag, structure constant), each constant multiplied out once.  The
one memo of rows, ``_ROWS``, holds the last shape asked for only, so
alternating shapes rebuild their rows.  A planted fault in ``qint`` or
``qbinom`` must patch a row builder or clear ``_ROWS``: a warm memo keeps
the constants built before it.  ``act_F`` keeps its own [s + 1] rows, so
the lattice's iterated route stays apart from the closed form.

The combinatorial tensor rule that the crystal limit is checked against
is not restated here: ``tensor_rule_table`` reads ``crystals.TensorOps``
over the string crystals B(t1) and B(t2).

Every self-check of the oracle, the string peel and a pole at the origin
included, raises ``ArithmeticError``; a refused argument ``ValueError``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cartan import eliminate, replay
from .crystals import CrystalGraph, Node, TensorOps, moves
from .qfield import Q_ONE, Q_ZERO, QScalar, qbinom, qfact, qint


@lru_cache(maxsize=None)
def _tags(shape) -> frozenset:
    """Every tag of shape: the tuples of divided powers 0 <= s <= t."""
    return frozenset(itertools.product(*(range(t + 1) for t in shape)))


def _index_weight(shape, idx) -> int:
    return sum(t - 2 * s for t, s in zip(shape, idx))


@dataclass(frozen=True)
class TensorVector:
    """Vector in a tensor of simple modules, keyed by divided-power tags."""

    shape: tuple[int, ...]
    coords: tuple

    @staticmethod
    def make(shape, coords: dict) -> "TensorVector":
        """The vector of the nonzero ``coords``.  Every key must be a tag of
        ``shape``, a tuple of one divided power 0 <= s <= t per factor t;
        else ``ValueError`` names the first other key in ``coords``' order."""
        shape = tuple(shape)
        outside = coords.keys() - _tags(shape)
        if outside:
            idx = next(idx for idx in coords if idx in outside)
            raise ValueError("index %r outside shape %r" % (idx, shape))
        return TensorVector(shape, tuple(sorted(
            (idx, c) for idx, c in coords.items() if not c.is_zero)))

    @staticmethod
    def basis(shape, idx) -> "TensorVector":
        return TensorVector.make(shape, {tuple(idx): Q_ONE})

    @staticmethod
    def zero(shape) -> "TensorVector":
        return TensorVector.make(shape, {})

    def as_dict(self) -> dict:
        return dict(self.coords)

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if self.shape != other.shape:
            raise ValueError("shapes differ")
        out = self.as_dict()
        for idx, c in other.coords:
            out[idx] = out.get(idx, Q_ZERO) + c
        return TensorVector.make(self.shape, out)

    def __sub__(self, other: "TensorVector") -> "TensorVector":
        return self + other.scale(QScalar.const(-1))

    def scale(self, c: QScalar) -> "TensorVector":
        return TensorVector.make(self.shape, {idx: c * x for idx, x in self.coords})

    def weight(self) -> int:
        """Common weight of the support; fails on mixed support."""
        if self.is_zero:
            raise ValueError("the zero vector has every weight")
        weights = {_index_weight(self.shape, idx) for idx, _ in self.coords}
        if len(weights) != 1:
            raise ValueError("vector is not weight homogeneous")
        return weights.pop()

    def __repr__(self):
        if self.is_zero:
            return "TensorVector(0; shape=%r)" % (self.shape,)
        body = " + ".join("%r*%r" % (c, idx) for idx, c in self.coords)
        return "TensorVector(%s)" % body


# -- generator actions ---------------------------------------------------

# [shape, {(builder, *args): {tag: row}}] for the last shape asked for; a
# builder patched by a test keys rows of its own
_ROWS: list = [None, {}]


def _apply(v: TensorVector, build, *args) -> TensorVector:
    """The sum of c * k at target over v's coordinates c at idx and the
    (target, k) of idx's row, which ``build(v.shape, idx, *args)`` makes."""
    if _ROWS[0] != v.shape:
        _ROWS[:] = v.shape, {}
    rows = _ROWS[1].setdefault((build,) + args, {})
    out: dict = {}
    for idx, c in v.coords:
        row = rows.get(idx)
        if row is None:
            row = rows[idx] = build(v.shape, idx, *args)
        for nidx, k in row:
            out[nidx] = out.get(nidx, Q_ZERO) + c * k
    return TensorVector.make(v.shape, out)


def _e_row(shape, idx) -> tuple:
    """Factor j lowers s to s - 1 with [t - s + 1] q^-(weight right of j)."""
    row = []
    tail_weight = 0
    for j in reversed(range(len(idx))):
        s, t = idx[j], shape[j]
        if s >= 1:
            row.append((idx[:j] + (s - 1,) + idx[j + 1 :],
                        qint(t - s + 1) * QScalar.q_power(-tail_weight)))
        tail_weight += t - 2 * s
    return tuple(row)


def _f_row(shape, idx) -> tuple:
    """Factor j raises s to s + 1 with [s + 1] q^(weight left of j)."""
    row = []
    head_weight = 0
    for j in range(len(idx)):
        s, t = idx[j], shape[j]
        if s + 1 <= t:
            row.append((idx[:j] + (s + 1,) + idx[j + 1 :],
                        qint(s + 1) * QScalar.q_power(head_weight)))
        head_weight += t - 2 * s
    return tuple(row)


def _f_div_row(shape, idx, r) -> tuple:
    """Each spread of r: its q-binomials times its q-power, as in ``act_F_div``."""
    row = []
    room = [range(min(r, t - s) + 1) for t, s in zip(shape, idx)]
    for spread in (p for p in itertools.product(*room) if sum(p) == r):
        coeff, tail, exponent = Q_ONE, r, 0
        for t, s, a in zip(shape, idx, spread):
            tail -= a
            exponent += tail * (t - 2 * s - a)
            if a:
                coeff = coeff * qbinom(s + a, a)
        row.append((tuple(s + a for s, a in zip(idx, spread)),
                    coeff * QScalar.q_power(exponent)))
    return tuple(row)


def act_E(v: TensorVector) -> TensorVector:
    return _apply(v, _e_row)


def act_F(v: TensorVector) -> TensorVector:
    return _apply(v, _f_row)


def act_K(v: TensorVector, power: int = 1) -> TensorVector:
    return TensorVector.make(
        v.shape,
        {
            idx: c * QScalar.q_power(power * _index_weight(v.shape, idx))
            for idx, c in v.coords
        },
    )


def act_F_div(v: TensorVector, r: int) -> TensorVector:
    """F^r / [r]!: iterating the coproduct, factor j takes a_j of r, lifts b_s
    to [s + a_j choose a_j] b_{s + a_j}, and the spread carries
    q^(sum over j < k of a_k (t_j - 2 s_j - a_j)); nothing is divided.
    """
    if r < 0:
        raise ValueError("divided power needs r >= 0")
    return _apply(v, _f_div_row, r)


def act_E_div(v: TensorVector, r: int) -> TensorVector:
    """E^r / [r]!; no library route calls it, the tests and ``perfbench`` do."""
    out = v
    for _ in range(r):
        out = act_E(out)
    return out.scale(Q_ONE / qfact(r)) if r else out


# -- string decomposition and the Kashiwara operators ---------------------


def string_decompose(v: TensorVector) -> list[tuple[int, TensorVector]]:
    """Unique expansion into divided lowering powers of raising-kernel parts.

    Peels the top of the longest string first: the highest surviving
    raising power is a kernel vector up to an invertible balanced-integer
    product, which is divided out exactly.  The reassembly check sums the
    strings that were subtracted; ``tests/test_sl2.py`` recomputes them.
    """
    if v.is_zero:
        return []
    nu = v.weight()
    parts: list[tuple[int, TensorVector]] = []
    peeled = []
    rest = v
    while not rest.is_zero:
        chain = [rest]
        while not chain[-1].is_zero:
            chain.append(act_E(chain[-1]))
        smax = len(chain) - 2
        if parts and smax >= parts[-1][0]:
            raise ArithmeticError("string peeling did not shorten the longest string")
        top = chain[smax]
        mu = nu + 2 * smax
        denom = Q_ONE
        for j in range(1, smax + 1):
            denom = denom * qint(mu - j + 1)
        u = top.scale(Q_ONE / denom)
        if not act_E(u).is_zero:
            raise ArithmeticError("string top is not in the raising kernel")
        parts.append((smax, u))
        peeled.append(act_F_div(u, smax))
        rest = rest - peeled[-1]
        if any(_index_weight(v.shape, idx) != nu for idx, _ in rest.coords):
            raise ArithmeticError("string peeling changed the weight")
    parts.sort()  # the peel shortened every string: this reverses the list
    if sum(reversed(peeled), TensorVector.zero(v.shape)) != v:
        raise ArithmeticError("string decomposition does not reassemble")
    if any(s < max(0, -nu) for s, _ in parts):
        raise ArithmeticError("string decomposition violates the weight bound")
    return parts


def _kashiwara(v: TensorVector, parts, step: int) -> TensorVector:
    """Send F^(s) u to F^(s+step) u on each part; a negative power vanishes."""
    out = TensorVector.zero(v.shape)
    for s, u in parts:
        if s + step >= 0:
            out = out + act_F_div(u, s + step)
    return out


def kashiwara_e(v: TensorVector, parts) -> TensorVector:
    """Send F^(s) u to F^(s-1) u on each part of ``parts``, which must be
    ``string_decompose(v)`` (s = 0 parts vanish)."""
    return _kashiwara(v, parts, -1)


def kashiwara_f(v: TensorVector, parts) -> TensorVector:
    """Send F^(s) u to F^(s+1) u on each part; ``parts`` as for ``kashiwara_e``."""
    return _kashiwara(v, parts, 1)


# -- singular vectors and the string lattice ------------------------------


def singular_coefficient(t1: int, t2: int, r: int, a: int) -> QScalar:
    """Closed-form coordinate of the r-th singular vector at lowering split a."""
    if a == 0:
        return Q_ONE
    sign = QScalar.const((-1) ** a)
    out = sign * QScalar.q_power(a * (t1 + 1 - r))
    for j in range(1, a + 1):
        num = Q_ONE - QScalar.q_power(2 * (t2 - r + j))
        den = Q_ONE - QScalar.q_power(2 * (t1 - j + 1))
        out = out * (num / den)
    return out


def singular_vector(t1: int, t2: int, r: int) -> TensorVector:
    if not 0 <= r <= min(t1, t2):
        raise ValueError("singular index out of range")
    coords = {
        (a, r - a): singular_coefficient(t1, t2, r, a) for a in range(r + 1)
    }
    u = TensorVector.make((t1, t2), coords)
    if not act_E(u).is_zero:
        raise ArithmeticError("closed-form singular vector is not singular")
    return u


def check_shape(t1: int, t2: int) -> None:
    if t1 < 0 or t2 < 0:
        raise ValueError("sl2 shape (%d, %d) needs t1, t2 >= 0" % (t1, t2))


def _clean_class(values: dict):
    """The one key of ``values`` (values at the origin) that is 1, all others 0."""
    live = [key for key, val in values.items() if val != 0]
    if len(live) != 1 or values[live[0]] != 1:
        raise ArithmeticError("origin reduction is not a single class")
    return live[0]


class StringLattice:
    """The divided-power string basis of a two-factor tensor.

    Holds the closed-form singular vectors (``singular``), every string
    vector built from them by iterated ``act_F`` and division by [b] (a
    route apart from the closed-form ``act_F_div`` of ``string_decompose``),
    one record per weight level 0..t1 + t2, and the class each string
    vector occupies at the origin.  A level's record is its string tags,
    its divided-power tags and the Gauss–Jordan record of the change of
    basis between them, built once here where the level is checked to be
    filled.
    """

    def __init__(self, t1: int, t2: int):
        check_shape(t1, t2)
        self.shape = (t1, t2)
        self.singular = {r: singular_vector(t1, t2, r) for r in range(min(t1, t2) + 1)}
        self.strings: dict = {}
        for r, u in self.singular.items():
            top = t1 + t2 - 2 * r
            vec = u
            for b in range(top + 1):
                if b:
                    vec = act_F(vec).scale(Q_ONE / qint(b))
                if vec.is_zero:
                    raise ArithmeticError("string vector vanished early")
                self.strings[(r, b)] = vec
        self._levels: dict = {}
        for level in range(t1 + t2 + 1):
            tags = [(r, level - r) for r in self.singular if (r, level - r) in self.strings]
            keys = [(s1, level - s1) for s1 in range(max(0, level - t2), min(t1, level) + 1)]
            if len(tags) != len(keys):
                raise ArithmeticError("string basis does not fill the level")
            columns = [self.strings[tag].as_dict() for tag in tags]
            steps = eliminate([[col.get(key, Q_ZERO) for col in columns] for key in keys])
            self._levels[level] = (tags, keys, steps)
        self.class_of_string = {tag: _clean_class({idx: c.at_zero() for idx, c in vec.coords})
                                for tag, vec in self.strings.items()}
        if len(set(self.class_of_string.values())) != len(self.strings):
            raise ArithmeticError("origin classes are not distinct")

    def coords(self, v: TensorVector) -> dict:
        """Coordinates of v in the string basis, exact: one replay per level."""
        if v.shape != self.shape:
            raise ValueError("vector of shape %r in the string lattice of shape %r"
                             % (v.shape, self.shape))
        out: dict = {}
        by_level: dict = {}
        for idx, c in v.coords:
            by_level.setdefault(idx[0] + idx[1], {})[idx] = c
        for level, comp in by_level.items():
            tags, keys, steps = self._levels[level]
            sol = replay(steps, [comp.get(key, Q_ZERO) for key in keys])
            for tag, c in zip(tags, sol):
                if not c.is_zero:
                    out[tag] = c
        return out

    def origin_class(self, v: TensorVector):
        """The basis class of v at the origin, or None; poles raise, and the
        reduction must be clean."""
        values = {}
        for tag, c in self.coords(v).items():
            if not c.regular_at_zero:
                raise ArithmeticError("coordinate at %r has a pole at the origin" % (tag,))
            values[tag] = c.at_zero()
        if not any(values.values()):
            return None
        return self.class_of_string[_clean_class(values)]


def crystal_limit_table(lattice: StringLattice) -> dict:
    """Exact origin behaviour of both Kashiwara operators on every tag.

    Maps ('e'|'f', s1, s2) to the resulting tag or None, read in the given
    lattice.  Each tag is string-decomposed once and both operators read
    that decomposition.  The arithmetic is the ground truth; the callers
    check against it the four-case split and the production tensor rule,
    ``crystals.TensorOps`` as read by ``tensor_rule_table``.
    """
    t1, t2 = lattice.shape
    table = {}
    for s1 in range(t1 + 1):
        for s2 in range(t2 + 1):
            vec = TensorVector.basis(lattice.shape, (s1, s2))
            parts = string_decompose(vec)
            table[("e", s1, s2)] = lattice.origin_class(kashiwara_e(vec, parts))
            table[("f", s1, s2)] = lattice.origin_class(kashiwara_f(vec, parts))
    return table


def origin_case_table(t1: int, t2: int) -> dict:
    """Four-case split of the origin action, decided by t1 against s1+s2."""
    check_shape(t1, t2)
    table = {}
    for s1 in range(t1 + 1):
        for s2 in range(t2 + 1):
            if t1 >= s1 + s2:
                e = (s1 - 1, s2) if s1 >= 1 else None
            else:
                e = (s1, s2 - 1) if s2 >= 1 else None
            if t1 > s1 + s2:
                f = (s1 + 1, s2) if s1 + 1 <= t1 else None
            else:
                f = (s1, s2 + 1) if s2 + 1 <= t2 else None
            table[("e", s1, s2)] = e
            table[("f", s1, s2)] = f
    return table


def _string_chain(t: int) -> CrystalGraph:
    """B(t) on tags 0..t: tag s has eps s, phi t - s and weight t - 2s."""
    nodes = {s: Node(s, t - 2 * s, (s,), (t - s,)) for s in range(t + 1)}
    f_edges = {(s, 1): s + 1 for s in range(t)}
    return CrystalGraph("B(%d)" % t, (1,), nodes, f_edges, 0)


def tensor_rule_table(t1: int, t2: int) -> dict:
    """Two-factor tensor rule on string tags, read from ``crystals.TensorOps``."""
    check_shape(t1, t2)
    ops = TensorOps([_string_chain(t1), _string_chain(t2)])
    return {
        (kind, s1, s2): target
        for s1 in range(t1 + 1)
        for s2 in range(t2 + 1)
        for _, kind, target in moves(ops, (s1, s2))
    }
