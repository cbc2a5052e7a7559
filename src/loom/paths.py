"""Piecewise linear paths in the weight lattice and the root operators.

A path starts at the origin and is stored in grid form: a common
denominator ``m``, a time grid ``n``, and per maximal straight stretch an
integer direction ``d`` (null-root entry last when affine) and a cell
count ``c``: the stretch runs along d / m for the time c / n.  Paths that
differ only by a piecewise linear reparametrisation are equal: the
displacements d c / (m n) are exactly the data a reparametrisation cannot
touch.  Held as reduced integer :class:`~loom.cartan.Stretch` records,
they are the key for equality and hashing, which runs on plain tuples of
ints, and they order themselves as the weights they stand for.

:func:`make_path` is the one constructor: every path, from
:func:`linear_path`, the root operators, :func:`concat`,
:func:`stretch`, :func:`project` or ``embedding.psi``, is built from an
integer grid form through it.  Weights come and go as stretches:
:func:`linear_path` takes one, a seed that crossed in :mod:`loom.cartan`,
and :meth:`Path.endpoint` returns one.  The ambient is the flag ``affine``
of :class:`~loom.cartan.Stretch`, which paths and :class:`PathOps` carry.

The raising operator acts on the height function ``h(tau)``, the negated
coroot pairing along the path.  It leaves the path alone until the last
time ``h`` sits one below its maximum, reflects the stretch where ``h``
climbs to the maximum, and translates the rest; the lowering operator is
the mirror image.  Heights at the breakpoints are integer prefix sums in
units of 1 / (m n); an operator refines the grid until its split times
are on it, cuts only the one or two stretches they fall inside, and
reflects the integer directions of the block, copying every other
stretch whole.  The canonical form drops pauses, merges collinear
neighbours and divides out common factors, so ``n`` is the least grid
of the path.

The height maximum is required to be an integer, and the endpoint a
lattice weight.  Paths produced by closure from linear seeds satisfy
both, so the library builds no path outside the model: a miss is a
failed self-check and raises ``ArithmeticError`` instead of being
guessed at.  A refused argument raises ``ValueError``.

The delta-law: <delta, h_i> = 0, so heights ignore the null-root entry,
and the root operators commute with :func:`translate`, the shift by a
multiple of delta, wherever :func:`make_path` does not reparametrise.
The guard of :class:`PathOps` makes sure of that: every stretch is level
zero, none has a zero classical part, and all classical parts have one
norm under the invariant form, :attr:`~loom.cartan.AffineCartan.form`.  An affine
:class:`PathOps` then keeps one row per delta-orbit, built on the orbit's
level-zero path and holding that path's weight; a path of level s reads
the weight plus s delta, and each output moved to level s is translated
and keyed once per table.  A moved output carries its level-zero source
and its level, so its own row lookup translates nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .cartan import AffineCartan, Stretch, _stretch


@dataclass(frozen=True, slots=True, eq=False)
class Path:
    """Canonical path: stretch k runs along ``dirs[k] / m`` for ``cells[k] / n``.

    The key is one :class:`Stretch` per stretch, and the accessors return
    stretches too; a weight is made only to render one.
    """

    m: int
    n: int
    dirs: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    affine: bool
    ncoords: int
    _key: tuple | None = field(default=None, init=False, repr=False)

    @property
    def is_constant(self) -> bool:
        return not self.cells

    def endpoint(self) -> Stretch:
        """Endpoint of the path, as an integer stretch."""
        width = self.ncoords + self.affine
        ends = [sum(d[k] * c for d, c in zip(self.dirs, self.cells)) for k in range(width)]
        return _stretch(ends, self.m * self.n, self.affine)

    def key(self) -> tuple[Stretch, ...]:
        """Reparametrisation-invariant identity: the stretch displacements."""
        if self._key is None:
            mn, affine = self.m * self.n, self.affine
            key = tuple([Stretch(tuple([x * c // g for x in d]), mn // g, affine)
                         for d, c in zip(self.dirs, self.cells) for g in (gcd(mn, c * gcd(*d)),)])
            object.__setattr__(self, "_key", key)
        return self._key

    def __eq__(self, other):
        # one grid form is one path, and comparing it needs no key
        return (isinstance(other, Path) and self.affine == other.affine
                and self.ncoords == other.ncoords
                and (self.cells == other.cells and self.dirs == other.dirs
                     and self.m == other.m and self.n == other.n or self.key() == other.key()))

    def __hash__(self):
        return hash((self.affine, self.key()))

    def directions(self) -> list[Stretch]:
        """Derivative of the path on each stretch."""
        return [_stretch(d, self.m, self.affine) for d in self.dirs]

    def __repr__(self):
        if self.is_constant:
            return "Path(constant)"
        return "Path(%s)" % "; ".join(
            "%r x %s" % (d.weight(), Fraction(c, self.n))
            for d, c in zip(self.directions(), self.cells)
        )


def _on_ray(u, v) -> bool:
    """Whether v is a positive multiple of the nonzero vector u."""
    # every 2x2 minor against a pivot of u vanishes and the pivots agree in sign
    j = next(k for k, a in enumerate(u) if a != 0)
    return u[j] * v[j] > 0 and all(a * v[j] == b * u[j] for a, b in zip(u, v))


def make_path(m: int, n: int, dirs, cells, affine: bool, ncoords: int) -> Path:
    """Canonical path through stretches along ``d / m`` lasting ``c / n``.

    The one path constructor: ``dirs`` are integer directions (null-root
    entry last when affine) and ``cells`` positive integer cell counts.
    Zero directions are pauses and go, and the rest is rescaled to fill
    [0, 1], which is a reparametrisation; collinear neighbours merge.  The
    endpoint must be a lattice weight.
    """
    moves = [(d, c) for d, c in zip(dirs, cells) if any(d)]
    if not moves:
        return Path(1, 1, (), (), affine, ncoords)
    total = sum([c for _, c in moves])
    # stretching total / n of the time to fill [0, 1] scales each direction by that
    scale, m = (1, m) if total == n else (total, m * n)
    out_d, out_c = [], []
    for d, c in moves:
        if scale != 1:
            d = tuple([x * scale for x in d])
        if out_d and (d == out_d[-1] or _on_ray(out_d[-1], d)):
            u, cu = out_d[-1], out_c[-1]
            s = cu + c
            if d != u:
                # the merged direction (u cu + d c) / s needs the denominator m s
                out_d = [tuple([x * s for x in v]) for v in out_d]
                out_d[-1] = tuple([a * cu + b * c for a, b in zip(u, d)])
                m *= s
                scale *= s
            out_c[-1] = s
        else:
            out_d.append(d)
            out_c.append(c)
    g = gcd(*out_c)
    out_c = [c // g for c in out_c]
    g = gcd(m, *chain.from_iterable(out_d))
    if g > 1:
        m //= g
        out_d = [tuple([x // g for x in d]) for d in out_d]
    n = sum(out_c)
    if any(sum(map(mul, col, out_c)) % (m * n) for col in zip(*out_d)):
        raise ArithmeticError("path endpoint is not a lattice weight")
    return Path(m, n, tuple(out_d), tuple(out_c), affine, ncoords)


def linear_path(w: Stretch) -> Path:
    """The straight path from the origin to w."""
    if w.den != 1:
        raise ValueError("linear paths need an integral endpoint")
    return make_path(1, 1, [w.nums], [1], w.affine, len(w.nums) - w.affine)


def constant_path(cartan: AffineCartan) -> Path:
    """The classical zero path; the affine one is ``linear_path(0 * cartan.null_root())``."""
    return make_path(1, 1, [], [], False, cartan.rank + 1)


# -- height data -------------------------------------------------------


class HeightExtrema(NamedTuple):
    """Extremum data of the height function for one index: both string lengths and four cuts.

    ``cuts``: e_minus, e_plus, f_plus, f_minus as pairs (a, b) meaning a / b
    cells of the path's grid ``n``, or None.  The root operators cut there;
    ``tests/fraction_paths.py`` reads the cuts as ``Fraction`` times.
    """

    eps: int
    phi: int
    cuts: tuple


def h_extrema(cartan: AffineCartan, path: Path, i: int) -> HeightExtrema:
    """Extremum of the height function, with the four split times.

    The maximum of a piecewise linear function sits at a breakpoint; it
    must be an integer here, which is the integrality property of paths
    generated from linear seeds.  The height starts at 0 and ends at an
    integer (the endpoint is a lattice weight), so the level max - 1 is
    reached before the first maximum when max >= 1, and after the last
    one when that is not at time 1.  Each crossing lies in the one
    stretch found by scanning the breakpoints away from the maximum.
    """
    cartan._check_index(i)
    mn = path.m * path.n
    times = list(accumulate(path.cells, initial=0))
    heights = list(accumulate((-d[i] * c for d, c in zip(path.dirs, path.cells)), initial=0))
    if path.is_constant:
        times, heights = [0, 1], [0, 0]
    hmax = max(heights)
    if hmax % mn:
        raise ArithmeticError(
            "height maximum %s for index %d is not an integer" % (Fraction(hmax, mn), i)
        )
    level = hmax - mn
    first = heights.index(hmax)
    last = len(heights) - 1 - heights[::-1].index(hmax)
    e_minus = f_minus = None
    if hmax > 0:
        j = first - 1
        while heights[j] > level:
            j -= 1
        p = -path.dirs[j][i]
        e_minus = (times[j] * p + level - heights[j], p)
    if last < len(heights) - 1:
        j = last
        while heights[j + 1] > level:
            j += 1
        p = path.dirs[j][i]
        f_minus = (times[j] * p + heights[j] - level, p)
    cuts = (e_minus, (times[first], 1), (times[last], 1), f_minus)
    return HeightExtrema(hmax // mn, (hmax - heights[-1]) // mn, cuts)


# -- root operators ----------------------------------------------------


def _split_reflect(cartan, path, i, a, b):
    """Reflect the stretch between the cell times a and b by the i-th reflection.

    A stretch outside [a, b], or with no i-th entry, is copied whole; only
    the one or two stretches a cut time falls inside are split.
    """
    q = lcm(a[1], b[1])
    lo, hi = a[0] * (q // a[1]), b[0] * (q // b[1])
    # alpha_i; a classical direction zips away the null-root entry
    root = cartan.roots[i]
    dirs, cells = [], []
    t = 0
    for d, c in zip(path.dirs, path.cells):
        s = t + c * q
        if lo < s and t < hi and d[i]:
            r = tuple([x - d[i] * y for x, y in zip(d, root)])
            for v, x0, x1 in ((d, t, lo), (r, max(t, lo), min(s, hi)), (d, hi, s)):
                if x1 > x0:
                    dirs.append(v)
                    cells.append(x1 - x0)
        else:
            dirs.append(d)
            cells.append(s - t)
        t = s
    return make_path(path.m, path.n * q, dirs, cells, path.affine, path.ncoords)


def raising_op(cartan: AffineCartan, path: Path, i: int,
               ext: HeightExtrema | None = None) -> Path | None:
    """The raising root operator; None when the height maximum is zero."""
    ext = ext or h_extrema(cartan, path, i)
    if ext.eps == 0:
        return None
    return _split_reflect(cartan, path, i, ext.cuts[0], ext.cuts[1])


def lowering_op(cartan: AffineCartan, path: Path, i: int,
                ext: HeightExtrema | None = None) -> Path | None:
    """The lowering root operator; None when the maximum is last attained at 1."""
    ext = ext or h_extrema(cartan, path, i)
    if ext.cuts[3] is None:
        return None
    return _split_reflect(cartan, path, i, ext.cuts[2], ext.cuts[3])


def weyl_act(cartan: AffineCartan, path: Path, i: int) -> Path:
    """Simple-reflection action: iterate a root operator endpoint-pairing times."""
    cartan._check_index(i)
    # make_path keeps endpoints in the lattice, so the pairing is an integer
    n = path.endpoint().nums[i]
    out = path
    for _ in range(abs(n)):
        out = lowering_op(cartan, out, i) if n > 0 else raising_op(cartan, out, i)
        if out is None:
            raise ArithmeticError("Weyl action ran out of string; operators are inconsistent")
    return out


def concat(paths) -> Path:
    """Concatenation with equal time windows per non-constant operand."""
    paths = list(paths)
    if not paths:
        raise ValueError("concatenation needs at least one path")
    affine, ncoords = paths[0].affine, paths[0].ncoords
    for p in paths:
        if p.affine != affine:
            raise ValueError("concatenation mixes ambients")
        if p.ncoords != ncoords:
            raise ValueError("concatenation mixes ranks")
    movers = [p for p in paths if not p.is_constant]
    k = len(movers)
    # each operand runs k times as fast on a common grid
    m, n = lcm(*(p.m for p in movers)), lcm(*(p.n for p in movers))
    dirs = [tuple(x * k * (m // p.m) for x in d) for p in movers for d in p.dirs]
    cells = [c * (n // p.n) for p in movers for c in p.cells]
    return make_path(m, k * n, dirs, cells, affine, ncoords)


def stretch(path: Path, n: int) -> Path:
    """Dilate the path by a positive integer factor."""
    if n < 1:
        raise ValueError("stretch factor must be a positive integer")
    dirs = [tuple(x * n for x in d) for d in path.dirs]
    return make_path(path.m, path.n, dirs, path.cells, path.affine, path.ncoords)


def project(path: Path) -> Path:
    """Kill the null-root component of every direction."""
    if not path.affine:
        raise ValueError("path is already classical")
    dirs = [d[:-1] for d in path.dirs]
    return make_path(path.m, path.n, dirs, path.cells, False, path.ncoords)


def uniform_stretches(path: Path, n: int) -> list[Stretch]:
    """Key entries of the path's cells on the uniform grid of step 1/n.

    Every breakpoint must lie on the grid; the j-th entry is the
    :class:`Stretch` of the constant derivative of the path on ((j-1)/n, j/n).
    """
    if n < 1:
        raise ValueError("grid size must be a positive integer")
    if path.is_constant:
        return [Stretch((0,) * (path.ncoords + path.affine), 1, path.affine)] * n
    out = []
    t = 0
    for d, c in zip(path.dirs, path.cells):
        t += c
        if c * n % path.n:
            raise ValueError("breakpoint %s is not a multiple of 1/%d" % (Fraction(t, path.n), n))
        out.extend([_stretch(d, path.m, path.affine)] * (c * n // path.n))
    return out


def translate(path: Path, s: int) -> Path:
    """The affine path plus s delta: each direction's null-root entry moves by s m.

    Times and pairings stay, so the grid form stays canonical when no
    direction can turn zero and no two neighbours collinear; the guard of
    :class:`PathOps` decides that.
    """
    k = s * path.m
    return Path(path.m, path.n, tuple([d[:-1] + (d[-1] + k,) for d in path.dirs]),
                path.cells, True, path.ncoords)


class PathOps:
    """Crystal operations on paths of a fixed ambient, for the generator.

    A table row, from one :func:`h_extrema` scan per index, holds the tuples
    ``(eps, phi)`` over all indices, e and f per index, and the weight of
    the path it was built on; a key names one grid form, and the table
    keeps one path per key.

    An affine table keeps one row per delta-orbit, by the delta-law of the
    module: a path x of level s != 0 reads the row of its level-zero
    translate x - s delta, and only the translate's row is stored.  Its
    weight is the row's plus s delta, and e and f move only the output
    they return back by s delta, through a memo per level keyed by the
    level-zero output, so each output is translated once per level.  Each
    moved output is given its level-zero source and its level when it is
    made, and reads the source's row with no translation; the guard still
    decides on the source's key.  The
    law holds on grid forms when :func:`make_path` never reparametrises,
    which the guard ensures: every stretch is level zero, with a nonzero
    classical part, and all classical parts have one norm.  Then no
    stretch is a pause, two neighbours are collinear only when equal, and
    the root operators keep all three properties.  The verdict is kept per
    level-zero key; a path that fails it gets a row of its own, as a
    classical path does.
    """

    def __init__(self, cartan: AffineCartan, *, affine: bool = False):
        self.cartan = cartan
        self.indices = tuple(cartan.indices)
        # an affine kind is infinite: generate needs a window for it
        self.infinite = affine
        self._rows, self._paths, self._guard = {}, {}, {}
        self._translated = defaultdict(dict)
        # id of a moved output off level zero -> (its level-zero source, its level)
        self._sources = {}
        self._last = (None, None)

    def key(self, x: Path):
        # the ambient decides whether closure needs a window, so a stray
        # element of the other ambient must not slip into a generation
        if x.affine != self.infinite:
            raise ValueError("path ambient does not match the crystal ambient")
        return x.key()

    def _keep(self, y: Path) -> Path:
        return self._paths.setdefault(y.key(), y)

    def _translates(self, rep: Path, key) -> bool:
        """The guard: the delta-law holds on the grid form of rep, whose key is key."""
        ok = self._guard.get(key)
        if ok is None:
            comarks, form = self.cartan.comarks, self.cartan.form
            # the form is definite, so a norm is 0 only on a zero classical part;
            # a stretch off level zero counts as 0 too
            norms = {0 if sum(map(mul, comarks, d)) else
                     sum([a * sum(map(mul, row, d[1:-1])) for a, row in zip(d[1:-1], form) if a])
                     for d in rep.dirs}
            ok = self._guard[key] = len(norms) == 1 and 0 not in norms
        return ok

    def _scan(self, x: Path) -> tuple:
        """``((eps, phi), moves)`` of x, moves taking an index to ``(e, f)``."""
        c, eps, phi, moves = self.cartan, [], [], {}
        for j in self.indices:
            ext = h_extrema(c, x, j)
            eps.append(ext.eps)
            phi.append(ext.phi)
            moved = (raising_op(c, x, j, ext), lowering_op(c, x, j, ext))
            moves[j] = tuple([y and self._keep(y) for y in moved])
        return (tuple(eps), tuple(phi)), moves

    def _row(self, x: Path) -> tuple:
        """The row of x and the level s its outputs move by; built once per level-zero key."""
        if self._last[0] is not x:  # the identity check spares hashing x's key
            # a moved output names its level-zero source; any other x goes down by its level
            rep, s = self._sources.get(id(x)) or (x, self.infinite and self.level(x))
            if rep is x and s:
                rep = translate(x, -s)
            key = rep.key()
            if s and not self._translates(rep, key):
                rep, key, s = x, x.key(), 0
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = (*self._scan(rep), rep.endpoint())
            self._last = (x, (row, s))
        return self._last[1]

    def _moved(self, y: Path | None, s: int) -> Path | None:
        """An output y of a level-zero row plus s delta, translated and keyed once per s."""
        if not (s and y):
            return y
        memo = self._translated[s]
        # y came through _keep, so its key is cached and y is the kept path
        moved = memo.get(y._key)
        if moved is None:
            moved = memo[y._key] = self._keep(translate(y, s))
            # y is rep + t delta; a y off level zero with no source goes down once, by the memo
            rep, t = self._sources.get(id(y)) or (y, self.level(y))
            if t + s:
                rep = self._moved(y, -t) if rep is y and t else rep
                self._sources.setdefault(id(moved), (rep, t + s))
        return moved

    def strings(self, x: Path) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self._row(x)[0][0]

    def e(self, x: Path, i: int):
        row, s = self._row(x)
        return self._moved(row[1][i][0], s)

    def f(self, x: Path, i: int):
        row, s = self._row(x)
        return self._moved(row[1][i][1], s)

    def wt(self, x: Path) -> Stretch:
        """The row's weight plus s delta: the null-root numerator moves by s den, still reduced."""
        (_, _, w), s = self._row(x)
        if not s:
            return w
        return Stretch(w.nums[:-1] + (w.nums[-1] + s * w.den,), w.den, True)

    def level(self, x: Path) -> int:
        """Null-root entry of the endpoint, an integer since that is a lattice weight."""
        if not self.infinite:
            raise ValueError("classical paths have no null-root level")
        return sum(d[-1] * c for d, c in zip(x.dirs, x.cells)) // (x.m * x.n)
