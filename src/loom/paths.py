"""Piecewise linear paths in the weight lattice and the root operators.

A path starts at the origin and is stored in grid form: a common
denominator ``m``, a time grid ``n``, and per maximal straight stretch an
integer direction ``d`` (null-root entry last when affine) and a cell
count ``c``: the stretch runs along d / m for the time c / n.  Paths that
differ only by a piecewise linear reparametrisation are equal: the
displacements d c / (m n) are exactly the data a reparametrisation cannot
touch.  Held as reduced integer :class:`Stretch` records, they are the
key for equality and hashing, which runs on plain tuples of ints.

The raising operator acts on the height function ``h(tau)``, the negated
coroot pairing along the path.  It leaves the path alone until the last
time ``h`` sits one below its maximum, reflects the stretch where ``h``
climbs to the maximum, and translates the rest; the lowering operator is
the mirror image.  Heights at the breakpoints are integer prefix sums in
units of 1 / (m n); an operator refines the grid until its split time is
on it, cuts that stretch and reflects the integer directions of the
block.  The canonical form drops pauses, merges collinear neighbours and
divides out common factors, so ``n`` is the least grid of the path.

The height maximum is required to be an integer.  Paths produced by
closure from linear seeds satisfy this; anything else is outside the
model and fails with :class:`IntegralityError` instead of being guessed
at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import NamedTuple

from .cartan import AffineCartan, AmbientError, Weight, _weight, frac


class PathError(ValueError):
    """Malformed path input."""


class IntegralityError(PathError):
    """The height function has a non-integral maximum."""


class Stretch(NamedTuple):
    """Displacement ``nums / den`` in lowest terms; null-root entry last when affine."""

    nums: tuple[int, ...]
    den: int
    affine: bool

    def weight(self) -> Weight:
        c = tuple(Fraction(x, self.den) for x in self.nums)
        return _weight(c[:-1], c[-1]) if self.affine else _weight(c, None)


def _stretch(nums, den: int, affine: bool) -> Stretch:
    g = gcd(den, *nums)
    return Stretch(tuple(x // g for x in nums), den // g, affine)


def stretch_key(w: Weight) -> Stretch:
    """The key entry of a straight stretch with displacement w."""
    c = w.coords if w.delta is None else w.coords + (w.delta,)
    den = lcm(*(x.denominator for x in c))
    return Stretch(tuple(x.numerator * den // x.denominator for x in c), den, w.delta is not None)


@dataclass(frozen=True, slots=True, eq=False)
class Path:
    """Canonical path: stretch k runs along ``dirs[k] / m`` for ``cells[k] / n``.

    The key is one :class:`Stretch` per stretch.  Paths from the root
    operators of one cartan share their accessors' weights through ``interned``.
    """

    m: int
    n: int
    dirs: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    ambient: str
    ncoords: int
    interned: dict | None = field(default=None, repr=False)
    _key: tuple | None = field(default=None, init=False, repr=False)

    @property
    def is_constant(self) -> bool:
        return not self.cells

    def _as_weight(self, s: Stretch) -> Weight:
        """The weight s stands for, shared through ``interned`` if there is one."""
        table = {} if self.interned is None else self.interned
        w = table.get(s)
        if w is None:
            w = table[s] = s.weight()
        return w

    def weight(self) -> Weight:
        """Endpoint of the path."""
        width = self.ncoords + (self.ambient == "affine")
        ends = [sum(d[k] * c for d, c in zip(self.dirs, self.cells)) for k in range(width)]
        return self._as_weight(_stretch(ends, self.m * self.n, self.ambient == "affine"))

    def key(self) -> tuple[Stretch, ...]:
        """Reparametrisation-invariant identity: the stretch displacements."""
        if self._key is None:
            mn, affine = self.m * self.n, self.ambient == "affine"
            key = tuple(_stretch([x * c for x in d], mn, affine)
                        for d, c in zip(self.dirs, self.cells))
            object.__setattr__(self, "_key", key)
        return self._key

    @property
    def segments(self) -> tuple[tuple[Weight, Fraction], ...]:
        """``(displacement, duration)`` of each maximal straight stretch."""
        return tuple((self._as_weight(s), Fraction(c, self.n))
                     for s, c in zip(self.key(), self.cells))

    def __eq__(self, other):
        return (isinstance(other, Path) and self.ambient == other.ambient
                and self.ncoords == other.ncoords and self.key() == other.key())

    def __hash__(self):
        return hash((self.ambient, self.key()))

    def directions(self) -> list[Weight]:
        """Derivative of the path on each stretch."""
        return [self._as_weight(_stretch(d, self.m, self.ambient == "affine")) for d in self.dirs]

    def breakpoints(self) -> list[Fraction]:
        """Cumulative times 0 = t_0 < ... < t_k = 1."""
        times = [Fraction(t, self.n) for t in accumulate(self.cells, initial=0)]
        # the constant path still parametrises the full interval
        return times + [Fraction(1)] if self.is_constant else times

    def to_json(self):
        segments = []
        for d, (_, t) in zip(self.directions(), self.segments):
            entry = {
                "dir": ["%d/%d" % (x.numerator, x.denominator) for x in d.coords],
                "len": "%d/%d" % (t.numerator, t.denominator),
            }
            if d.delta is not None:
                entry["dir_delta"] = "%d/%d" % (d.delta.numerator, d.delta.denominator)
            segments.append(entry)
        return {"ambient": self.ambient, "segments": segments}

    def __repr__(self):
        if self.is_constant:
            return "Path(constant)"
        return "Path(%s)" % "; ".join(
            "%r x %s" % (d, Fraction(c, self.n)) for d, c in zip(self.directions(), self.cells)
        )


def _on_ray(u, v) -> bool:
    """Whether v is a positive multiple of the nonzero vector u."""
    # every 2x2 minor against a pivot of u vanishes and the pivots agree in sign
    j = next(k for k, a in enumerate(u) if a != 0)
    return u[j] * v[j] > 0 and all(a * v[j] == b * u[j] for a, b in zip(u, v))


def _grid_path(m, n, dirs, cells, ambient, ncoords, interned=None) -> Path:
    """Canonical path through stretches along ``d / m`` lasting ``c / n``.

    Pauses go and the rest fills [0, 1]; collinear neighbours merge.
    """
    moves = [(d, c) for d, c in zip(dirs, cells) if any(d)]
    if not moves:
        return Path(1, 1, (), (), ambient, ncoords, interned)
    total = sum(c for _, c in moves)
    # stretching total / n of the time to fill [0, 1] scales each direction by that
    scale, m = (1, m) if total == n else (total, m * n)
    out_d, out_c = [], []
    for d, c in moves:
        if scale != 1:
            d = tuple(x * scale for x in d)
        if out_d and (d == out_d[-1] or _on_ray(out_d[-1], d)):
            u, cu = out_d[-1], out_c[-1]
            s = cu + c
            if d != u:
                # the merged direction (u cu + d c) / s needs the denominator m s
                out_d = [tuple(x * s for x in v) for v in out_d]
                out_d[-1] = tuple(a * cu + b * c for a, b in zip(u, d))
                m *= s
                scale *= s
            out_c[-1] = s
        else:
            out_d.append(d)
            out_c.append(c)
    g = gcd(*out_c)
    out_c = [c // g for c in out_c]
    g = gcd(m, *(x for d in out_d for x in d))
    if g > 1:
        m //= g
        out_d = [tuple(x // g for x in d) for d in out_d]
    mn = m * sum(out_c)
    if any(sum(d[k] * c for d, c in zip(out_d, out_c)) % mn for k in range(len(out_d[0]))):
        raise PathError("path endpoint is not a lattice weight")
    return Path(m, sum(out_c), tuple(out_d), tuple(out_c), ambient, ncoords, interned)


def make_path(segments, ambient: str | None = None, ncoords: int | None = None) -> Path:
    """Build a path in canonical form from ``(direction, duration)`` segments.

    Zero-direction stretches are pauses and are removed; the remaining
    durations are rescaled to fill [0, 1], which is a reparametrisation.
    Consecutive segments pointing along the same ray are merged.  The
    endpoint must be a lattice weight.
    """
    dirs, times = [], []
    for d, t in segments:
        t = frac(t)
        if t < 0:
            raise PathError("segment durations must be positive")
        if t == 0:
            continue
        amb = "classical" if d.is_classical else "affine"
        if ambient is None:
            ambient = amb
        elif ambient != amb:
            raise AmbientError("path mixes classical and affine directions")
        if ncoords is None:
            ncoords = len(d.coords)
        elif ncoords != len(d.coords):
            raise PathError("path mixes weights of different ranks")
        dirs.append(d.coords if d.delta is None else d.coords + (d.delta,))
        times.append(t)
    if ambient is None or ncoords is None:
        raise PathError("ambient of a constant path cannot be inferred")
    m, n = lcm(*(x.denominator for d in dirs for x in d)), lcm(*(t.denominator for t in times))
    dirs = [tuple(x.numerator * (m // x.denominator) for x in d) for d in dirs]
    cells = [t.numerator * (n // t.denominator) for t in times]
    path = _grid_path(m, n, dirs, cells, ambient, ncoords)
    if sum(times) != 1 and not path.is_constant:
        raise PathError("durations must sum to one")
    return path


def linear_path(w: Weight) -> Path:
    """The straight path from the origin to w."""
    if not w.is_integral:
        raise PathError("linear paths need an integral endpoint")
    amb = "classical" if w.is_classical else "affine"
    return make_path([(w, Fraction(1))], ambient=amb, ncoords=len(w.coords))


def constant_path(cartan: AffineCartan, classical: bool = True) -> Path:
    return linear_path(cartan.zero_weight(classical=classical))


# -- height data -------------------------------------------------------


class HeightExtrema(NamedTuple):
    """Extremum data of the height function for one index, on the path's grid ``n``.

    ``cuts``: e_minus, e_plus, f_plus, f_minus as pairs (a, b) meaning a / b cells, or None.
    """

    eps: int
    phi: int
    n: int
    cuts: tuple

    def _time(self, k: int) -> Fraction | None:
        t = self.cuts[k]
        return None if t is None else Fraction(t[0], t[1] * self.n)

    max_value = property(lambda self: Fraction(self.eps))
    end = property(lambda self: Fraction(self.eps - self.phi))
    e_minus = property(lambda self: self._time(0))
    e_plus = property(lambda self: self._time(1))
    f_plus = property(lambda self: self._time(2))
    f_minus = property(lambda self: self._time(3))


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
        raise IntegralityError(
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
    return HeightExtrema(hmax // mn, (hmax - heights[-1]) // mn, path.n, cuts)


def epsilon(cartan: AffineCartan, path: Path, i: int) -> int:
    return h_extrema(cartan, path, i).eps


def phi(cartan: AffineCartan, path: Path, i: int) -> int:
    return h_extrema(cartan, path, i).phi


# -- root operators ----------------------------------------------------


def _split_reflect(cartan, path, i, a, b):
    """Reflect the stretch between the cell times a and b by the i-th reflection."""
    q = lcm(a[1], b[1])
    lo, hi = a[0] * (q // a[1]), b[0] * (q // b[1])
    # alpha_i; a classical direction zips away the null-root entry
    root = [row[i] for row in cartan.matrix] + [int(i == 0)]
    dirs, cells = [], []
    t = 0
    for d, c in zip(path.dirs, path.cells):
        c *= q
        for x0, x1 in ((t, min(t + c, lo)), (max(t, lo), min(t + c, hi)), (max(t, hi), t + c)):
            if x1 > x0:
                k = d[i] if lo <= x0 and x1 <= hi else 0
                dirs.append(tuple(x - k * r for x, r in zip(d, root)) if k else d)
                cells.append(x1 - x0)
        t += c
    return _grid_path(path.m, path.n * q, dirs, cells, path.ambient, path.ncoords, cartan._interned)


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
    n = cartan.pairing(i, path.weight())
    if n.denominator != 1:
        raise PathError("endpoint pairing is not integral")
    n = int(n)
    out = path
    for _ in range(abs(n)):
        out = lowering_op(cartan, out, i) if n > 0 else raising_op(cartan, out, i)
        if out is None:
            raise PathError("Weyl action ran out of string; operators are inconsistent")
    return out


def concat(paths) -> Path:
    """Concatenation with equal time windows per non-constant operand."""
    paths = list(paths)
    if not paths:
        raise PathError("concatenation needs at least one path")
    ambient = paths[0].ambient
    ncoords = paths[0].ncoords
    for p in paths:
        if p.ambient != ambient:
            raise AmbientError("concatenation mixes ambients")
        if p.ncoords != ncoords:
            raise PathError("concatenation mixes ranks")
    movers = [p for p in paths if not p.is_constant]
    k = len(movers)
    # each operand runs k times as fast on a common grid
    m, n = lcm(*(p.m for p in movers)), lcm(*(p.n for p in movers))
    dirs = [tuple(x * k * (m // p.m) for x in d) for p in movers for d in p.dirs]
    cells = [c * (n // p.n) for p in movers for c in p.cells]
    return _grid_path(m, k * n, dirs, cells, ambient, ncoords)


def stretch(path: Path, n: int) -> Path:
    """Dilate the path by a positive integer factor."""
    if n < 1:
        raise PathError("stretch factor must be a positive integer")
    dirs = [tuple(x * n for x in d) for d in path.dirs]
    return _grid_path(path.m, path.n, dirs, path.cells, path.ambient, path.ncoords)


def project(path: Path) -> Path:
    """Kill the null-root component of every direction."""
    if path.ambient != "affine":
        raise AmbientError("path is already classical")
    dirs = [d[:-1] for d in path.dirs]
    return _grid_path(path.m, path.n, dirs, path.cells, "classical", path.ncoords)


def segment_uniform(path: Path, n: int) -> list[Weight]:
    """Directions of the path on the uniform grid of step 1/n.

    Every breakpoint must lie on the grid; the j-th entry is the constant
    derivative of the path on ((j-1)/n, j/n).
    """
    if n < 1:
        raise PathError("grid size must be a positive integer")
    if path.is_constant:
        return [path.weight()] * n
    out = []
    t = 0
    for d, c in zip(path.directions(), path.cells):
        t += c
        if c * n % path.n:
            raise PathError("breakpoint %s is not a multiple of 1/%d" % (Fraction(t, path.n), n))
        out.extend([d] * (c * n // path.n))
    return out


def grid_size(path: Path) -> int:
    """Least n putting every breakpoint of the path on the 1/n grid."""
    return path.n


class PathOps:
    """Crystal operations on paths of a fixed ambient, for the generator."""

    def __init__(self, cartan: AffineCartan, ambient: str = "classical"):
        if ambient not in ("classical", "affine"):
            raise PathError("ambient must be 'classical' or 'affine'")
        self.cartan = cartan
        self.ambient = ambient
        self.indices = tuple(cartan.indices)
        self.infinite = ambient == "affine"
        self._last = (None, None, None)

    def key(self, x: Path):
        # the ambient decides whether closure needs a window, so a stray
        # element of the other ambient must not slip into a generation
        if x.ambient != self.ambient:
            raise AmbientError("path ambient does not match the crystal ambient")
        return x.key()

    def wt(self, x: Path) -> Weight:
        return x.weight()

    def _extrema(self, x: Path, i: int) -> HeightExtrema:
        """The h_extrema of (x, i) the root operators take, kept for the next call on it."""
        last = self._last
        if last[0] is not x or last[1] != i:
            last = self._last = (x, i, h_extrema(self.cartan, x, i))
        return last[2]

    def strings(self, x: Path, i: int) -> tuple[int, int]:
        ext = self._extrema(x, i)
        return ext.eps, ext.phi

    def e(self, x: Path, i: int):
        return raising_op(self.cartan, x, i, self._extrema(x, i))

    def f(self, x: Path, i: int):
        return lowering_op(self.cartan, x, i, self._extrema(x, i))

    def level(self, x: Path) -> int:
        """Null-root entry of the endpoint, an integer since that is a lattice weight."""
        if self.ambient != "affine":
            raise AmbientError("classical paths have no null-root level")
        return sum(d[-1] * c for d, c in zip(x.dirs, x.cells)) // (x.m * x.n)
