"""Piecewise linear paths in the weight lattice and the root operators.

A path starts at the origin and is stored as the sequence of its maximal
straight stretches, each a ``(displacement, duration)`` pair; durations
sum to one.  Paths that differ only by a piecewise linear
reparametrisation are equal: the displacements are exactly the data a
reparametrisation cannot touch, so the stored tuple of displacements is
the key for equality and hashing.  A stretch's direction, the derivative
of the path there, is derived as displacement / duration only where it is
needed (serialisation and the uniform grid).

The raising operator acts on the height function ``h(tau)``, the negated
coroot pairing along the path.  It leaves the path alone until the last
time ``h`` sits one below its maximum, reflects the stretch where ``h``
climbs to the maximum, and translates the rest; the lowering operator is
the mirror image.  Both reduce to pure surgery on the displacements:
the translated tail keeps its displacements, only the climbing stretch
gets reflected.

The height maximum is required to be an integer.  Paths produced by
closure from linear seeds satisfy this; anything else is outside the
model and fails with :class:`IntegralityError` instead of being guessed
at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cartan import AffineCartan, AmbientError, Weight, frac


class PathError(ValueError):
    """Malformed path input."""


class IntegralityError(PathError):
    """The height function has a non-integral maximum."""


def _collinear_merge(u: Weight, du: Fraction, v: Weight, dv: Fraction):
    """Merge two consecutive segments if v is a positive multiple of u."""
    uc = u.coords + ((u.delta,) if u.delta is not None else ())
    vc = v.coords + ((v.delta,) if v.delta is not None else ())
    # u is not zero; v = r*u with r > 0 iff every 2x2 minor against a
    # pivot of u vanishes and the pivot coordinates agree in sign
    j = next(k for k, a in enumerate(uc) if a != 0)
    if uc[j] * vc[j] <= 0 or any(a * vc[j] != b * uc[j] for a, b in zip(uc, vc)):
        return None
    return (u + v, du + dv)


@dataclass(frozen=True, eq=False)
class Path:
    """Canonical piecewise linear path from the origin.

    ``segments`` holds ``(displacement, duration)`` pairs of the maximal
    straight stretches; the direction of a stretch is its displacement
    divided by its duration.
    """

    segments: tuple[tuple[Weight, Fraction], ...]
    ambient: str
    ncoords: int

    @property
    def is_constant(self) -> bool:
        return not self.segments

    def weight(self) -> Weight:
        """Endpoint of the path."""
        w = _zero_weight(self.ambient, self.ncoords)
        for v, _ in self.segments:
            w = w + v
        return w

    def key(self):
        """Reparametrisation-invariant identity: the stretch displacements."""
        return tuple(v for v, _ in self.segments)

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.ambient == other.ambient
            and self.ncoords == other.ncoords
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.ambient, self.key()))

    def directions(self) -> list[Weight]:
        """Derivative of the path on each stretch."""
        return [v * (1 / t) for v, t in self.segments]

    def breakpoints(self) -> list[Fraction]:
        """Cumulative times 0 = t_0 < ... < t_k = 1."""
        out = [Fraction(0)]
        for _, t in self.segments:
            out.append(out[-1] + t)
        if out[-1] != 1:
            # the constant path still parametrises the full interval
            out.append(Fraction(1))
        return out

    def to_json(self):
        segments = []
        for d, (_, t) in zip(self.directions(), self.segments):
            entry = {
                "dir": ["%d/%d" % (c.numerator, c.denominator) for c in d.coords],
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
            "%r x %s" % (d, t) for d, (_, t) in zip(self.directions(), self.segments)
        )


def _zero_weight(ambient: str, ncoords: int) -> Weight:
    delta = None if ambient == "classical" else Fraction(0)
    return Weight((Fraction(0),) * ncoords, delta)


def make_path(segments, ambient: str | None = None, ncoords: int | None = None) -> Path:
    """Build a path in canonical form from ``(direction, duration)`` segments.

    Zero-direction stretches are pauses and are removed; the remaining
    durations are rescaled to fill [0, 1], which is a reparametrisation.
    Consecutive segments pointing along the same ray are merged.  The
    endpoint must be a lattice weight.
    """
    moves = []
    total = Fraction(0)
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
        total += t
        moves.append((d * t, t))
    if ambient is None or ncoords is None:
        raise PathError("ambient of a constant path cannot be inferred")
    path = _canonical(moves, ambient, ncoords)
    if total != 1 and not path.is_constant:
        raise PathError("durations must sum to one")
    return path


def _canonical(moves, ambient: str, ncoords: int) -> Path:
    """Canonical path through ``(displacement, duration)`` segments.

    Pauses are dropped and the remaining durations rescaled to sum to
    one; collinear neighbours are merged.
    """
    moves = [(v, t) for v, t in moves if not v.is_zero]
    if not moves:
        return Path((), ambient, ncoords)
    scale = sum(t for _, t in moves)
    merged: list[tuple[Weight, Fraction]] = []
    for v, t in moves:
        if scale != 1:
            t = t / scale
        if merged:
            joined = _collinear_merge(merged[-1][0], merged[-1][1], v, t)
            if joined is not None:
                merged[-1] = joined
                continue
        merged.append((v, t))
    path = Path(tuple(merged), ambient, ncoords)
    if not path.weight().is_integral:
        raise PathError("path endpoint is not a lattice weight")
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


@dataclass(frozen=True)
class HeightExtrema:
    """Exact extremum data of the height function for one index."""

    max_value: Fraction
    eps: int
    e_minus: Fraction | None
    e_plus: Fraction
    f_plus: Fraction
    f_minus: Fraction | None
    end: Fraction  # height at time 1, which is -<h_i, wt(path)>


def height_values(cartan: AffineCartan, path: Path, i: int):
    """Times and values of the height function at the breakpoints."""
    times = path.breakpoints()
    values = [Fraction(0)]
    for v, _ in path.segments:
        values.append(values[-1] - cartan.pairing(i, v))
    while len(values) < len(times):
        values.append(values[-1])
    return times, values


def _crossing(times, values, j, level):
    """Time in [t_j, t_{j+1}] where the height passes level."""
    t0, h0 = times[j], values[j]
    return t0 + (level - h0) * (times[j + 1] - t0) / (values[j + 1] - h0)


def h_extrema(cartan: AffineCartan, path: Path, i: int) -> HeightExtrema:
    """Extremum of the height function, with the four split times.

    The maximum of a piecewise linear function sits at a breakpoint; it
    must be an integer here, which is the integrality property of paths
    generated from linear seeds.  The height starts at 0 and ends at an
    integer (the endpoint is a lattice weight), so the level max - 1 is
    reached before the first maximum when max >= 1, and after the last
    one when that is not at time 1.  Each crossing lies in the one
    segment found by scanning the breakpoints away from the maximum.
    """
    times, values = height_values(cartan, path, i)
    hmax = max(values)
    if hmax.denominator != 1:
        raise IntegralityError(
            "height maximum %s for index %d is not an integer" % (hmax, i)
        )
    eps = int(hmax)
    level = hmax - 1
    first = values.index(hmax)
    last = len(values) - 1 - values[::-1].index(hmax)
    e_minus = f_minus = None
    if eps > 0:
        j = first - 1
        while values[j] > level:
            j -= 1
        e_minus = _crossing(times, values, j, level)
    if last < len(values) - 1:
        j = last + 1
        while values[j] > level:
            j += 1
        f_minus = _crossing(times, values, j - 1, level)
    return HeightExtrema(hmax, eps, e_minus, times[first], times[last], f_minus, values[-1])


def epsilon(cartan: AffineCartan, path: Path, i: int) -> int:
    return h_extrema(cartan, path, i).eps


def phi(cartan: AffineCartan, path: Path, i: int) -> int:
    ext = h_extrema(cartan, path, i)
    return int(ext.max_value - ext.end)


# -- root operators ----------------------------------------------------


def _split_reflect(cartan, path, i, a, b):
    """Reflect the stretch [a, b] of the path by the i-th reflection."""
    out = []
    t = Fraction(0)
    for v, dur in path.segments:
        lo, hi = t, t + dur
        for x0, x1 in ((lo, min(hi, a)), (max(lo, a), min(hi, b)), (max(lo, b), hi)):
            if x1 <= x0:
                continue
            piece = v if x1 - x0 == dur else v * ((x1 - x0) / dur)
            if a <= x0 and x1 <= b:
                piece = cartan.reflect(i, piece)
            out.append((piece, x1 - x0))
        t = hi
    return _canonical(out, path.ambient, path.ncoords)


def raising_op(cartan: AffineCartan, path: Path, i: int) -> Path | None:
    """The raising root operator; None when the height maximum is zero."""
    ext = h_extrema(cartan, path, i)
    if ext.eps == 0:
        return None
    return _split_reflect(cartan, path, i, ext.e_minus, ext.e_plus)


def lowering_op(cartan: AffineCartan, path: Path, i: int) -> Path | None:
    """The lowering root operator; None when the maximum is last attained at 1."""
    ext = h_extrema(cartan, path, i)
    if ext.f_plus == 1:
        return None
    return _split_reflect(cartan, path, i, ext.f_plus, ext.f_minus)


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
    if k == 0:
        return Path((), ambient, ncoords)
    segs = [(v, t / k) for p in movers for v, t in p.segments]
    return _canonical(segs, ambient, ncoords)


def stretch(path: Path, n: int) -> Path:
    """Dilate the path by a positive integer factor."""
    if n < 1:
        raise PathError("stretch factor must be a positive integer")
    return _canonical([(v * n, t) for v, t in path.segments], path.ambient, path.ncoords)


def project(path: Path) -> Path:
    """Kill the null-root component of every direction."""
    if path.ambient != "affine":
        raise AmbientError("path is already classical")
    return _canonical(
        [(v.classical(), t) for v, t in path.segments], "classical", path.ncoords
    )


def segment_uniform(path: Path, n: int) -> list[Weight]:
    """Directions of the path on the uniform grid of step 1/n.

    Every breakpoint must lie on the grid; the j-th entry is the constant
    derivative of the path on ((j-1)/n, j/n).
    """
    if n < 1:
        raise PathError("grid size must be a positive integer")
    if path.is_constant:
        return [_zero_weight(path.ambient, path.ncoords)] * n
    out = []
    t = Fraction(0)
    for d, (_, dur) in zip(path.directions(), path.segments):
        cells = dur * n
        if cells.denominator != 1:
            raise PathError(
                "breakpoint %s is not a multiple of 1/%d" % (t + dur, n)
            )
        out.extend([d] * int(cells))
        t += dur
    return out


def grid_size(path: Path) -> int:
    """Least n putting every breakpoint of the path on the 1/n grid."""
    return lcm(*[t.denominator for t in path.breakpoints()])


class PathOps:
    """Crystal operations on paths of a fixed ambient, for the generator."""

    def __init__(self, cartan: AffineCartan, ambient: str = "classical"):
        if ambient not in ("classical", "affine"):
            raise PathError("ambient must be 'classical' or 'affine'")
        self.cartan = cartan
        self.ambient = ambient
        self.indices = tuple(cartan.indices)
        self.infinite = ambient == "affine"

    def key(self, x: Path):
        # the ambient decides whether closure needs a window, so a stray
        # element of the other ambient must not slip into a generation
        if x.ambient != self.ambient:
            raise AmbientError("path ambient does not match the crystal ambient")
        return x.key()

    def wt(self, x: Path) -> Weight:
        return x.weight()

    def strings(self, x: Path, i: int) -> tuple[int, int]:
        ext = h_extrema(self.cartan, x, i)
        return ext.eps, int(ext.max_value - ext.end)

    def e(self, x: Path, i: int):
        return raising_op(self.cartan, x, i)

    def f(self, x: Path, i: int):
        return lowering_op(self.cartan, x, i)

    def level(self, x: Path) -> Fraction:
        if self.ambient != "affine":
            raise AmbientError("classical paths have no null-root level")
        return x.weight().delta
