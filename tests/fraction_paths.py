"""Rational reference for the path kernel, used only by the tests.

It builds a path from ``(direction, duration)`` segments with
:class:`~loom.cartan.Stretch` directions (``path_from_segments``), reads
a path back as ``(displacement, duration)`` segments with ``Fraction``
times and displacements given by their exact ``Fraction`` coordinates,
null-root entry last when affine (``segments``, ``breakpoints``), and
reads the cell cuts of ``loom.paths.h_extrema`` as ``Fraction`` times
(``rational_extrema``).  On those it recomputes, with ``Fraction``
arithmetic on the coordinates: heights at the breakpoints, crossing
times by linear interpolation, a three-way split of every segment
against the interval it reflects through the columns of the Cartan
matrix, and a canonical form that drops pauses, rescales the durations
and merges collinear neighbours.
The integer grid kernel in ``loom.paths`` must agree with it on every
field.  ``kappa`` is the single-point ``Fraction`` formula for the
null-root height of one turning point of ``loom.embedding.psi``'s image.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm

from loom import major_index, make_path, refine
from loom.cartan import frac
from weights import coords

Extrema = namedtuple("Extrema", "max_value eps e_minus e_plus f_plus f_minus end")


def path_from_segments(segs, affine=None, ncoords=None):
    """The path through ``(direction, duration)`` segments, read onto a grid form.

    Directions are stretches and durations integers or ``Fraction`` values.
    A zero duration is skipped and a negative one refused; the ambient flag
    ``affine`` and the rank must agree across the segments (or with the ones
    given); the durations must sum to one unless every direction is zero,
    and the endpoint must be a lattice weight, which
    ``loom.paths.make_path`` checks.
    """
    dirs, times = [], []
    for d, t in segs:
        t = frac(t)
        if t < 0:
            raise ValueError("segment durations must be positive")
        if t == 0:
            continue
        if affine is None:
            affine = d.affine
        elif affine != d.affine:
            raise ValueError("path mixes classical and affine directions")
        if ncoords is None:
            ncoords = len(d.nums) - d.affine
        elif ncoords != len(d.nums) - d.affine:
            raise ValueError("path mixes weights of different ranks")
        dirs.append(d)
        times.append(t)
    if affine is None or ncoords is None:
        raise ValueError("ambient of a constant path cannot be inferred")
    m, n = lcm(*(d.den for d in dirs)), lcm(*(t.denominator for t in times))
    dirs = [tuple(x * (m // d.den) for x in d.nums) for d in dirs]
    cells = [t.numerator * (n // t.denominator) for t in times]
    path = make_path(m, n, dirs, cells, affine, ncoords)
    if sum(times) != 1 and not path.is_constant:
        raise ValueError("durations must sum to one")
    return path


def kappa(table, graph, factors, degree, j):
    """Null-root height of the j-th uniform turning point of the image."""
    grid = table.grid
    word = refine(graph, factors, grid)
    total = grid * len(factors)
    if not 0 <= j <= total:
        raise ValueError("turning point index out of range")
    if j == 0:
        return Fraction(0)
    maj = major_index(table, word)
    chis = [table.value(word[s - 1], word[s]) for s in range(1, total)]
    head = Fraction(j, total) * (Fraction(maj, grid) + degree)
    early = sum((Fraction(s * chis[s - 1], grid) for s in range(1, j)), Fraction(0))
    late = sum((Fraction(j * chis[s - 1], grid) for s in range(j, total)), Fraction(0))
    return head - early - late


def segments(path):
    """``(displacement, duration)`` of each maximal straight stretch."""
    return tuple((coords(s), Fraction(c, path.n)) for s, c in zip(path.key(), path.cells))


def breakpoints(path):
    """Cumulative times 0 = t_0 < ... < t_k = 1."""
    times = [Fraction(t, path.n) for t in accumulate(path.cells, initial=0)]
    # the constant path still parametrises the full interval
    return times + [Fraction(1)] if path.is_constant else times


def rational_extrema(path, ext):
    """The grid extrema ``ext`` of the path with every cut as a ``Fraction`` time."""
    times = [None if t is None else Fraction(t[0], t[1] * path.n) for t in ext.cuts]
    return Extrema(Fraction(ext.eps), ext.eps, *times, Fraction(ext.eps - ext.phi))


def height_values(cartan, path, i):
    """Times and values of the height function at the breakpoints."""
    times, values = [Fraction(0)], [Fraction(0)]
    for v, t in segments(path):
        times.append(times[-1] + t)
        values.append(values[-1] - v[i])
    if path.is_constant:
        times.append(Fraction(1))
        values.append(Fraction(0))
    return times, values


def _crossing(times, values, j, level):
    t0, h0 = times[j], values[j]
    return t0 + (level - h0) * (times[j + 1] - t0) / (values[j + 1] - h0)


def h_extrema(cartan, path, i):
    times, values = height_values(cartan, path, i)
    hmax = max(values)
    if hmax.denominator != 1:
        raise ArithmeticError("non-integral height maximum")
    level = hmax - 1
    first = values.index(hmax)
    last = len(values) - 1 - values[::-1].index(hmax)
    e_minus = f_minus = None
    if hmax > 0:
        j = first - 1
        while values[j] > level:
            j -= 1
        e_minus = _crossing(times, values, j, level)
    if last < len(values) - 1:
        j = last + 1
        while values[j] > level:
            j += 1
        f_minus = _crossing(times, values, j - 1, level)
    return Extrema(hmax, int(hmax), e_minus, times[first], times[last], f_minus, values[-1])


def _collinear(u, v):
    j = next(k for k, a in enumerate(u) if a != 0)
    return u[j] * v[j] > 0 and all(a * v[j] == b * u[j] for a, b in zip(u, v))


def canonical(moves):
    """Canonical ``(displacement, duration)`` segments through the moves."""
    moves = [(v, t) for v, t in moves if any(v)]
    scale = sum(t for _, t in moves)
    merged = []
    for v, t in moves:
        t = t / scale
        if merged and _collinear(merged[-1][0], v):
            merged[-1] = (tuple(map(sum, zip(merged[-1][0], v))), merged[-1][1] + t)
        else:
            merged.append((v, t))
    return tuple(merged)


def _reflect(cartan, i, v):
    # alpha_i is the i-th column of the matrix, with null-root entry 1 at node 0
    root = [row[i] for row in cartan.matrix] + [int(i == 0)]
    return tuple(x - v[i] * r for x, r in zip(v, root))


def split_reflect(cartan, path, i, a, b):
    """Segments of the path with the interval [a, b] reflected by s_i."""
    out = []
    t = Fraction(0)
    for v, dur in segments(path):
        lo, hi = t, t + dur
        for x0, x1 in ((lo, min(hi, a)), (max(lo, a), min(hi, b)), (max(lo, b), hi)):
            if x1 <= x0:
                continue
            piece = tuple(x * (x1 - x0) / dur for x in v)
            if a <= x0 and x1 <= b:
                piece = _reflect(cartan, i, piece)
            out.append((piece, x1 - x0))
        t = hi
    return canonical(out)


def raising(cartan, path, i):
    ext = h_extrema(cartan, path, i)
    if ext.eps == 0:
        return None
    return split_reflect(cartan, path, i, ext.e_minus, ext.e_plus)


def lowering(cartan, path, i):
    ext = h_extrema(cartan, path, i)
    if ext.f_plus == 1:
        return None
    return split_reflect(cartan, path, i, ext.f_plus, ext.f_minus)
