"""The integer grid kernel of loom.paths against the rational reference.

``fraction_paths`` recomputes heights, split times and the reflected
segments with ``Fraction`` arithmetic from the segments it reads off a
path's integer stretches; the kernel must agree with it field by field,
its cut times read through ``rational_extrema``, on every node and index of the
fundamental crystals, their affine windows, and hand-built paths with
non-integral directions, pauses and collinear neighbours.
"""

import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

import fraction_paths as ref
import loom.paths
from loom import (
    PathOps,
    Stretch,
    Weight,
    build_cartan,
    concat,
    constant_path,
    energy_table,
    fundamental_crystal,
    generate,
    h_extrema,
    linear_path,
    lowering_op,
    make_path,
    path_crystal_window,
    raising_op,
    stretch,
)
from loom.paths import uniform_stretches
from weights import coords, fund, scaled, stretch_of

FUNDAMENTALS = (("A", 2, 1), ("B", 3, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2))
# h_extrema's refusal of a path outside the model, for one index
HEIGHT_MAXIMUM = r"height maximum -?\d+/\d+ for index %s is not an integer"


def _key_of(path, segs):
    """The key of segments ``segs`` on the ambient of path."""
    return tuple(stretch_of(v, path.affine) for v, _ in segs)


def _assert_matches_reference(cartan, path, indices=None):
    assert path.key() == _key_of(path, ref.segments(path))
    for i in cartan.indices if indices is None else indices:
        ext, want = h_extrema(cartan, path, i), ref.h_extrema(cartan, path, i)
        got = ref.rational_extrema(path, ext)
        for name in want._fields:
            assert getattr(got, name) == getattr(want, name), (path, i, name)
        assert ext.phi == want.max_value - want.end
        for op, ref_op in ((raising_op, ref.raising), (lowering_op, ref.lowering)):
            got, segs = op(cartan, path, i), ref_op(cartan, path, i)
            if segs is None:
                assert got is None, (path, i, op.__name__)
            else:
                assert got is not None and ref.segments(got) == segs, (path, i, op.__name__)
                assert got.key() == _key_of(got, segs)


@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_classical_crystal_matches_reference(label, rank, i):
    cartan = build_cartan(label, rank)
    graph = fundamental_crystal(cartan, i)
    for key in graph.sorted_keys():
        _assert_matches_reference(cartan, graph.nodes[key].element)


@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_affine_window_matches_reference(label, rank, i):
    cartan = build_cartan(label, rank)
    graph = path_crystal_window(cartan, fund(cartan, i, affine=True), 2)
    for key in graph.sorted_keys():
        _assert_matches_reference(cartan, graph.nodes[key].element)


def _grid_form(path):
    return None if path is None else (path.m, path.n, path.dirs, path.cells, path.affine)


@pytest.mark.parametrize("affine", [False, True], ids=["classical", "affine"])
@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_table_rows_match_fresh_root_operators(label, rank, i, affine):
    # PathOps answers by key, so every path met with a key must share
    # the grid form of the path its row was built from
    cartan = build_cartan(label, rank)
    ops = PathOps(cartan, affine=affine)
    seed = linear_path(fund(cartan, i, affine=affine))
    graph = generate(ops, seed, window=2 if affine else None)
    for node in graph.nodes.values():
        x = node.element
        met = [x, dataclasses.replace(x)]
        met += [y for j in graph.indices for y in (ops.e(x, j), ops.f(x, j))
                if y is not None and y.key() in graph.nodes]
        # the table keeps one path per key: the one generate stored
        assert all(y is graph.nodes[y.key()].element for y in met[2:] if y.key() != graph.seed)
        for y, j in itertools.product(met, graph.indices):
            assert _grid_form(ops.e(y, j)) == _grid_form(raising_op(cartan, y, j)), (y, j)
            assert _grid_form(ops.f(y, j)) == _grid_form(lowering_op(cartan, y, j)), (y, j)


def _weyl_orbit(cartan, w):
    """The finite Weyl orbit of the level-zero stretch w, under s_1 .. s_rank."""
    orbit, frontier = {w}, [w]
    while frontier:
        frontier = [v for u in frontier for j in cartan.indices[1:]
                    for v in (cartan.reflect(j, u),) if v not in orbit]
        orbit.update(frontier)
    return sorted(orbit)


def _random_affine_path(cartan, rng):
    """A hand-built path at a nonzero level, from Weyl conjugates of a fundamental weight.

    Each stretch is a conjugate, scaled as the whole path is, with a random
    null-root entry; now and then one is doubled, moved off level zero or left
    with no classical part.  On the grid m = 2 the height maximum need not be
    an integer.
    """
    width = len(cartan.indices) + 1
    orbit = _weyl_orbit(cartan, fund(cartan, rng.choice(cartan.indices[1:]), affine=True))
    while True:
        scale, dirs = rng.choice((1, 1, 2)), []
        for _ in range(rng.randint(1, 4)):
            v = [x * scale for x in rng.choice(orbit).nums]
            flaw = rng.choice(("doubled", "off level zero", "no classical part") + (None,) * 9)
            if flaw == "doubled":
                v = [2 * x for x in v]
            elif flaw == "off level zero":
                v[0] += 1
            elif flaw == "no classical part":
                v = [0] * width
            v[-1] = rng.randint(-2, 2)
            dirs.append(v)
        cells = [rng.randint(1, 3) for _ in dirs]
        m, n = rng.choice((1, 1, 2)), sum(cells)
        try:
            path = make_path(m, n, [tuple(x * n for x in d) for d in dirs], cells, True,
                             len(cartan.indices))
        except ArithmeticError as err:
            assert str(err) == "path endpoint is not a lattice weight"
            continue
        if path.endpoint().nums[-1]:
            return path


def test_delta_orbit_rows_match_fresh_root_operators(monkeypatch):
    # an affine path off level zero reads the row of its level-zero translate
    # only when the guard lets it; either way the table must answer as the
    # fresh root operators do.  The A1 path along w1 and then 3 w1 is the one
    # the norm clause refuses, the straight path to delta has no classical
    # part, and the direct route may refuse a hand-built path outright.  Every
    # output the table hands back is queried too, to depth 2, so the moved
    # outputs, which read their rows through their level-zero sources, are
    # checked as well
    verdicts = []
    guard = PathOps._translates
    monkeypatch.setattr(PathOps, "_translates",
                        lambda *args: verdicts.append(guard(*args)) or verdicts[-1])
    rng = random.Random(3701)
    a1 = build_cartan("A", 1)
    cases = [(a1, make_path(1, 2, [(-1, 1, -5), (-3, 3, -5)], [1, 1], True, 2)),
             (build_cartan("A", 2), linear_path(build_cartan("A", 2).null_root()))]
    refused = len(cases)
    for label, rank in (("A", 1), ("A", 2), ("C", 2)):
        cartan = build_cartan(label, rank)
        cases += [(cartan, _random_affine_path(cartan, rng)) for _ in range(150)]
    tables, compared, moved = {}, 0, 0
    for n, (cartan, path) in enumerate(cases):
        ops = tables.setdefault(cartan.name, PathOps(cartan, affine=True))
        queries = [path]
        for depth in range(3):
            outputs = []
            for x in queries:
                try:
                    exts = [h_extrema(cartan, x, j) for j in cartan.indices]
                except ArithmeticError as err:
                    assert re.fullmatch(HEIGHT_MAXIMUM % r"\d+", str(err)), err
                    continue
                asked = len(verdicts)
                assert ops.strings(x) == (tuple(e.eps for e in exts), tuple(e.phi for e in exts))
                if n < refused and depth == 0:
                    # refused by the guard, the path gets a row of its own
                    assert verdicts[asked:] == [False] and ops._row(x)[1] == 0
                assert ops.wt(x) == x.endpoint()
                for j in cartan.indices:
                    for op, fresh in ((ops.e, raising_op), (ops.f, lowering_op)):
                        got, want = op(x, j), fresh(cartan, x, j)
                        # the table keeps one path per key, so past the case itself an
                        # output may come back as the first path it kept with that key
                        if depth and want:
                            want = ops._paths.get(want.key(), want)
                        assert _grid_form(got) == _grid_form(want), (x, j)
                        outputs += [got] if got else []
                compared += 1
                moved += depth > 0 and id(x) in ops._sources
            queries = outputs
    assert compared > 5000 and moved > 2000
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


def test_only_an_affine_table_keeps_sources():
    # a classical table has no levels, so it moves no output and keeps no
    # source; an affine window moves outputs off level zero and keeps theirs
    cartan = build_cartan("C", 2)
    classical = PathOps(cartan)
    generate(classical, linear_path(fund(cartan, 2)))
    affine = PathOps(cartan, affine=True)
    path_crystal_window(cartan, fund(cartan, 2, affine=True), 2, ops=affine)
    assert classical._rows and not classical._sources
    assert affine._sources


@pytest.mark.parametrize("label,rank,i", FUNDAMENTALS)
def test_uniform_stretches_walk_the_grid(label, rank, i):
    # refine keys cells by uniform_stretches
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    window = path_crystal_window(cartan, fund(cartan, i, affine=True), 2)
    grid = energy_table(base).grid
    for graph in (base, window):
        for node in graph.nodes.values():
            p = node.element
            for n in (p.n, 2 * p.n, grid):
                got = uniform_stretches(p, n)
                assert got == [d for d, c in zip(p.directions(), p.cells)
                               for _ in range(c * n // p.n)], (p, n)
                # each cell's derivative is its stretch's displacement over its duration
                assert [coords(s) for s in got] == [tuple(x / t for x in v)
                                                    for v, t in ref.segments(p)
                                                    for _ in range(int(t * n))], (p, n)


def test_uniform_stretches_of_hand_built_paths():
    a2 = build_cartan("A", 2)
    for affine in (False, True):
        zero = Stretch((0,) * (3 + affine), 1, affine)
        path = linear_path(0 * a2.null_root()) if affine else constant_path(a2)
        assert uniform_stretches(path, 3) == [zero] * 3
    w, w2 = fund(a2, 1), fund(a2, 2)
    # on the common denominator 4, the first direction 6 (w - w2) / 4 is not in lowest terms
    u, v = scaled(Fraction(3, 2), w - w2), scaled(Fraction(3, 4), w + w2)
    odd = ref.path_from_segments([(u, Fraction(1, 3)), (v, Fraction(2, 3))])
    assert uniform_stretches(odd, 3) == [u] + [v] * 2
    bent = ref.path_from_segments([(2 * w, Fraction(1, 2)), (-2 * w, Fraction(1, 2))])
    with pytest.raises(ValueError, match=r"^breakpoint 1/2 is not a multiple of 1/3$"):
        uniform_stretches(bent, 3)
    with pytest.raises(ValueError, match=r"^grid size must be a positive integer$"):
        uniform_stretches(bent, 0)


def test_collinear_neighbours_after_reflection_match_reference():
    # a stretched path followed by another puts unequal collinear
    # directions next to each other once a block is reflected
    for label, rank, i in (("A", 2, 1), ("C", 2, 1), ("G2", 2, 1)):
        cartan = build_cartan(label, rank)
        base = fundamental_crystal(cartan, i)
        paths = [base.nodes[k].element for k in base.sorted_keys()]
        for a, b in itertools.product(paths, repeat=2):
            _assert_matches_reference(cartan, concat([stretch(a, 2), b]))


def _plateau(cartan, i):
    """Every height climbs; the i-th rests at 1/2 along a middle stretch with no i-th entry."""
    def unit(j, x):
        return scaled(x, Stretch(tuple(int(k == j) for k in cartan.indices), 1, False))

    third, k = Fraction(1, 3), (i + 1) % len(cartan.indices)
    return ref.path_from_segments([(unit(i, Fraction(-3, 2)), third), (unit(k, -3), third),
                                   (unit(i, Fraction(-3, 2)), third)])


@pytest.mark.parametrize("label,rank,i", [("A", 2, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2)])
def test_random_concatenations_match_reference(label, rank, i):
    # _split_reflect copies whole every stretch the cut times miss; seeded
    # concatenations of stretched base paths must reach each split case.
    # A crystal path never rests strictly between two integer heights, so
    # one plateau path per index joins the crystal's paths
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    paths = [base.nodes[k].element for k in base.sorted_keys()]
    paths += [_plateau(cartan, j) for j in cartan.indices]
    rng = random.Random(label)
    cases = set()
    for _ in range(200):
        parts = [stretch(rng.choice(paths), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        path = stretch(concat(parts), rng.randint(1, 2))
        times, dirs = ref.breakpoints(path), path.directions()
        for j in cartan.indices:
            ext = ref.h_extrema(cartan, path, j)
            for op, a, b, crossing in ((raising_op, ext.e_minus, ext.e_plus, ext.e_minus),
                                       (lowering_op, ext.f_plus, ext.f_minus, ext.f_minus)):
                got = op(cartan, path, j)
                if crossing is None:
                    assert got is None, (path, j, op.__name__)
                    continue
                want = ref.split_reflect(cartan, path, j, a, b)
                assert got is not None and ref.segments(got) == want, (path, j, op.__name__)
                if (crossing * path.n).denominator > 1:
                    cases.add("cut off the grid")
                if crossing in times[1:-1]:
                    cases.add("cut on a stretch end")
                if any(t0 < b and t1 > a and d.nums[j] == 0
                       for d, t0, t1 in zip(dirs, times, times[1:])):
                    cases.add("block stretch off the coroot")
    assert cases == {"cut off the grid", "cut on a stretch end", "block stretch off the coroot"}


def test_segment_reader_refuses_malformed_segments():
    # the Fraction segment reader keeps every check of its input, the
    # lattice endpoint through loom.paths.make_path
    a2 = build_cartan("A", 2)
    w, fw = (fund(a2, 1, affine=a) for a in (False, True))
    half = Fraction(1, 2)
    cases = [
        ([(w, Fraction(3, 2)), (-w, -half)], ValueError, "segment durations must be positive"),
        ([(w, half), (fw, half)], ValueError, "path mixes classical and affine directions"),
        ([(w, half), (Stretch((1, 0), 1, False), half)], ValueError,
         "path mixes weights of different ranks"),
        ([(4 * w, half), (4 * w, Fraction(1, 4))], ValueError, "durations must sum to one"),
        ([(scaled(half, w), 1)], ArithmeticError, "path endpoint is not a lattice weight"),
        ([], ValueError, "ambient of a constant path cannot be inferred"),
        ([(w, 0.5), (w, 0.5)], TypeError, "expected an integer or Fraction, got 0.5"),
    ]
    for segs, error, message in cases:
        with pytest.raises(error, match="^%s$" % message):
            ref.path_from_segments(segs)
    with pytest.raises(ValueError, match="^path mixes classical and affine directions$"):
        ref.path_from_segments([(w, 1)], affine=True)
    with pytest.raises(ValueError, match="^path mixes weights of different ranks$"):
        ref.path_from_segments([(w, 1)], ncoords=2)
    # a zero duration is skipped, and pauses need not fill the interval
    assert ref.path_from_segments([(w, 1), (-w, 0)]) == linear_path(w)
    assert ref.path_from_segments([(0 * w, half)]).is_constant


def test_hand_built_paths_match_reference():
    a2 = build_cartan("A", 2)
    w1, w2 = fund(a2, 1), fund(a2, 2)
    zero = 0 * w1
    # directions 3/2 (w1 - w2) and 3/4 (w1 + w2) are not lattice weights
    odd = [(scaled(Fraction(3, 2), w1 - w2), Fraction(1, 3)),
           (scaled(Fraction(3, 4), w1 + w2), Fraction(2, 3))]
    paused = [(w1 * 4, Fraction(1, 4)), (zero, Fraction(1, 4)), (-w2 * 2, Fraction(1, 2))]
    unequal = [(w1 * 2, Fraction(1, 2)), (w1 * 6, Fraction(1, 2)), (-w2, Fraction(0))]
    for segs in (odd, paused, unequal):
        path = ref.path_from_segments(segs)
        moves = [(tuple(x * t for x in coords(d)), t) for d, t in segs if t]
        assert ref.segments(path) == ref.canonical(moves)
        integral = []
        for i in a2.indices:
            try:
                ref.h_extrema(a2, path, i)
            except ArithmeticError:
                with pytest.raises(ArithmeticError, match="^%s$" % (HEIGHT_MAXIMUM % i)):
                    h_extrema(a2, path, i)
            else:
                integral.append(i)
        assert integral
        _assert_matches_reference(a2, path, integral)
    assert ref.path_from_segments(unequal).key() == (w1 * 4,)
    assert ref.path_from_segments(odd).directions() == [d for d, _ in odd]


def test_constant_path_extrema():
    for label, rank in (("A", 2), ("G2", 2)):
        cartan = build_cartan(label, rank)
        for affine in (False, True):
            zero = linear_path(0 * cartan.null_root()) if affine else constant_path(cartan)
            for i in cartan.indices:
                ext = ref.rational_extrema(zero, h_extrema(cartan, zero, i))
                assert ext.f_plus == 1 and ext.e_plus == 0 and ext.end == 0
                assert ext.e_minus is None and ext.f_minus is None
                assert raising_op(cartan, zero, i) is None
                assert lowering_op(cartan, zero, i) is None
            _assert_matches_reference(cartan, zero)


def test_root_operators_reach_h_extrema(monkeypatch):
    # perfbench counts calls at the loom.paths:h_extrema binding; an
    # operator that bypassed it would leave that site without a call
    a2 = build_cartan("A", 2)
    path = linear_path(fund(a2, 1))
    calls = []
    original = loom.paths.h_extrema

    def counting(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(loom.paths, "h_extrema", counting)
    for run in (lambda: raising_op(a2, path, 0), lambda: lowering_op(a2, path, 1),
                lambda: PathOps(a2).strings(path)):
        before = len(calls)
        run()
        assert len(calls) > before


def test_weights_and_paths_have_no_instance_dict():
    a2 = build_cartan("A", 2)
    w = a2.classical_fundamental(1)
    named = w.weight()
    path = lowering_op(a2, linear_path(w), 1)
    for obj in (named, w, w + w, w - w, -w, w * 2, Weight((1, 2, 3)), path, linear_path(w),
                path.endpoint(), *path.key()):
        assert not hasattr(obj, "__dict__"), type(obj)
