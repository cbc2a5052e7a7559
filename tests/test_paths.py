from fractions import Fraction

import pytest

from loom import (
    PathOps,
    build_cartan,
    concat,
    constant_path,
    make_path,
    fundamental_crystal,
    h_extrema,
    linear_path,
    lowering_op,
    path_crystal_window,
    project,
    raising_op,
    stretch,
    weyl_act,
)
from loom.cartan import Stretch
from loom.paths import uniform_stretches
from fraction_paths import height_values, path_from_segments, rational_extrema, segments
from weights import coords, fund, highest_finite_root, scaled


def strings(cartan, path, i):
    ext = h_extrema(cartan, path, i)
    return ext.eps, ext.phi


def test_linear_path_statistics(a1, a2):
    zero = constant_path(a1)
    for i in a1.indices:
        assert strings(a1, zero, i) == (0, 0)
    pp = linear_path(fund(a1))
    assert strings(a1, pp, 1) == (0, 1)
    assert strings(a1, pp, 0) == (1, 0)
    p2 = linear_path(fund(a2))
    assert strings(a2, p2, 0)[0] == 1
    assert strings(a2, p2, 1)[0] == 0 and strings(a2, p2, 2)[0] == 0


def test_linear_path_needs_integrality(a1, a2):
    with pytest.raises(ValueError, match="^linear paths need an integral endpoint$"):
        linear_path(Stretch((1, -1), 2, False))
    delta = a2.null_root()
    with pytest.raises(ValueError, match="^linear paths need an integral endpoint$"):
        linear_path(scaled(Fraction(1, 2), fund(a2, affine=True)) + delta)
    with pytest.raises(ValueError, match="^linear paths need an integral endpoint$"):
        linear_path(fund(a2, affine=True) + scaled(Fraction(1, 3), delta))


def test_linear_path_matches_the_rational_rebuild(a1, a2):
    # linear_path reads its weight once into a grid form; the Fraction
    # segment reader is the independent route
    for cartan in (a1, a2):
        for affine in (False, True):
            zero = linear_path(Stretch((0,) * (cartan.rank + 1 + affine), 1, affine))
            want = linear_path(0 * cartan.null_root()) if affine else constant_path(cartan)
            assert zero == want
            assert (zero.m, zero.n, zero.dirs, zero.cells) == (1, 1, (), ())
            assert zero.affine is affine
            assert zero.ncoords == len(cartan.indices)
        fw, delta = fund(cartan, affine=True), cartan.null_root()
        classical = fund(cartan, cartan.rank) - 2 * fund(cartan)
        for w in (fw, 2 * fw - 3 * delta, delta, -fw + delta, classical):
            path, want = linear_path(w), path_from_segments([(w, 1)])
            assert (path.m, path.n, path.dirs, path.cells) == (
                want.m, want.n, want.dirs, want.cells)
            assert path.endpoint() == w


def test_the_ambient_is_a_keyword_only_flag(a1):
    # the old spellings fail loudly: a positional "classical" would read as
    # a truthy flag and build an affine kind
    assert not PathOps(a1).infinite and PathOps(a1, affine=True).infinite
    with pytest.raises(TypeError):
        PathOps(a1, "classical")
    with pytest.raises(TypeError):
        constant_path(a1, classical=True)
    with pytest.raises(TypeError):
        a1.classical_fundamental(1, classical=False)
    with pytest.raises(TypeError):
        a1.classical_fundamental(1, True)


def test_height_extrema(a1):
    pp = linear_path(fund(a1))
    ext0 = rational_extrema(pp, h_extrema(a1, pp, 0))
    assert ext0.max_value == 1 and ext0.e_plus == 1 and ext0.e_minus == 0
    ext1 = rational_extrema(pp, h_extrema(a1, pp, 1))
    assert ext1.max_value == 0 and ext1.e_plus == 0
    zero = constant_path(a1)
    assert rational_extrema(zero, h_extrema(a1, zero, 0)).max_value == 0


# Reference split times: a crossing search over every segment of the
# height function, independent of the one-segment scans in h_extrema.


def _ref_segment_hits(t0, t1, h0, h1, level):
    if h0 == h1:
        return [t0, t1] if h0 == level else []
    if not (min(h0, h1) <= level <= max(h0, h1)):
        return []
    return [t0 + (level - h0) * (t1 - t0) / (h1 - h0)]


def _ref_cross_backward(times, values, upto, level):
    """Largest time <= upto where the height equals level."""
    best = None
    for j in range(len(times) - 1):
        t0, t1 = times[j], times[j + 1]
        if t0 > upto:
            break
        for cand in _ref_segment_hits(t0, t1, values[j], values[j + 1], level):
            if cand <= min(t1, upto) and (best is None or cand > best):
                best = cand
    return best


def _ref_cross_forward(times, values, start, level):
    """Smallest time >= start where the height equals level."""
    for j in range(len(times) - 1):
        t0, t1 = times[j], times[j + 1]
        if t1 < start:
            continue
        hits = [c for c in _ref_segment_hits(t0, t1, values[j], values[j + 1], level)
                if c >= start]
        if hits:
            return min(hits)
    return None


def _ref_split_times(cartan, path, i):
    times, values = height_values(cartan, path, i)
    hmax = max(values)
    e_plus = next(t for t, v in zip(times, values) if v == hmax)
    f_plus = next(t for t, v in reversed(list(zip(times, values))) if v == hmax)
    e_minus = _ref_cross_backward(times, values, e_plus, hmax - 1) if hmax > 0 else None
    f_minus = _ref_cross_forward(times, values, f_plus, hmax - 1) if f_plus != 1 else None
    return e_minus, e_plus, f_plus, f_minus


def test_split_times_match_reference():
    crystals = []
    for t, r, i in (("A", 2, 1), ("B", 3, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2)):
        cartan = build_cartan(t, r)
        crystals.append((cartan, fundamental_crystal(cartan, i)))
    a1 = build_cartan("A", 1)
    crystals.append((a1, path_crystal_window(a1, fund(a1, affine=True), 2)))
    grids = set()
    for cartan, graph in crystals:
        for key in graph.sorted_keys():
            path = graph.nodes[key].element
            grids.add(path.n)
            for i in cartan.indices:
                ext = rational_extrema(path, h_extrema(cartan, path, i))
                got = (ext.e_minus, ext.e_plus, ext.f_plus, ext.f_minus)
                assert got == _ref_split_times(cartan, path, i), (path, i)
    assert 2 in grids


def test_nonintegral_height_maximum_rejected(a1):
    w = fund(a1)
    bent = path_from_segments([(w, Fraction(1, 2)), (-3 * w, Fraction(1, 2))])
    with pytest.raises(ArithmeticError,
                       match="^height maximum 1/2 for index 0 is not an integer$"):
        h_extrema(a1, bent, 0)


def test_root_operator_base_cases(a1, a2):
    pp, pm = linear_path(fund(a1)), linear_path(-fund(a1))
    assert raising_op(a1, pp, 0) == pm
    assert raising_op(a1, pp, 1) is None
    assert lowering_op(a1, pp, 1) == pm
    assert lowering_op(a1, pm, 1) is None
    theta = highest_finite_root(a2)
    assert raising_op(a2, linear_path(fund(a2)), 0) == linear_path(fund(a2) - theta)
    assert linear_path(fund(a2) - theta) == linear_path(-fund(a2, 2))


def test_operators_are_quasi_inverse(a1_base, a1, a2_base, a2, c2_base, c2):
    for cartan, graph in ((a1, a1_base), (a2, a2_base), (c2, c2_base)):
        for key in graph.sorted_keys():
            path = graph.nodes[key].element
            for i in cartan.indices:
                down = lowering_op(cartan, path, i)
                if down is not None:
                    assert raising_op(cartan, down, i) == path
                up = raising_op(cartan, path, i)
                if up is not None:
                    assert lowering_op(cartan, up, i) == path


def test_operator_weight_gradient(a2, a2_base):
    for key in a2_base.sorted_keys():
        path = a2_base.nodes[key].element
        for i in a2.indices:
            down = lowering_op(a2, path, i)
            if down is not None:
                assert down.endpoint() == path.endpoint() - a2.simple_root(i)


def test_weyl_action(a1, a2):
    pp = linear_path(fund(a1))
    assert weyl_act(a1, pp, 1) == linear_path(-fund(a1))
    assert weyl_act(a1, weyl_act(a1, pp, 1), 1) == pp
    assert weyl_act(a1, constant_path(a1), 0) == constant_path(a1)
    for i in a2.indices:
        lam = fund(a2) + fund(a2, 2)
        assert weyl_act(a2, linear_path(lam), i) == linear_path(a2.reflect(i, lam))


def test_weyl_action_out_of_string_is_a_fault(a1, monkeypatch):
    # the string of a path is its endpoint pairing long; a shorter one means
    # the operators are broken, not the input
    monkeypatch.setattr("loom.paths.lowering_op", lambda cartan, path, i: None)
    with pytest.raises(ArithmeticError, match="^Weyl action ran out of string") as err:
        weyl_act(a1, linear_path(fund(a1)), 1)
    assert not isinstance(err.value, ValueError)


def test_weyl_involution_on_bent_paths(a1, a1_base, a2, a2_base):
    import itertools

    for cartan, graph in ((a1, a1_base), (a2, a2_base)):
        paths = [graph.nodes[k].element for k in graph.sorted_keys()]
        for pair in itertools.product(paths, repeat=2):
            bent = concat(list(pair))
            for i in cartan.indices:
                assert weyl_act(cartan, weyl_act(cartan, bent, i), i) == bent


def test_concat(a1):
    pp, pm = linear_path(fund(a1)), linear_path(-fund(a1))
    two = concat([pp, pm])
    assert len(segments(two)) == 2 and not any(two.endpoint().nums)
    assert concat([pp, pp]) == stretch(pp, 2)
    assert concat([pp, constant_path(a1)]) == pp
    with pytest.raises(ValueError, match="^concatenation mixes ambients$"):
        concat([pp, linear_path(0 * a1.null_root())])


def test_stretch(a1):
    pp = linear_path(fund(a1))
    assert stretch(pp, 3) == linear_path(3 * fund(a1))
    assert stretch(pp, 1) == pp
    with pytest.raises(ValueError, match="^stretch factor must be a positive integer$"):
        stretch(pp, 0)


def test_stretch_intertwines_operators(a1, a1_base, a2, a2_base):
    for cartan, graph in ((a1, a1_base), (a2, a2_base)):
        for key in graph.sorted_keys():
            path = graph.nodes[key].element
            for i in cartan.indices:
                for n in (2, 3):
                    lifted = raising_op(cartan, path, i)
                    big = stretch(path, n)
                    for _ in range(n):
                        big = None if big is None else raising_op(cartan, big, i)
                    assert big == (None if lifted is None else stretch(lifted, n))


def test_projection(a1):
    fw = fund(a1, affine=True)
    delta = a1.null_root()
    assert project(linear_path(3 * fw + 2 * delta)) == linear_path(3 * fund(a1))
    with pytest.raises(ValueError, match="^path is already classical$"):
        project(linear_path(fund(a1)))
    affine = linear_path(fw + delta)
    for i in a1.indices:
        assert strings(a1, affine, i)[0] == strings(a1, project(affine), i)[0]


def test_projection_commutes_on_window(a1):
    from loom import PathOps, generate

    graph = generate(PathOps(a1, affine=True), linear_path(fund(a1, affine=True)),
                     window=2)
    for key in graph.sorted_keys():
        path = graph.nodes[key].element
        if abs(path.endpoint().nums[-1]) > path.endpoint().den:
            continue
        for i in a1.indices:
            lifted = raising_op(a1, path, i)
            if lifted is not None:
                assert project(lifted) == raising_op(a1, project(path), i)


def test_segment_uniform(a1):
    pp = linear_path(fund(a1))
    assert uniform_stretches(pp, 2) == [fund(a1)] * 2
    bent = lowering_op(a1, stretch(pp, 2), 1)
    dirs = uniform_stretches(bent, 2)
    assert dirs == [-2 * fund(a1), 2 * fund(a1)]
    rebuilt = path_from_segments([(d, Fraction(1, 2)) for d in dirs])
    assert rebuilt == bent
    with pytest.raises(ValueError, match="^breakpoint 1/2 is not a multiple of 1/3$"):
        uniform_stretches(bent, 3)
    assert bent.n == 2


def test_segmentation_reflection_law(a1, a1_base, a2, a2_base, c2, c2_base):
    # a raising step reflects one contiguous block of the uniform word and
    # that block's pairing sum accounts for exactly one unit of height
    from loom import choose_grid

    for cartan, graph, power in ((a1, a1_base, 2), (a2, a2_base, 2), (c2, c2_base, 1)):
        import itertools

        base_grid = choose_grid(graph)
        paths = [(graph.nodes[k].element, base_grid) for k in graph.sorted_keys()]
        samples = list(paths)
        if power > 1:
            samples += [
                (concat(list(pair)), base_grid * power)
                for pair in itertools.product([p for p, _ in paths], repeat=power)
            ]
        for path, n in samples:
            word = uniform_stretches(path, n)
            for i in cartan.indices:
                lifted = raising_op(cartan, path, i)
                if lifted is None:
                    continue
                ext = rational_extrema(path, h_extrema(cartan, path, i))
                k = ext.e_minus * n
                l = ext.e_plus * n
                assert k.denominator == 1 and l.denominator == 1
                k, l = int(k), int(l)
                lifted_word = uniform_stretches(lifted, n)
                for j in range(n):
                    if k < j + 1 <= l:
                        assert lifted_word[j] == cartan.reflect(i, word[j])
                    else:
                        assert lifted_word[j] == word[j]
                assert sum(coords(word[j])[i] for j in range(k, l)) == -n


def test_equality_up_to_reparametrization(a1):
    w = fund(a1)
    u = -w
    one = path_from_segments([(2 * w, Fraction(1, 2)), (2 * u, Fraction(1, 2))])
    other = path_from_segments([(3 * w, Fraction(1, 3)),
                                (scaled(Fraction(3, 2), u), Fraction(2, 3))])
    assert one == other
    assert hash(one) == hash(other)
    assert one.key() == (w, u)


def test_equal_grid_forms_compare_without_keys():
    # one grid form is one path, so the comparison computes no key; the
    # ambient and the rank still tell two such paths apart
    def fresh(affine, ncoords):
        return make_path(1, 2, [(2, 0, 2), (0, 2, -2)], [1, 1], affine, ncoords)

    one, other = fresh(True, 2), fresh(True, 2)
    assert one is not other and one == other
    assert one._key is None and other._key is None
    assert one != fresh(False, 3) and one != fresh(True, 3)
    assert fresh(False, 3) != fresh(False, 2)


def test_pause_segments_are_dropped(a1):
    w = fund(a1)
    zero = 0 * w
    paused = path_from_segments([(2 * w, Fraction(1, 2)), (zero, Fraction(1, 2))])
    assert paused == linear_path(w)
