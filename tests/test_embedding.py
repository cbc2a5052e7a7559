import dataclasses
import inspect
import itertools
import json
from fractions import Fraction

import pytest

import loom.paths
from loom import (
    CrystalGraph,
    PathOps,
    affinized_tensor_crystal,
    build_cartan,
    c_class,
    concat,
    energy_table,
    fundamental_crystal,
    linear_path,
    path_crystal_window,
    project,
    psi,
    raising_op,
    refine,
    verify_decomposition,
)
from loom.cli import main
from loom.crystals import moves
from loom.embedding import Report, psi_checks, tensor_power_crystal
from loom.energy import EnergyTable
from loom.verify import run_suite
from fraction_paths import kappa, path_from_segments
from isomorphism import isomorphic
from weights import coords, fund, scaled, stretch_of


def test_kappa_fixture(a1_keys, a1_base, a1_energy):
    kp, km = a1_keys
    assert kappa(a1_energy, a1_base, (kp, km), 0, 1) == Fraction(-1, 2)
    assert kappa(a1_energy, a1_base, (kp, km), 0, 2) == 0
    with pytest.raises(ValueError, match="^turning point index out of range$"):
        kappa(a1_energy, a1_base, (kp, km), 0, 3)


def test_kappa_on_diagonal_is_linear(a1_keys, a1_base, a1_energy):
    kp, _ = a1_keys
    for m in (1, 2, 3):
        for n in range(-2, 3):
            for j in range(m + 1):
                assert kappa(a1_energy, a1_base, (kp,) * m, n, j) == Fraction(j * n, m)


def test_kappa_endpoint_is_degree(a1, a1_base, a1_energy):
    for m in (2, 3):
        for b in itertools.product(a1_base.sorted_keys(), repeat=m):
            for n in (-2, 0, 1):
                assert kappa(a1_energy, a1_base, b, n, m * a1_energy.grid) == n


def test_psi_fixtures(a1, a1_keys, a1_base, a1_energy):
    kp, km = a1_keys
    fw = fund(a1, 1, affine=True)
    delta = a1.null_root()
    img = psi(a1_energy, a1_base, ((kp, kp), 0))
    assert img == linear_path(2 * fw)
    bent = psi(a1_energy, a1_base, ((kp, km), 0))
    assert bent.key()[0] == fw - scaled(Fraction(1, 2), delta)
    assert not any(bent.endpoint().nums)
    # the turning points sit at the heights 0, -1/2 and 0
    assert _grid_form(bent) == _grid_form(
        _from_heights(a1_base, a1_energy, (kp, km), (0, Fraction(-1, 2), 0)))

    lifted = raising_op(a1, bent, 0)
    other = psi(a1_energy, a1_base, ((km, km), 1))
    assert lifted == other
    assert other.endpoint() == -2 * fw + delta
    assert _grid_form(other) == _grid_form(
        _from_heights(a1_base, a1_energy, (km, km), (0, Fraction(1, 2), 1)))


def test_psi_projects_to_concatenation(a1, a1_base, a1_energy):
    for b in itertools.product(a1_base.sorted_keys(), repeat=2):
        for n in (-1, 0, 2):
            img = psi(a1_energy, a1_base, (b, n))
            shadow = concat([a1_base.nodes[k].element for k in b])
            assert project(img) == shadow


def test_c_class(a1_keys, a1_base, a1_energy):
    kp, km = a1_keys
    for m in (2, 3):
        for r in range(-3, 4):
            assert c_class(a1_energy, ((kp,) * m, r), m) == r % m
    assert c_class(a1_energy, ((kp, km), 0), 2) == 1
    # degrees -1..1 keep every neighbour inside the window 2
    aff = affinized_tensor_crystal(a1_base, 2, 2)
    for b in itertools.product(a1_base.sorted_keys(), repeat=2):
        for n in (-1, 0, 1):
            x = (b, n)
            before = c_class(a1_energy, x, 2)
            for _i, _kind, moved in moves(aff, x):
                if moved is not None:
                    assert c_class(a1_energy, moved, 2) == before


def _subgraph(graph, keep):
    nodes = {k: graph.nodes[k] for k in keep}
    edges = {
        (s, i): d for (s, i), d in graph.f_edges.items() if s in keep and d in keep
    }
    return CrystalGraph(
        label=graph.label + ":sub", indices=graph.indices, nodes=nodes,
        f_edges=edges, seed=next(iter(sorted(keep))), truncated=True,
        window=graph.window,
    )


def test_image_isomorphic_to_straight_piece(a1, a1_base, a1_energy):
    from loom.crystals import Node
    from loom import PathOps

    window, m = 3, 2
    aff = affinized_tensor_crystal(a1_base, m, window)
    images = {k: psi(a1_energy, a1_base, k) for k in aff.sorted_keys()}

    inner_class0 = {
        k for k in aff.nodes
        if abs(k[1]) <= window - 1 and c_class(a1_energy, k, m) == 0
    }
    ops = PathOps(a1, affine=True)
    image_nodes = {}
    image_edges = {}
    for k in inner_class0:
        path = images[k]
        eps, phi = ops.strings(path)
        image_nodes[path.key()] = Node(path, path.endpoint(), eps, phi)
    for (src, i), dst in aff.f_edges.items():
        if src in inner_class0 and dst in inner_class0:
            image_edges[(images[src].key(), i)] = images[dst].key()
    image_graph = CrystalGraph(
        label="psi-image", indices=tuple(a1.indices), nodes=image_nodes,
        f_edges=image_edges, seed=images[((a1_base.seed,) * m, 0)].key(),
        truncated=True, window=window - 1,
    )

    fw = fund(a1, 1, affine=True)
    piece = path_crystal_window(a1, 2 * fw, window)
    keep = {k for k in piece.nodes if abs(coords(piece.nodes[k].wt)[-1]) <= window - 1}
    piece_graph = _subgraph(piece, keep)

    mapping = isomorphic(image_graph, piece_graph)
    assert mapping is not None
    assert mapping == {k: k for k in image_nodes}


def test_tensor_power_closure_is_full(a1, a1_base):
    graph = tensor_power_crystal(a1_base, 3)
    assert len(graph) == len(a1_base) ** 3


def test_decomposition_reports(a1, a2):
    for cartan, m, window in ((a1, 1, 3), (a1, 2, 3), (a1, 3, 4), (a2, 2, 3)):
        report = verify_decomposition(cartan, 1, m, window)
        assert report["pass"], report
        names = {c["name"] for c in report["checks"]}
        assert {"image_equals_union", "pieces_pairwise_disjoint",
                "classes_match_pieces", "psi_preserves_operators",
                "psi_injective", "degree_shift_periodicity"} <= names
    with pytest.raises(ValueError, match="^window must be at least 2$"):
        verify_decomposition(a1, 1, 2, 1)
    # no piece shifted by m fits, so degree_shift_periodicity would check nothing
    with pytest.raises(ValueError, match="^tensor power 4 exceeds the window 3$"):
        verify_decomposition(a1, 1, 4, 3)


def test_m1_image_matches_piece(a1, a1_base, a1_energy):
    window = 3
    aff = affinized_tensor_crystal(a1_base, 1, window)
    fw = fund(a1, 1, affine=True)
    piece = path_crystal_window(a1, fw, window)
    inner_piece = {
        k for k in piece.nodes if abs(coords(piece.nodes[k].wt)[-1]) <= window - 1
    }
    inner_images = {
        psi(a1_energy, a1_base, k).key()
        for k in aff.nodes if abs(k[1]) <= window - 1
    }
    assert inner_images == inner_piece


@pytest.mark.parametrize("label,rank,m,window", [
    ("A", 2, 4, 4), ("B", 3, 2, 2), ("C", 2, 2, 2), ("D", 4, 2, 3), ("G2", 2, 1, 2),
])
def test_psi_heights_match_single_point_kappa(label, rank, m, window):
    # psi reads every height off two running sums as integer numerators and
    # assembles its grid form over one common denominator; kappa is the
    # single-point Fraction formula, recomputed on its own for each j, and
    # the image is rebuilt from those heights through path_from_segments, so
    # equal grid forms mean psi's image is the path through kappa's heights.
    # G2 w1 has grid 6, with base paths on the grids 1, 2, 3 and 6
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, 2 if label == "C" else 1)
    table = energy_table(base)
    grid = table.grid
    assert grid == {"A": 1, "B": 2, "C": 2, "D": 1, "G2": 6}[label]
    aff = affinized_tensor_crystal(base, m, window)
    total = grid * m
    for factors, degree in aff.sorted_keys():
        image = psi(table, base, (factors, degree))
        heights = [kappa(table, base, factors, degree, j) for j in range(total + 1)]
        want = _from_heights(base, table, factors, heights)
        assert _grid_form(image) == _grid_form(want), (factors, degree)


CHECK_NAMES = [
    "psi_injective", "psi_of_straight_seeds", "psi_endpoint_law", "pieces_pairwise_disjoint",
    "image_equals_union", "classes_match_pieces", "psi_preserves_operators",
    "degree_shift_periodicity", "no_edge_crosses_classes",
]


def _passing_checks(**details):
    return [{"name": n, "pass": True, "detail": details.get(n, "")} for n in CHECK_NAMES]


def _counted(n, noun, skipped=0):
    return "%d %s compared, %d skipped" % (n, noun, skipped)


# full decompose records of the check-by-check implementation.  The counts,
# where an a-string times a b-string has (a + 1)(b + 1) - min(a, b) - 1 edges:
# - A1 w1 m2 W3: 7 degrees -3..3 and 2^2 * 7 = 28 nodes; pieces 0..3, so the
#   shifts (0, 2) and (1, 3); per index the base is one 1-string, so the
#   square has 2 edges per index, and W3 keeps 2 * 7 1-edges and 2 * 6
#   0-edges (a 0-edge lowers the degree): 26 edges.
# - C2 w2 m2 W2: 5 degrees and 5^2 * 5 = 125 nodes; pieces 0..2, so the one
#   shift (0, 2); per index 0 and 2 the base is two 1-strings and a fixed
#   node (square: 4 * 2 + 4 * 1 = 12 edges), per index 1 one 2-string and
#   two fixed nodes (square: 6 + 4 * 2 = 14 edges), so W2 keeps
#   (12 + 14) * 5 + 12 * 4 = 178 edges.
# psi_injective compares every node; pieces_pairwise_disjoint every node of
# the union of pieces 0..m-1 (the image_inner count, 11 + 9 = 20 on A1 and
# 35 + 40 = 75 on C2); classes_match_pieces each of the m = 2 classes.
GOLDEN_REPORTS = [
    (("A", 1, 1, 2, 3), {
        "suite": "decompose", "params": {"type": "A1", "i": 1, "power": 2, "window": 3},
        "checks": _passing_checks(psi_injective=_counted(28, "nodes"),
                                  psi_of_straight_seeds=_counted(7, "degrees"),
                                  psi_endpoint_law=_counted(28, "nodes"),
                                  pieces_pairwise_disjoint=_counted(20, "nodes"),
                                  image_equals_union="image 20, union 20",
                                  classes_match_pieces=_counted(2, "classes"),
                                  psi_preserves_operators=_counted(76, "moves", 4),
                                  degree_shift_periodicity=_counted(2, "shifts"),
                                  no_edge_crosses_classes=_counted(26, "edges")),
        "pass": True,
        "counts": {"base": 2, "affinized": 28, "image_inner": 20,
                   "pieces_inner": {"0": 11, "1": 9}},
    }),
    (("C", 2, 2, 2, 2), {
        "suite": "decompose", "params": {"type": "C2", "i": 2, "power": 2, "window": 2},
        "checks": _passing_checks(psi_injective=_counted(125, "nodes"),
                                  psi_of_straight_seeds=_counted(5, "degrees"),
                                  psi_endpoint_law=_counted(125, "nodes"),
                                  pieces_pairwise_disjoint=_counted(75, "nodes"),
                                  image_equals_union="image 75, union 75",
                                  classes_match_pieces=_counted(2, "classes"),
                                  psi_preserves_operators=_counted(426, "moves", 24),
                                  degree_shift_periodicity=_counted(1, "shifts"),
                                  no_edge_crosses_classes=_counted(178, "edges")),
        "pass": True,
        "counts": {"base": 5, "affinized": 125, "image_inner": 75,
                   "pieces_inner": {"0": 35, "1": 40}},
    }),
]


# the energy-table grid of each golden base; C2 w2 runs on grid 2
GOLDEN_GRIDS = {("A", 1, 1): 1, ("C", 2, 2): 2}


@pytest.mark.parametrize("args,golden", GOLDEN_REPORTS)
def test_decomposition_report_is_golden(args, golden):
    label, rank, i, m, window = args
    cartan = build_cartan(label, rank)
    assert energy_table(fundamental_crystal(cartan, i)).grid == GOLDEN_GRIDS[label, rank, i]
    assert verify_decomposition(cartan, i, m, window) == golden


@pytest.mark.parametrize("args,golden", GOLDEN_REPORTS)
def test_one_record_through_three_entry_points(tmp_path, args, golden):
    label, rank, i, m, window = args
    direct = verify_decomposition(build_cartan(label, rank), i, m, window)
    suite = run_suite("decompose", type_label=label, rank=rank, i=i, power=m, window=window)
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "decompose", "--type", label, "--rank", str(rank),
            "--i", str(i), "--m", str(m), "--window", str(window), "--json", "--out", str(out)]
    assert main(argv) == 0
    assert direct == suite == json.loads(out.read_text()) == golden


def _failing(report):
    assert not report["pass"]
    return {c["name"] for c in report["checks"] if not c["pass"]}


def _checks(report):
    return {c["name"]: (c["pass"], c["detail"]) for c in report["checks"]}


def test_every_decomposition_check_can_fail(a1, a1_base, monkeypatch):
    import loom.embedding as emb

    m, window = 2, 3
    real_class, real_psi, real_window = emb.c_class, emb.psi, emb.path_crystal_window

    def wrong_class(table, element, m):
        factors, degree = element
        moved = degree == 0 and factors == (a1_base.seed,) * m
        return (real_class(table, element, m) + moved) % m

    with monkeypatch.context() as mp:
        mp.setattr(emb, "c_class", wrong_class)
        failed = _failing(verify_decomposition(a1, 1, m, window))
    assert {"classes_match_pieces", "no_edge_crosses_classes"} <= failed

    def wrong_psi(table, graph, element):
        # one non-seed key at degree 0 is sent to its image at degree 1
        other = next(k for k in graph.sorted_keys() if k != graph.seed)
        if element == ((graph.seed, other), 0):
            element = ((graph.seed, other), 1)
        return real_psi(table, graph, element)

    with monkeypatch.context() as mp:
        mp.setattr(emb, "psi", wrong_psi)
        report = verify_decomposition(a1, 1, m, window)
    assert {"psi_injective", "psi_preserves_operators"} <= _failing(report)
    # two of the 28 nodes now share an image key
    assert _checks(report)["psi_injective"] == (False, "28 nodes compared, 0 skipped")

    def overlapping(cartan, seed, window, **kw):
        # piece 1 comes back as piece 0, so all 11 nodes of piece 0 lie in two pieces
        if coords(seed)[-1] == 1:
            seed = seed - a1.null_root()
        return real_window(cartan, seed, window, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(emb, "path_crystal_window", overlapping)
        report = verify_decomposition(a1, 1, m, window)
    assert "pieces_pairwise_disjoint" in _failing(report)
    assert _checks(report)["pieces_pairwise_disjoint"] == (False, "11 nodes compared, 0 skipped")

    def wrong_shift(cartan, seed, window, **kw):
        # a piece shifted by m comes back shifted by m - 1, another class
        if coords(seed)[-1] >= m:
            seed = seed - a1.null_root()
        return real_window(cartan, seed, window, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(emb, "path_crystal_window", wrong_shift)
        failed = _failing(verify_decomposition(a1, 1, m, window))
    assert "degree_shift_periodicity" in failed


def test_a_planted_translation_fault_fails_the_decomposition(a2, monkeypatch):
    # every piece reads one PathOps table, whose rows off level zero are
    # level-zero rows with each output moved on demand.  Outputs moved by
    # s + 1 delta instead of s delta break the operator graph itself, and
    # generate raises the library's fault type, not the ValueError of bad input
    real = PathOps._moved
    with monkeypatch.context() as mp:
        mp.setattr(PathOps, "_moved", lambda self, y, s: real(self, y, s + 1) if s else y)
        with pytest.raises(ArithmeticError, match="^conflicting lowering edges") as err:
            verify_decomposition(a2, 1, 2, 3)
    assert not isinstance(err.value, ValueError)

    real_f = PathOps.f

    def no_lowering(self, x, i):
        # a translated row that loses its lowering moves still closes to a
        # consistent graph; the psi images, built apart from the table, expose it
        return None if self._row(x)[1] else real_f(self, x, i)

    with monkeypatch.context() as mp:
        mp.setattr(PathOps, "f", no_lowering)
        failed = _failing(verify_decomposition(a2, 1, 2, 3))
    assert {"image_equals_union", "classes_match_pieces"} <= failed
    assert verify_decomposition(a2, 1, 2, 3)["pass"]


@pytest.mark.parametrize("label,rank,i", [("A", 2, 1), ("C", 2, 2)])
def test_a_planted_row_weight_fault_fails_the_decomposition(monkeypatch, label, rank, i):
    # translated rows report their weight one delta too high: the pieces
    # lose their nodes at the inner window's top degree
    cartan = build_cartan(label, rank)
    real, delta = PathOps.wt, cartan.null_root()

    def one_delta_high(self, x):
        return real(self, x) + delta if self._row(x)[1] else real(self, x)

    with monkeypatch.context() as mp:
        mp.setattr(PathOps, "wt", one_delta_high)
        failed = _failing(verify_decomposition(cartan, i, 2, 3))
    assert {"image_equals_union", "classes_match_pieces"} <= failed


def test_each_output_is_translated_once_per_level(a2, monkeypatch):
    # every piece reads one table; an output moved to level s is kept and
    # reused, wherever else it is reached from.  A moved output reads its
    # row through its level-zero source, so the row lookup, which moves only
    # other paths down to their level-zero translates, never translates a
    # path that came out of _moved
    real, real_row, real_moved = loom.paths.translate, PathOps._row, PathOps._moved
    in_row, moved, came_out, looked_up = [], [], {}, []

    def row(self, x):
        in_row.append(x)
        try:
            return real_row(self, x)
        finally:
            in_row.pop()

    def counted(path, s):
        if in_row:
            looked_up.append(path)
            assert id(path) not in came_out, path
        else:
            moved.append((path.key(), s))
        return real(path, s)

    def remembered(self, y, s):
        out = real_moved(self, y, s)
        if s and out:
            came_out[id(out)] = out
        return out

    monkeypatch.setattr(PathOps, "_row", row)
    monkeypatch.setattr(PathOps, "_moved", remembered)
    monkeypatch.setattr(loom.paths, "translate", counted)
    assert verify_decomposition(a2, 1, 2, 3)["pass"]
    assert moved and len(set(moved)) == len(moved)
    assert {s for _, s in moved} == {-3, -2, -1, 1, 2, 3}
    # the seeds of the pieces off level zero still go down in the row lookup
    assert looked_up and len(came_out) > len(looked_up)


def test_set_checks_that_compared_nothing_fail(a1, monkeypatch):
    import loom.embedding as emb

    def no_nodes(cartan, seed, window, **kw):
        return CrystalGraph("empty", cartan.indices, {}, {}, None)

    monkeypatch.setattr(emb, "path_crystal_window", no_nodes)
    checks = _checks(verify_decomposition(a1, 1, 2, 3))
    assert checks["pieces_pairwise_disjoint"] == (False, "0 nodes compared, 0 skipped")
    assert checks["image_equals_union"] == (False, "image 20, union 0")
    # each class has images but an empty piece
    assert checks["classes_match_pieces"] == (False, "2 classes compared, 0 skipped")


def test_a_class_with_no_image_and_no_piece_is_skipped(a1, monkeypatch):
    import loom.embedding as emb

    real_window = emb.path_crystal_window

    def even_pieces_only(cartan, seed, window, **kw):
        if coords(seed)[-1] % 2:
            return CrystalGraph("empty", cartan.indices, {}, {}, None)
        return real_window(cartan, seed, window, **kw)

    monkeypatch.setattr(emb, "c_class", lambda table, element, m: 0)
    monkeypatch.setattr(emb, "path_crystal_window", even_pieces_only)
    checks = _checks(verify_decomposition(a1, 1, 2, 3))
    # class 1 has no image and piece 1 is empty; class 0 holds all 20 inner images
    assert checks["classes_match_pieces"] == (False, "1 classes compared, 1 skipped")


def test_operator_check_that_compared_nothing_fails(a1, monkeypatch):
    import loom.embedding as emb

    # every move is sent past the window, so the check skips all 20 * 2 * 2 of them
    def outward(graph, key):
        return [(i, kind, (key[0], graph.window + 1)) for i, kind, _ in moves(graph, key)]

    monkeypatch.setattr(emb, "moves", outward)
    report = verify_decomposition(a1, 1, 2, 3)
    assert _failing(report) == {"psi_preserves_operators"}
    check = next(c for c in report["checks"] if c["name"] == "psi_preserves_operators")
    assert check["detail"] == "0 moves compared, 80 skipped"


def test_operator_check_scans_each_image_once_per_index(a1, a1_base, monkeypatch):
    import loom.embedding as emb

    # the pairs (inner image, index) with a compared move, read off the
    # graph's moves: a move is compared unless its target leaves the inner window
    aff = affinized_tensor_crystal(a1_base, 2, 3)
    inner = {key for key in aff.nodes if abs(key[1]) <= 2}
    want = {(key, i) for key in inner for i, _kind, target in moves(aff, key)
            if target is None or target in inner}
    table = energy_table(a1_base)
    images = {psi(table, a1_base, key).key(): key for key in inner}
    calls, original = [], loom.paths.h_extrema

    def counting(cartan, path, i):
        calls.append((images[path.key()], i))
        return original(cartan, path, i)

    monkeypatch.setattr(emb, "h_extrema", counting)
    checks = _checks(verify_decomposition(a1, 1, 2, 3))
    # 40 scans, one per pair, serve the 76 compared moves
    assert checks["psi_preserves_operators"] == (True, "76 moves compared, 4 skipped")
    assert len(calls) == len(want) == 40
    assert set(calls) == want


def test_operator_check_fails_on_the_next_index_extrema(a1, monkeypatch):
    import loom.embedding as emb

    # a scan handed to the operators of the wrong index must show
    original = loom.paths.h_extrema
    indices = a1.indices

    def next_index(cartan, path, i):
        return original(cartan, path, indices[(indices.index(i) + 1) % len(indices)])

    monkeypatch.setattr(emb, "h_extrema", next_index)
    assert _failing(verify_decomposition(a1, 1, 2, 3)) == {"psi_preserves_operators"}


@pytest.mark.parametrize("outcomes,want", [
    ([True, None, True], (True, "2 x compared, 1 skipped")),
    (iter([True, False, None, True]), (False, "3 x compared, 1 skipped")),
    ([None] * 3, (False, "0 x compared, 3 skipped")),
    (iter(()), (False, "0 x compared, 0 skipped")),
])
def test_count_fails_on_a_false_or_when_it_compared_nothing(outcomes, want):
    rep = Report("toy")
    rep.count("x_check", outcomes, "x")
    (check,) = rep.done()["checks"]
    assert (check["pass"], check["detail"]) == want


def _grid_form(path):
    return path.m, path.n, path.dirs, path.cells


def _from_heights(base, table, factors, heights):
    """The image of ``factors`` rebuilt from the Fraction heights of its turning points."""
    m, total = len(factors), len(heights) - 1
    letters = [coords(base.nodes[k].wt) for k in refine(base, factors, table.grid)]
    segs = [(stretch_of(tuple(c * m for c in w) + ((h1 - h0) * total,), True),
             Fraction(1, total)) for w, h0, h1 in zip(letters, heights, heights[1:])]
    return path_from_segments(segs, affine=True, ncoords=len(letters[0]))


@pytest.mark.parametrize("label,rank,i,m,window", [
    ("A", 2, 1, 2, 3), ("C", 2, 2, 2, 2), ("G2", 2, 1, 2, 2),
])
def test_shifted_piece_on_its_partners_table_matches_a_fresh_one(monkeypatch, label, rank, i,
                                                                 m, window):
    # verify_decomposition generates every piece on one PathOps, so piece
    # r + m reads the rows that piece r built.  A node's weight is its row's
    # level-zero weight plus its level times delta, which must be its endpoint
    cartan = build_cartan(label, rank)
    fw = fund(cartan, i, affine=True)
    delta = cartan.null_root()
    for r in range(min(m, window + 1 - m)):
        ops = PathOps(cartan, affine=True)
        first = path_crystal_window(cartan, m * fw + r * delta, window, ops=ops)
        fresh = path_crystal_window(cartan, m * fw + (r + m) * delta, window)
        scans = []
        with monkeypatch.context() as mp:
            original = loom.paths.h_extrema
            mp.setattr(loom.paths, "h_extrema", lambda *args: scans.append(args) or original(*args))
            shared = path_crystal_window(cartan, m * fw + (r + m) * delta, window, ops=ops)
        assert scans == []
        for node in [*first.nodes.values(), *shared.nodes.values()]:
            assert node.wt == node.element.endpoint()
        assert list(shared.nodes) == list(fresh.nodes)
        for key, node in shared.nodes.items():
            want = fresh.nodes[key]
            assert _grid_form(node.element) == _grid_form(want.element)
            assert (node.eps, node.phi) == (want.eps, want.phi)
        assert shared.f_edges == fresh.f_edges
        assert shared.truncated == fresh.truncated


@pytest.mark.parametrize("label,rank,i,m,window", [("A", 2, 1, 2, 3), ("C", 2, 2, 2, 2)])
def test_psi_memo_gives_the_images_of_a_memo_free_psi(label, rank, i, m, window):
    # psi keeps the degree-free part of the last element on its table.  A
    # fresh table per call never hits it; sorted and reversed orders miss
    # once per element, and degree-major order misses on every call
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    table = energy_table(base)
    keys = affinized_tensor_crystal(base, m, window).sorted_keys()
    want = {key: _grid_form(psi(EnergyTable(table.grid, table.chi), base, key)) for key in keys}
    for order in (keys, keys[::-1], sorted(keys, key=lambda key: key[::-1])):
        memo = EnergyTable(table.grid, table.chi)
        assert {key: _grid_form(psi(memo, base, key)) for key in order} == want


def test_psi_checks_refine_each_tensor_element_once(a2, monkeypatch):
    # the 2W + 1 degrees of one element come in a row, so one entry is enough
    import loom.embedding as emb

    base = fundamental_crystal(a2, 1)
    table = energy_table(base)
    aff = affinized_tensor_crystal(base, 2, 3)
    real, refined = emb.refine, []
    monkeypatch.setattr(emb, "refine", lambda *args: refined.append(args[1]) or real(*args))
    psi_checks(Report("psi"), base, table, aff, fund(a2, 1, affine=True), a2.null_root())
    assert len(refined) == len(set(refined)) == len(aff) // 7 == 9


def test_psi_memo_is_keyed_by_graph_and_factors(a2, monkeypatch):
    # psi keeps its signature, so the planted psi controls still fit it; an
    # equal graph that is another object must not read the entry of the first
    import loom.embedding as emb

    assert list(inspect.signature(psi).parameters) == ["table", "graph", "element"]
    base = fundamental_crystal(a2, 1)
    table, other = energy_table(base), dataclasses.replace(base)
    real, refined = emb.refine, []
    monkeypatch.setattr(emb, "refine", lambda *args: refined.append(args[0]) or real(*args))
    factors = (base.seed, base.seed)
    images = [psi(table, graph, (factors, n)) for graph, n in ((base, 0), (base, 1), (other, 1))]
    assert refined == [base, other]
    assert images[1] == images[2] != images[0]
    assert table._psi[0] is other and table._psi[1] == factors


def test_a_stale_psi_entry_fails_the_psi_checks(a2, monkeypatch):
    # the entry of the first element is planted as the second element's, so
    # the second element's degrees get the first element's images
    import loom.embedding as emb

    real, planted = emb.psi, []

    def stale(table, graph, element):
        memo = table._psi
        if memo[0] is graph and memo[1] != element[0] and not planted:
            planted.append(element)
            memo[1] = element[0]
        return real(table, graph, element)

    monkeypatch.setattr(emb, "psi", stale)
    failed = _failing(verify_decomposition(a2, 1, 2, 3))
    assert planted and {"psi_injective", "psi_endpoint_law"} <= failed
