import itertools
import json
from fractions import Fraction

import pytest

import loom.paths
from loom import (
    CrystalGraph,
    PathOps,
    Weight,
    affinized_tensor_crystal,
    build_cartan,
    c_class,
    concat,
    energy_table,
    fundamental_crystal,
    kappa,
    linear_path,
    make_path,
    path_crystal_window,
    project,
    psi,
    raising_op,
    refine,
    verify_decomposition,
)
from loom.cli import main
from loom.crystals import moves
from loom.embedding import EmbeddingError, tensor_power_crystal
from loom.paths import stretch_key
from loom.verify import run_suite


def a1_keys(a1):
    w = a1.classical_fundamental(1)
    return linear_path(w).key(), linear_path(-w).key()


def test_kappa_fixture(a1, a1_base, a1_energy):
    kp, km = a1_keys(a1)
    assert kappa(a1_energy, a1_base, (kp, km), 0, 1) == Fraction(-1, 2)
    assert kappa(a1_energy, a1_base, (kp, km), 0, 2) == 0
    with pytest.raises(EmbeddingError):
        kappa(a1_energy, a1_base, (kp, km), 0, 3)


def test_kappa_on_diagonal_is_linear(a1, a1_base, a1_energy):
    kp, _ = a1_keys(a1)
    for m in (1, 2, 3):
        for n in range(-2, 3):
            for j in range(m + 1):
                assert kappa(a1_energy, a1_base, (kp,) * m, n, j) == Fraction(j * n, m)


def test_kappa_endpoint_is_degree(a1, a1_base, a1_energy):
    for m in (2, 3):
        for b in itertools.product(a1_base.sorted_keys(), repeat=m):
            for n in (-2, 0, 1):
                assert kappa(a1_energy, a1_base, b, n, m * a1_energy.grid) == n


def test_psi_fixtures(a1, a1_base, a1_energy):
    kp, km = a1_keys(a1)
    fw = a1.classical_fundamental(1, classical=False)
    delta = a1.null_root()
    img = psi(a1_energy, a1_base, ((kp, kp), 0))
    assert img.path == linear_path(2 * fw)
    bent = psi(a1_energy, a1_base, ((kp, km), 0))
    assert bent.path.key()[0] == stretch_key(fw - Fraction(1, 2) * delta)
    assert bent.path.weight().is_zero
    assert bent.heights == (0, Fraction(-1, 2), 0)

    lifted = raising_op(a1, bent.path, 0)
    other = psi(a1_energy, a1_base, ((km, km), 1))
    assert lifted == other.path
    assert other.path.weight() == -2 * fw + delta
    assert other.heights[1] == Fraction(1, 2)


def test_psi_projects_to_concatenation(a1, a1_base, a1_energy):
    for b in itertools.product(a1_base.sorted_keys(), repeat=2):
        for n in (-1, 0, 2):
            img = psi(a1_energy, a1_base, (b, n))
            shadow = concat([a1_base.nodes[k].element for k in b])
            assert project(img.path) == shadow


def test_c_class(a1, a1_base, a1_energy):
    kp, km = a1_keys(a1)
    for m in (2, 3):
        for r in range(-3, 4):
            assert c_class(a1_energy, a1_base, ((kp,) * m, r), m) == r % m
    assert c_class(a1_energy, a1_base, ((kp, km), 0), 2) == 1
    # degrees -1..1 keep every neighbour inside the window 2
    aff = affinized_tensor_crystal(a1_base, 2, 2)
    for b in itertools.product(a1_base.sorted_keys(), repeat=2):
        for n in (-1, 0, 1):
            x = (b, n)
            before = c_class(a1_energy, a1_base, x, 2)
            for _i, _kind, moved in moves(aff, x):
                if moved is not None:
                    assert c_class(a1_energy, a1_base, moved, 2) == before


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
        if abs(k[1]) <= window - 1 and c_class(a1_energy, a1_base, k, m) == 0
    }
    ops = PathOps(a1, "affine")
    image_nodes = {}
    image_edges = {}
    for k in inner_class0:
        path = images[k].path
        eps, phi = zip(*(ops.strings(path, i) for i in a1.indices))
        image_nodes[path.key()] = Node(path, path.endpoint(), eps, phi)
    for (src, i), dst in aff.f_edges.items():
        if src in inner_class0 and dst in inner_class0:
            image_edges[(images[src].path.key(), i)] = images[dst].path.key()
    image_graph = CrystalGraph(
        label="psi-image", indices=tuple(a1.indices), nodes=image_nodes,
        f_edges=image_edges, seed=images[((a1_base.seed,) * m, 0)].path.key(),
        truncated=True, window=window - 1,
    )

    fw = a1.classical_fundamental(1, classical=False)
    piece = path_crystal_window(a1, 2 * fw, window)
    keep = {k for k in piece.nodes if abs(piece.nodes[k].wt.weight().delta) <= window - 1}
    piece_graph = _subgraph(piece, keep)

    mapping = image_graph.isomorphic(piece_graph)
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
    with pytest.raises(EmbeddingError):
        verify_decomposition(a1, 1, 2, 1)
    # no piece shifted by m fits, so degree_shift_periodicity would check nothing
    with pytest.raises(EmbeddingError):
        verify_decomposition(a1, 1, 4, 3)


def test_m1_image_matches_piece(a1, a1_base, a1_energy):
    window = 3
    aff = affinized_tensor_crystal(a1_base, 1, window)
    fw = a1.classical_fundamental(1, classical=False)
    piece = path_crystal_window(a1, fw, window)
    inner_piece = {
        k for k in piece.nodes if abs(piece.nodes[k].wt.weight().delta) <= window - 1
    }
    inner_images = {
        psi(a1_energy, a1_base, k).path.key()
        for k in aff.nodes if abs(k[1]) <= window - 1
    }
    assert inner_images == inner_piece


@pytest.mark.parametrize("label,rank,m,window", [("A", 2, 4, 4), ("B", 3, 2, 2), ("C", 2, 2, 2)])
def test_psi_heights_match_single_point_kappa(label, rank, m, window):
    # psi reads every height off two running sums as integer numerators;
    # kappa is the single-point Fraction formula, recomputed on its own for
    # each j, and the image is rebuilt from Weight segments through make_path
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, 2 if label == "C" else 1)
    table = energy_table(base)
    grid = table.grid
    assert grid == (1 if label == "A" else 2)
    aff = affinized_tensor_crystal(base, m, window)
    total = grid * m
    for factors, degree in aff.sorted_keys():
        image = psi(table, base, (factors, degree))
        heights = [kappa(table, base, factors, degree, j) for j in range(total + 1)]
        assert image.heights == tuple(heights)
        letters = [base.nodes[k].wt.weight() for k in refine(base, factors, grid)]
        segs = [(Weight(tuple(c * m for c in w.coords), (h1 - h0) * total), Fraction(1, total))
                for w, h0, h1 in zip(letters, heights, heights[1:])]
        want = make_path(segs, ambient="affine", ncoords=len(letters[0].coords))
        assert _grid_form(image.path) == _grid_form(want), (factors, degree)


CHECK_NAMES = [
    "psi_injective", "psi_of_straight_seeds", "psi_endpoint_law", "pieces_pairwise_disjoint",
    "image_equals_union", "classes_match_pieces", "psi_preserves_operators",
    "degree_shift_periodicity", "no_edge_crosses_classes",
]


def _passing_checks(**details):
    return [{"name": n, "pass": True, "detail": details.get(n, "")} for n in CHECK_NAMES]


# full decompose records of the check-by-check implementation
GOLDEN_REPORTS = [
    (("A", 1, 1, 2, 3), {
        "suite": "decompose", "params": {"type": "A1", "i": 1, "power": 2, "window": 3},
        "checks": _passing_checks(psi_injective="28 nodes",
                                  image_equals_union="image 20, union 20",
                                  psi_preserves_operators="76 moves compared, 4 skipped",
                                  degree_shift_periodicity="checked [(0, 2), (1, 3)]"),
        "pass": True,
        "counts": {"base": 2, "affinized": 28, "image_inner": 20,
                   "pieces_inner": {"0": 11, "1": 9}},
    }),
    (("C", 2, 2, 2, 2), {
        "suite": "decompose", "params": {"type": "C2", "i": 2, "power": 2, "window": 2},
        "checks": _passing_checks(psi_injective="125 nodes",
                                  image_equals_union="image 75, union 75",
                                  psi_preserves_operators="426 moves compared, 24 skipped",
                                  degree_shift_periodicity="checked [(0, 2)]"),
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


def test_every_decomposition_check_can_fail(a1, monkeypatch):
    import loom.embedding as emb

    m, window = 2, 3
    real_class, real_psi, real_window = emb.c_class, emb.psi, emb.path_crystal_window

    def wrong_class(table, graph, element, m):
        factors, degree = element
        moved = degree == 0 and factors == (graph.seed,) * m
        return (real_class(table, graph, element, m) + moved) % m

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
        failed = _failing(verify_decomposition(a1, 1, m, window))
    assert {"psi_injective", "psi_preserves_operators"} <= failed

    def wrong_shift(cartan, seed_weight, window, **kw):
        # a piece shifted by m comes back shifted by m - 1, another class
        if seed_weight.delta >= m:
            seed_weight = seed_weight - a1.null_root()
        return real_window(cartan, seed_weight, window, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(emb, "path_crystal_window", wrong_shift)
        failed = _failing(verify_decomposition(a1, 1, m, window))
    assert "degree_shift_periodicity" in failed


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


def _grid_form(path):
    return path.m, path.n, path.dirs, path.cells


@pytest.mark.parametrize("label,rank,i,m,window", [
    ("A", 2, 1, 2, 3), ("C", 2, 2, 2, 2), ("G2", 2, 1, 2, 2),
])
def test_shifted_piece_on_its_partners_table_matches_a_fresh_one(monkeypatch, label, rank, i,
                                                                 m, window):
    # verify_decomposition generates piece r + m on piece r's PathOps
    cartan = build_cartan(label, rank)
    fw, delta = cartan.classical_fundamental(i, classical=False), cartan.null_root()
    for r in range(min(m, window + 1 - m)):
        ops = PathOps(cartan, "affine")
        path_crystal_window(cartan, m * fw + r * delta, window, ops=ops)
        fresh = path_crystal_window(cartan, m * fw + (r + m) * delta, window)
        scans = []
        with monkeypatch.context() as mp:
            original = loom.paths.h_extrema
            mp.setattr(loom.paths, "h_extrema", lambda *args: scans.append(args) or original(*args))
            shared = path_crystal_window(cartan, m * fw + (r + m) * delta, window, ops=ops)
        assert scans == []
        assert list(shared.nodes) == list(fresh.nodes)
        for key, node in shared.nodes.items():
            want = fresh.nodes[key]
            assert _grid_form(node.element) == _grid_form(want.element)
            assert (node.eps, node.phi) == (want.eps, want.phi)
        assert shared.f_edges == fresh.f_edges
        assert shared.truncated == fresh.truncated
