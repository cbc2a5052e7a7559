import itertools
from fractions import Fraction

import pytest

from loom import (
    CrystalGraph,
    affinized_tensor_crystal,
    c_class,
    concat,
    kappa,
    linear_path,
    path_crystal_window,
    project,
    psi,
    raising_op,
    verify_decomposition,
)
from loom.crystals import moves
from loom.embedding import EmbeddingError, tensor_power_crystal


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
    assert bent.turning[1] == fw - Fraction(1, 2) * delta
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
        image_nodes[path.key()] = Node(path, path.weight(), eps, phi)
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
    keep = {k for k in piece.nodes if abs(piece.nodes[k].wt.delta) <= window - 1}
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
        k for k in piece.nodes if abs(piece.nodes[k].wt.delta) <= window - 1
    }
    inner_images = {
        psi(a1_energy, a1_base, k).path.key()
        for k in aff.nodes if abs(k[1]) <= window - 1
    }
    assert inner_images == inner_piece
