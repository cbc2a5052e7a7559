import dataclasses
import itertools
import random
from collections import Counter

import pytest

import loom.paths
from loom import (
    CrystalGraph,
    NodeCapError,
    PathOps,
    TensorOps,
    affinized_tensor_crystal,
    build_cartan,
    constant_path,
    energy_edge_check,
    energy_table,
    epsilon,
    fundamental_crystal,
    generate,
    linear_path,
    lowering_op,
    path_crystal_window,
    phi,
    raising_op,
)
from loom.crystals import GenerationError, Node


def keys_of(cartan, *weights):
    return [linear_path(w).key() for w in weights]


def test_a1_base_fixture(a1, a1_base):
    w = a1.classical_fundamental(1)
    kp, km = keys_of(a1, w, -w)
    assert sorted(a1_base.nodes) == sorted([kp, km])
    assert a1_base.f(kp, 1) == km
    assert a1_base.f(km, 0) == kp
    assert a1_base.edge_count() == 2
    assert a1_base.normality_audit() == []


def test_a2_base_fixture(a2, a2_base):
    w1, w2 = a2.classical_fundamental(1), a2.classical_fundamental(2)
    k1, k2, k3 = keys_of(a2, w1, w2 - w1, -w2)
    assert sorted(a2_base.nodes) == sorted([k1, k2, k3])
    assert a2_base.f(k1, 1) == k2
    assert a2_base.f(k2, 2) == k3
    assert a2_base.f(k3, 0) == k1
    assert a2_base.edge_count() == 3


def test_constant_seed(a1):
    graph = generate(PathOps(a1, "classical"), constant_path(a1))
    assert len(graph) == 1 and graph.edge_count() == 0


def test_tensor_rule_positions(a1, a1_base):
    ops = TensorOps([a1_base] * 2)
    w = a1.classical_fundamental(1)
    kp, km = keys_of(a1, w, -w)
    assert ops.f((kp, kp), 1) == (km, kp)
    assert ops.e((kp, kp), 0) == (kp, km)
    assert ops.e((kp, km), 1) is None
    assert ops.strings((kp, km), 1) == (0, 0)


def test_affinized_operators(a1, a1_base):
    aff = affinized_tensor_crystal(a1_base, 2, 5)
    w = a1.classical_fundamental(1)
    kp, km = keys_of(a1, w, -w)
    assert aff.e(((kp, km), 0), 0) == ((km, km), 1)
    moved = aff.f(((kp, kp), 5), 1)
    assert moved == ((km, kp), 5)
    up = aff.e(((kp, kp), 0), 0)
    assert up is not None and aff.f(up, 0) == ((kp, kp), 0)
    assert aff.wt(((kp, km), 3)).delta == 3


def test_indecomposable(a1_base):
    assert a1_base.is_indecomposable()
    double_nodes = {}
    double_edges = {}
    for copy in (0, 1):
        for k, node in a1_base.nodes.items():
            double_nodes[(copy, k)] = node
        for (src, i), dst in a1_base.f_edges.items():
            double_edges[((copy, src), i)] = (copy, dst)
    double = CrystalGraph(
        label="two-copies", indices=a1_base.indices, nodes=double_nodes,
        f_edges=double_edges, seed=(0, a1_base.seed),
    )
    assert not double.is_indecomposable()


def test_tensor_square_connected(a1, a1_base):
    ops = TensorOps([a1_base] * 2)
    graph = generate(ops, (a1_base.seed, a1_base.seed))
    assert len(graph) == 4
    assert graph.is_indecomposable()
    assert graph.normality_audit() == []


def test_truncated_graphs_reject_global_checks(a1):
    fw = a1.classical_fundamental(1, classical=False)
    graph = generate(PathOps(a1, "affine"), linear_path(fw), window=2)
    assert graph.truncated
    with pytest.raises(GenerationError):
        graph.is_indecomposable()
    with pytest.raises(GenerationError):
        graph.normality_audit()
    assert graph.window_connected()


def test_window_required_for_affine(a1):
    fw = a1.classical_fundamental(1, classical=False)
    with pytest.raises(GenerationError):
        generate(PathOps(a1, "affine"), linear_path(fw))


def test_normality_negative_control(a1_base):
    key = a1_base.sorted_keys()[0]
    node = a1_base.nodes[key]
    tampered = dict(a1_base.nodes)
    bumped = (node.eps[0] + 1,) + node.eps[1:]
    tampered[key] = Node(node.element, node.wt, bumped, node.phi)
    broken = CrystalGraph(
        label="tampered", indices=a1_base.indices, nodes=tampered,
        f_edges=dict(a1_base.f_edges), seed=a1_base.seed,
    )
    assert len(broken.normality_audit()) == 1


def test_isomorphism(a1, a1_base, a2_base):
    auto = a1_base.isomorphic(a1_base)
    assert auto == {k: k for k in a1_base.nodes}
    assert a1_base.isomorphic(a2_base) is None
    relabel = {k: ("node", idx) for idx, k in enumerate(a1_base.sorted_keys())}
    renamed = CrystalGraph(
        label="renamed", indices=a1_base.indices,
        nodes={relabel[k]: n for k, n in a1_base.nodes.items()},
        f_edges={(relabel[s], i): relabel[d] for (s, i), d in a1_base.f_edges.items()},
        seed=relabel[a1_base.seed],
    )
    mapping = a1_base.isomorphic(renamed)
    assert mapping == relabel


def test_tensor_associativity(a1, a1_base, a2, a2_base):
    for cartan, base in ((a1, a1_base), (a2, a2_base)):
        g = base
        flat = TensorOps([g, g, g])
        left = TensorOps([TensorOps([g, g]), g])
        right = TensorOps([g, TensorOps([g, g])])
        for triple in itertools.product(base.sorted_keys(), repeat=3):
            a, b, c = triple
            for i in cartan.indices:
                want = flat.f(triple, i)
                got_left = left.f(((a, b), c), i)
                got_right = right.f((a, (b, c)), i)
                flat_left = None if got_left is None else got_left[0] + (got_left[1],)
                flat_right = None if got_right is None else (got_right[0],) + got_right[1]
                assert want == flat_left == flat_right
                assert flat.strings(triple, i) == left.strings(((a, b), c), i)
                assert flat.strings(triple, i) == right.strings((a, (b, c)), i)


class PairingTensor:
    """Reference tensor rule that shifts the string functions by <h_i, wt>.

    The rule under test reads that pairing as phi - eps of each factor;
    this one reads it off the Cartan data, as the tensor rule is usually
    stated.
    """

    def __init__(self, cartan, components):
        self.cartan = cartan
        self.components = components

    def string_funcs(self, b, i):
        vals = []
        shift = 0
        for c, x in zip(self.components, b):
            vals.append(c.strings(x, i)[0] - shift)
            shift += self.cartan.pairing(i, c.wt(x))
        return vals

    def strings(self, b, i):
        total = sum((c.wt(x) for c, x in zip(self.components[1:], b[1:])),
                    self.components[0].wt(b[0]))
        eps = max(self.string_funcs(b, i))
        return eps, eps + self.cartan.pairing(i, total)

    def e_position(self, b, i):
        vals = self.string_funcs(b, i)
        return vals.index(max(vals))

    def f_position(self, b, i):
        vals = self.string_funcs(b, i)
        return len(vals) - 1 - vals[::-1].index(max(vals))

    def move(self, b, i, kind):
        k = self.e_position(b, i) if kind == "e" else self.f_position(b, i)
        c = self.components[k]
        moved = c.e(b[k], i) if kind == "e" else c.f(b[k], i)
        return None if moved is None else b[:k] + (moved,) + b[k + 1:]


@pytest.mark.parametrize("label,rank,i,power", [
    ("A", 2, 1, 2), ("C", 2, 2, 2), ("G2", 2, 1, 2), ("D", 4, 2, 2), ("A", 1, 1, 3),
])
def test_tensor_rule_matches_pairing_reference(label, rank, i, power):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    ops = TensorOps([base] * power)
    ref = PairingTensor(cartan, [base] * power)
    for b in itertools.product(base.sorted_keys(), repeat=power):
        for j in cartan.indices:
            eps, phi = ops.strings(b, j)
            assert type(eps) is int and type(phi) is int
            assert (eps, phi) == ref.strings(b, j)
            assert ops.e(b, j) == ref.move(b, j, "e")
            assert ops.f(b, j) == ref.move(b, j, "f")


@pytest.mark.parametrize("label,rank,i,window", [
    ("A", 2, 1, None), ("C", 2, 2, None), ("G2", 2, 1, None), ("A", 1, 1, 2),
])
def test_strings_match_path_reference(label, rank, i, window):
    cartan = build_cartan(label, rank)
    if window is None:
        ops, graph = PathOps(cartan, "classical"), fundamental_crystal(cartan, i)
    else:
        seed = cartan.classical_fundamental(i, classical=False)
        ops, graph = PathOps(cartan, "affine"), path_crystal_window(cartan, seed, window)
    for key, node in graph.nodes.items():
        for pos, j in enumerate(graph.indices):
            want = (epsilon(cartan, node.element, j), phi(cartan, node.element, j))
            assert ops.strings(node.element, j) == want
            assert graph.strings(key, j) == (node.eps[pos], node.phi[pos]) == want


def test_generation_independence(a2, a2_base):
    ops = PathOps(a2, "classical")
    for key in a2_base.sorted_keys():
        again = generate(ops, a2_base.nodes[key].element)
        assert sorted(again.nodes) == a2_base.sorted_keys()


def test_node_cap(a1):
    with pytest.raises(NodeCapError):
        generate(PathOps(a1, "classical"),
                 linear_path(a1.classical_fundamental(1)), node_cap=1)


def test_graph_json_and_dot(a1_base):
    obj = a1_base.to_json()
    assert obj["truncated"] is False
    assert len(obj["nodes"]) == 2 and len(obj["edges"]) == 2
    assert all(set(n) >= {"id", "wt", "eps", "phi"} for n in obj["nodes"])
    dot = a1_base.to_dot()
    assert dot.startswith("digraph") and 'label="1"' in dot


class ScanFreePaths:
    """Path kind that asks the module functions afresh on every call."""

    def __init__(self, cartan):
        self.cartan = cartan
        self.indices = tuple(cartan.indices)

    def wt(self, x):
        return x.weight()

    def strings(self, x, i):
        return epsilon(self.cartan, x, i), phi(self.cartan, x, i)

    def e(self, x, i):
        return raising_op(self.cartan, x, i)

    def f(self, x, i):
        return lowering_op(self.cartan, x, i)

    def move(self, x, i, kind):
        return self.e(x, i) if kind == "e" else self.f(x, i)


def _twin(x):
    """An equal element that is a different object."""
    return tuple(x) if isinstance(x, tuple) else dataclasses.replace(x)


@pytest.mark.parametrize("label,rank,i", [("A", 2, 1), ("C", 2, 2), ("G2", 2, 1)])
def test_interleaved_queries_never_read_a_stale_scan(label, rank, i):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    paths = [base.nodes[k].element for k in base.sorted_keys()]
    path_ops = PathOps(cartan, "classical")
    kinds = [
        (path_ops, ScanFreePaths(cartan), paths),
        (TensorOps([base] * 2), PairingTensor(cartan, [base] * 2),
         list(itertools.product(base.sorted_keys(), repeat=2))),
        (TensorOps([path_ops] * 2), PairingTensor(cartan, [ScanFreePaths(cartan)] * 2),
         list(itertools.product(paths, repeat=2))),
    ]
    rng = random.Random(1991)
    for ops, ref, elements in kinds:
        x, j = elements[0], cartan.indices[0]
        for _ in range(1500):
            # keep the element or the index about half the time, so hits and misses mix
            if rng.random() < 0.5:
                x = rng.choice(elements)
            if rng.random() < 0.5:
                j = rng.choice(cartan.indices)
            if rng.random() < 0.2:
                x = _twin(x)
            query = rng.choice(["strings", "e", "f"])
            got = getattr(ops, query)(x, j)
            want = ref.strings(x, j) if query == "strings" else ref.move(x, j, query)
            assert got == want, (query, x, j)


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("label,rank,i,window", [
    ("C", 2, 2, None), ("G2", 2, 1, None), ("A", 2, 1, 2), ("C", 2, 1, 2),
])
def test_generate_scans_heights_once_per_node_and_index(monkeypatch, label, rank, i, window):
    cartan = build_cartan(label, rank)
    calls = _count_calls(monkeypatch, loom.paths, "h_extrema")
    if window is None:
        graph = fundamental_crystal(cartan, i)
    else:
        graph = path_crystal_window(cartan, cartan.classical_fundamental(i, classical=False),
                                    window)
    scanned = Counter((path.key(), j) for _cartan, path, j in calls)
    assert scanned == Counter(itertools.product(graph.nodes, graph.indices))


@pytest.mark.parametrize("label,rank,i,power", [("C", 2, 2, 2), ("A", 2, 1, 3)])
def test_generate_scans_tensor_factors_once_per_node_and_index(monkeypatch, label, rank, i,
                                                               power):
    base = fundamental_crystal(build_cartan(label, rank), i)
    calls = _count_calls(monkeypatch, base, "strings")
    graph = generate(TensorOps([base] * power), (base.seed,) * power)
    # one scan asks every factor once
    assert len(calls) == power * len(graph) * len(graph.indices)


def test_energy_sweep_and_recheck_scan_once_per_pair_and_index(monkeypatch):
    base = fundamental_crystal(build_cartan("C", 2), 2)
    calls = _count_calls(monkeypatch, base, "strings")
    table = energy_table(base)
    per_sweep = 2 * len(base) ** 2 * len(base.indices)
    assert len(calls) == per_sweep
    assert energy_edge_check(base, table) == []
    assert len(calls) == 2 * per_sweep


@pytest.mark.parametrize("construction", ["classical", "affine window", "tensor square"])
def test_node_cap_boundary(construction):
    cartan = build_cartan("C", 2)

    def build(cap):
        if construction == "classical":
            return fundamental_crystal(cartan, 2, node_cap=cap)
        if construction == "affine window":
            seed = cartan.classical_fundamental(2, classical=False)
            return path_crystal_window(cartan, seed, 2, node_cap=cap)
        base = fundamental_crystal(cartan, 1)
        return generate(TensorOps([base] * 2), (base.seed,) * 2, node_cap=cap)

    size = len(build(None))
    assert size > 4
    assert len(build(size)) == size
    with pytest.raises(NodeCapError):
        build(size - 1)
