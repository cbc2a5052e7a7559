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
    fundamental_crystal,
    generate,
    linear_path,
    lowering_op,
    h_extrema,
    path_crystal_window,
    raising_op,
)
from loom.cartan import Stretch
from loom.crystals import Node
from isomorphism import isomorphic
from fraction_paths import segments
from outcomes import holds
from weights import coords, fund, stretch_of


def keys_of(cartan, *weights):
    return [linear_path(w).key() for w in weights]


def test_a1_base_fixture(a1, a1_base):
    w = fund(a1, 1)
    kp, km = keys_of(a1, w, -w)
    assert sorted(a1_base.nodes) == sorted([kp, km])
    assert a1_base.f(kp, 1) == km
    assert a1_base.f(km, 0) == kp
    assert a1_base.edge_count() == 2
    # 2 nodes x 2 indices, then 2 edges
    audit = a1_base.normality_audit()
    assert holds(audit) and len(audit) == 6


def test_a2_base_fixture(a2, a2_base):
    w1, w2 = fund(a2, 1), fund(a2, 2)
    k1, k2, k3 = keys_of(a2, w1, w2 - w1, -w2)
    assert sorted(a2_base.nodes) == sorted([k1, k2, k3])
    assert a2_base.f(k1, 1) == k2
    assert a2_base.f(k2, 2) == k3
    assert a2_base.f(k3, 0) == k1
    assert a2_base.edge_count() == 3


def test_constant_seed(a1):
    graph = generate(PathOps(a1), constant_path(a1))
    assert len(graph) == 1 and graph.edge_count() == 0


def test_tensor_rule_positions(a1, a1_base):
    ops = TensorOps([a1_base] * 2)
    w = fund(a1, 1)
    kp, km = keys_of(a1, w, -w)
    assert ops.f((kp, kp), 1) == (km, kp)
    assert ops.e((kp, kp), 0) == (kp, km)
    assert ops.e((kp, km), 1) is None
    # per index 0 both string functions reach 1: e acts leftmost, f rightmost
    assert ops.strings((kp, km)) == ((1, 0), (1, 0))
    assert ops.e((kp, km), 0) == (km, km)
    assert ops.f((kp, km), 0) == (kp, kp)


def test_tensor_rule_refuses_a_mis_sized_element(a1_base):
    ops = TensorOps([a1_base] * 2)
    seed = a1_base.seed
    for b in ((seed,), (seed,) * 3):
        message = "^tensor element of length %d for 2 factors$" % len(b)
        for query in (lambda: ops.strings(b), lambda: ops.e(b, 0), lambda: ops.f(b, 1),
                      lambda: ops.key(b), lambda: ops.wt(b)):
            with pytest.raises(ValueError, match=message):
                query()
    with pytest.raises(ValueError, match="^tensor element of length 3 for 2 factors$"):
        generate(ops, (seed,) * 3)
    assert len(generate(ops, (seed,) * 2)) == 4


def test_affinized_operators(a1, a1_base):
    aff = affinized_tensor_crystal(a1_base, 2, 5)
    w = fund(a1, 1)
    kp, km = keys_of(a1, w, -w)
    assert aff.e(((kp, km), 0), 0) == ((km, km), 1)
    moved = aff.f(((kp, kp), 5), 1)
    assert moved == ((km, kp), 5)
    up = aff.e(((kp, kp), 0), 0)
    assert up is not None and aff.f(up, 0) == ((kp, kp), 0)
    assert coords(aff.wt(((kp, km), 3)))[-1] == 3


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
    # 4 pairs x 2 indices, then per index a 1-string squared: 2 * 2 - 1 - 1 = 2 edges
    audit = graph.normality_audit()
    assert holds(audit) and len(audit) == 8 + 4


def test_truncated_graphs_reject_global_checks(a1):
    fw = fund(a1, 1, affine=True)
    graph = generate(PathOps(a1, affine=True), linear_path(fw), window=2)
    assert graph.truncated
    with pytest.raises(ValueError,
                       match="^indecomposability is only defined for untruncated graphs$"):
        graph.is_indecomposable()
    with pytest.raises(ValueError, match="^normality audit needs an untruncated graph$"):
        graph.normality_audit()
    assert len(graph.components()) == 1


def test_window_required_for_affine(a1):
    fw = fund(a1, 1, affine=True)
    with pytest.raises(ValueError, match="^an infinite kind needs an explicit window$"):
        generate(PathOps(a1, affine=True), linear_path(fw))


def test_tensor_of_affine_kinds_is_refused(a1):
    # no construction windows a tensor product, so its factors must be finite kinds
    with pytest.raises(ValueError, match="^tensor factors must be finite kinds$"):
        TensorOps([PathOps(a1), PathOps(a1, affine=True)])
    assert TensorOps([PathOps(a1)] * 2).components


def _audit_failures(graph):
    """The node-index pairs, then the edges, whose audit outcome is False."""
    items = [(k, i) for k in graph.nodes for i in graph.indices] + list(graph.f_edges)
    audit = graph.normality_audit()
    assert len(audit) == len(items)
    return [item for item, ok in zip(items, audit) if not ok]


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
    assert _audit_failures(broken) == [(key, 0)]
    last = a1_base.sorted_keys()[-1]
    other = tampered[last]
    tampered[last] = Node(other.element, other.wt, other.eps, (other.phi[0] + 1,) + other.phi[1:])
    broken = dataclasses.replace(broken, nodes=tampered)
    assert _audit_failures(broken) == [(key, 0), (last, 0)]


def test_normality_audit_fails_a_cycle_and_a_non_quasi_inverse_edge(a1_base):
    # a planted 0-loop at kp: the 0-chains through kp never end, so the pairs
    # (kp, 0) (raising) and (km, 0) (lowering) fail, and raising kp by 0 now
    # gives kp, so the edge km -> kp is not quasi-inverse; the loop itself is
    kp = a1_base.seed
    km = a1_base.f(kp, 1)
    looped = CrystalGraph(
        label="looped", indices=a1_base.indices, nodes=dict(a1_base.nodes),
        f_edges={**a1_base.f_edges, (kp, 0): kp}, seed=kp,
    )
    assert list(looped.nodes) == [kp, km]
    # two node-index pairs, then one of the three edges
    assert _audit_failures(looped) == [(kp, 0), (km, 0), (km, 0)]


def test_isomorphism(a1, a1_base, a2_base):
    auto = isomorphic(a1_base, a1_base)
    assert auto == {k: k for k in a1_base.nodes}
    assert isomorphic(a1_base, a2_base) is None
    relabel = {k: ("node", idx) for idx, k in enumerate(a1_base.sorted_keys())}
    renamed = CrystalGraph(
        label="renamed", indices=a1_base.indices,
        nodes={relabel[k]: n for k, n in a1_base.nodes.items()},
        f_edges={(relabel[s], i): relabel[d] for (s, i), d in a1_base.f_edges.items()},
        seed=relabel[a1_base.seed],
    )
    mapping = isomorphic(a1_base, renamed)
    assert mapping == relabel
    # 2,802 nodes: far deeper than one stack frame per placed node allows
    wide = affinized_tensor_crystal(a1_base, 1, 700)
    assert isomorphic(wide, wide) == {k: k for k in wide.nodes}
    f_edges = dict(wide.f_edges)
    del f_edges[next(iter(f_edges))]
    cut = CrystalGraph(
        label="cut", indices=wide.indices, nodes=dict(wide.nodes), f_edges=f_edges,
        seed=wide.seed, truncated=True, window=wide.window,
    )
    assert isomorphic(wide, cut) is None


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
            assert flat.strings(triple) == left.strings(((a, b), c))
            assert flat.strings(triple) == right.strings((a, (b, c)))


class PairingTensor:
    """Reference tensor rule that shifts the string functions by <h_i, wt>.

    The rule under test reads that pairing as phi - eps of each factor;
    this one reads it as the i-th coordinate of each factor's weight, as
    the tensor rule is usually stated, and sums the weights with ``+``.
    """

    def __init__(self, components):
        self.components = components
        self.indices = tuple(components[0].indices)

    def wt(self, b):
        return sum((c.wt(x) for c, x in zip(self.components[1:], b[1:])),
                   self.components[0].wt(b[0]))

    def string_funcs(self, b, i):
        pos = self.indices.index(i)
        vals = []
        shift = 0
        for c, x in zip(self.components, b):
            vals.append(c.strings(x)[0][pos] - shift)
            shift += coords(c.wt(x))[i]
        return vals

    def strings(self, b):
        eps = tuple(max(self.string_funcs(b, i)) for i in self.indices)
        total = coords(self.wt(b))
        return eps, tuple(top + total[i] for top, i in zip(eps, self.indices))

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

    def e(self, b, i):
        return self.move(b, i, "e")

    def f(self, b, i):
        return self.move(b, i, "f")


@pytest.mark.parametrize("label,rank,i,power", [
    ("A", 2, 1, 2), ("C", 2, 2, 2), ("G2", 2, 1, 2), ("D", 4, 2, 2), ("A", 1, 1, 3),
])
def test_tensor_rule_matches_pairing_reference(label, rank, i, power):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    ops = TensorOps([base] * power)
    ref = PairingTensor([base] * power)
    for b in itertools.product(base.sorted_keys(), repeat=power):
        eps, phi = ops.strings(b)
        assert type(eps) is tuple and type(phi) is tuple
        assert all(type(n) is int for n in eps + phi)
        assert (eps, phi) == ref.strings(b)
        for j in cartan.indices:
            assert ops.e(b, j) == ref.move(b, j, "e")
            assert ops.f(b, j) == ref.move(b, j, "f")


@pytest.mark.parametrize("label,rank,i,window", [
    ("A", 2, 1, None), ("C", 2, 2, None), ("G2", 2, 1, None), ("A", 1, 1, 2),
])
def test_strings_match_path_reference(label, rank, i, window):
    cartan = build_cartan(label, rank)
    if window is None:
        ops, graph = PathOps(cartan), fundamental_crystal(cartan, i)
    else:
        seed = fund(cartan, i, affine=True)
        ops, graph = PathOps(cartan, affine=True), path_crystal_window(cartan, seed, window)
    for key, node in graph.nodes.items():
        exts = [h_extrema(cartan, node.element, j) for j in graph.indices]
        want = (tuple(ext.eps for ext in exts), tuple(ext.phi for ext in exts))
        assert ops.strings(node.element) == want
        assert graph.strings(key) == (node.eps, node.phi) == want


def test_generation_independence(a2, a2_base):
    ops = PathOps(a2)
    for key in a2_base.sorted_keys():
        again = generate(ops, a2_base.nodes[key].element)
        assert sorted(again.nodes) == a2_base.sorted_keys()


def test_node_cap(a1):
    with pytest.raises(NodeCapError):
        generate(PathOps(a1),
                 linear_path(fund(a1, 1)), node_cap=1)


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
        return x.endpoint()

    def strings(self, x):
        exts = [h_extrema(self.cartan, x, i) for i in self.indices]
        return tuple(ext.eps for ext in exts), tuple(ext.phi for ext in exts)

    def e(self, x, i):
        return raising_op(self.cartan, x, i)

    def f(self, x, i):
        return lowering_op(self.cartan, x, i)

    def move(self, x, i, kind):
        return self.e(x, i) if kind == "e" else self.f(x, i)


def _twin(x):
    """An equal element that is a different object, and so is a nested tensor element in it."""
    if not isinstance(x, tuple):
        return dataclasses.replace(x)
    return tuple(_twin(y) if isinstance(y, tuple) and not isinstance(y[0], Stretch) else y
                 for y in x)


@pytest.mark.parametrize("label,rank,i", [("A", 2, 1), ("C", 2, 2), ("G2", 2, 1)])
def test_interleaved_queries_never_read_a_stale_scan(label, rank, i):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    paths = [base.nodes[k].element for k in base.sorted_keys()]
    path_ops = PathOps(cartan)
    kinds = [
        (path_ops, ScanFreePaths(cartan), paths),
        (TensorOps([base] * 2), PairingTensor([base] * 2),
         list(itertools.product(base.sorted_keys(), repeat=2))),
        (TensorOps([path_ops] * 2), PairingTensor([ScanFreePaths(cartan)] * 2),
         list(itertools.product(paths, repeat=2))),
        (TensorOps([TensorOps([base] * 2), base]),
         PairingTensor([PairingTensor([base] * 2), base]),
         [((a, b), c) for a, b, c in itertools.product(base.sorted_keys(), repeat=3)]),
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
            if query == "strings":
                assert ops.strings(x) == ref.strings(x), (query, x)
            else:
                assert getattr(ops, query)(x, j) == ref.move(x, j, query), (query, x, j)


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records its arguments."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _level_zero_key(path):
    """The key of path - s delta, s the level of path, read off its Fraction segments."""
    segs = segments(path)
    s = sum(v[-1] for v, _ in segs)
    return tuple(stretch_of(v[:-1] + (v[-1] - s * t,), True) for v, t in segs)


@pytest.mark.parametrize("label,rank,i,window", [
    ("C", 2, 2, None), ("G2", 2, 1, None), ("A", 2, 1, 2), ("C", 2, 1, 2),
])
def test_generate_scans_heights_once_per_node_and_index(monkeypatch, label, rank, i, window):
    # a classical node is scanned itself; an affine node of level s shares the
    # row of its level-zero translate, so each translate is scanned once
    cartan = build_cartan(label, rank)
    calls = _count_calls(monkeypatch, loom.paths, "h_extrema")
    if window is None:
        graph = fundamental_crystal(cartan, i)
        rows = set(graph.nodes)
    else:
        graph = path_crystal_window(cartan, fund(cartan, i, affine=True), window)
        rows = {_level_zero_key(node.element) for node in graph.nodes.values()}
        assert len(rows) < len(graph)
    scanned = Counter((path.key(), j) for _cartan, path, j in calls)
    assert scanned == Counter(itertools.product(rows, graph.indices))


def _scanned(calls, power):
    """The elements whose factors the recorded ``strings`` calls scanned, in runs of power."""
    return Counter(tuple(x for (x,) in calls[k:k + power]) for k in range(0, len(calls), power))


@pytest.mark.parametrize("label,rank,i,power", [("C", 2, 2, 2), ("A", 2, 1, 3)])
def test_generate_scans_tensor_factors_once_per_node(monkeypatch, label, rank, i, power):
    base = fundamental_crystal(build_cartan(label, rank), i)
    calls = _count_calls(monkeypatch, base, "strings")
    graph = generate(TensorOps([base] * power), (base.seed,) * power)
    # one scan asks every factor of a node once, in order, for all indices
    assert len(calls) == power * len(graph)
    assert _scanned(calls, power) == Counter(list(graph.nodes))


def test_energy_sweep_and_recheck_scan_once_per_pair(monkeypatch):
    base = fundamental_crystal(build_cartan("C", 2), 2)
    calls = _count_calls(monkeypatch, base, "strings")
    table = energy_table(base)
    per_sweep = 2 * len(base) ** 2
    pairs = Counter(itertools.product(base.nodes, repeat=2))
    assert len(calls) == per_sweep
    assert _scanned(calls, 2) == pairs
    assert holds(energy_edge_check(base, table))
    assert len(calls) == 2 * per_sweep
    assert _scanned(calls[per_sweep:], 2) == pairs


@pytest.mark.parametrize("construction", ["classical", "affine window", "tensor square"])
def test_node_cap_boundary(construction):
    cartan = build_cartan("C", 2)

    def build(cap):
        if construction == "classical":
            return fundamental_crystal(cartan, 2, node_cap=cap)
        if construction == "affine window":
            seed = fund(cartan, 2, affine=True)
            return path_crystal_window(cartan, seed, 2, node_cap=cap)
        base = fundamental_crystal(cartan, 1)
        return generate(TensorOps([base] * 2), (base.seed,) * 2, node_cap=cap)

    size = len(build(None))
    assert size > 4
    assert len(build(size)) == size
    with pytest.raises(NodeCapError):
        build(size - 1)
