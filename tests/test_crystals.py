import itertools

import pytest

from loom import (
    AffineOps,
    CrystalGraph,
    NodeCapError,
    PathOps,
    TensorOps,
    build_cartan,
    constant_path,
    fundamental_crystal,
    generate,
    linear_path,
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
    assert ops.eps((kp, km), 1) == 0


def test_affinized_operators(a1, a1_base):
    ops = AffineOps(TensorOps([a1_base] * 2))
    w = a1.classical_fundamental(1)
    kp, km = keys_of(a1, w, -w)
    assert ops.e(((kp, km), 0), 0) == ((km, km), 1)
    moved = ops.f(((kp, kp), 5), 1)
    assert moved == ((km, kp), 5)
    up = ops.e(((kp, kp), 0), 0)
    assert up is not None and ops.f(up, 0) == ((kp, kp), 0)
    assert ops.wt(((kp, km), 3)).delta == 3


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
                assert flat.eps(triple, i) == left.eps(((a, b), c), i)
                assert flat.eps(triple, i) == right.eps((a, (b, c)), i)


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
            vals.append(c.eps(x, i) - shift)
            shift += self.cartan.pairing(i, c.wt(x))
        return vals

    def eps(self, b, i):
        return max(self.string_funcs(b, i))

    def phi(self, b, i):
        total = sum((c.wt(x) for c, x in zip(self.components[1:], b[1:])),
                    self.components[0].wt(b[0]))
        return self.eps(b, i) + self.cartan.pairing(i, total)

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
            eps, phi = ops.eps(b, j), ops.phi(b, j)
            assert type(eps) is int and type(phi) is int
            assert (eps, phi) == (ref.eps(b, j), ref.phi(b, j))
            assert ops.e(b, j) == ref.move(b, j, "e")
            assert ops.f(b, j) == ref.move(b, j, "f")


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
