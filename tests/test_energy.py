import random
from fractions import Fraction
from itertools import permutations

import pytest

from loom import (
    CrystalGraph,
    build_cartan,
    choose_grid,
    compatible_total_order,
    energy_edge_check,
    energy_table,
    fundamental_crystal,
    linear_path,
    major_index,
    refine,
    refined_major_index,
)
from loom.crystals import Node, NodeCapError
from loom.energy import DisconnectedTensorSquareError, EnergyError, EnergyTable
from test_crystals import PairingTensor


def a1_keys(a1):
    w = a1.classical_fundamental(1)
    return linear_path(w).key(), linear_path(-w).key()


def test_a1_energy_fixture(a1, a1_energy):
    kp, km = a1_keys(a1)
    assert a1_energy.value(kp, kp) == 0
    assert a1_energy.value(kp, km) == 1
    assert a1_energy.value(km, kp) == 0
    assert a1_energy.value(km, km) == 0
    assert a1_energy.grid == 1


def test_energy_total_and_consistent(a1, a1_base, a1_energy, a2, a2_base, a2_energy,
                                     c2, c2_base):
    c2_energy = energy_table(c2_base)
    for cartan, base, table in (
        (a1, a1_base, a1_energy),
        (a2, a2_base, a2_energy),
        (c2, c2_base, c2_energy),
    ):
        assert len(table.chi) == len(base) ** 2
        assert table.value(base.seed, base.seed) == 0
        assert energy_edge_check(base, table) == []


def test_a2_energy_values_and_order(a2_base, a2_energy):
    values = set(a2_energy.chi.values())
    assert values == {0, 1}
    order = compatible_total_order(a2_base, a2_energy)
    assert order is not None
    rank = {k: r for r, k in enumerate(order)}
    for (a, b), v in a2_energy.chi.items():
        assert v == (0 if rank[a] <= rank[b] else 1)


def zero_shift(i, kind, position):
    """Reference shift rule, read off the position of the acting factor."""
    if i != 0:
        return 0
    if kind == "f":
        return 1 if position == 0 else -1
    return -1 if position == 0 else 1


def position_energy(cartan, base):
    """Reference sweep whose acting factor comes from the pairing-based positions."""
    ref = PairingTensor(cartan, [base] * 2)
    seed = (base.seed, base.seed)
    chi = {seed: 0}
    frontier = [seed]
    while frontier:
        fresh = []
        for pair in frontier:
            for i in cartan.indices:
                for kind in ("e", "f"):
                    target = ref.move(pair, i, kind)
                    if target is None:
                        continue
                    pos = ref.e_position(pair, i) if kind == "e" else ref.f_position(pair, i)
                    value = chi[pair] + zero_shift(i, kind, pos)
                    if target not in chi:
                        chi[target] = value
                        fresh.append(target)
                    assert chi[target] == value
        frontier = fresh
    return chi


@pytest.mark.parametrize("label,rank,i", [("A", 2, 1), ("C", 2, 2), ("G2", 2, 1), ("D", 4, 2)])
def test_energy_matches_position_reference(label, rank, i):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    chi = position_energy(cartan, base)
    assert len(chi) == len(base) ** 2
    assert energy_table(base).chi == chi


def brute_force_order(graph, table):
    """Reference: the first ordering of all nodes that fits the table."""
    keys = graph.sorted_keys()
    for perm in permutations(keys):
        rank = {k: r for r, k in enumerate(perm)}
        if all(table.value(a, b) == (0 if rank[a] <= rank[b] else 1)
               for a in keys for b in keys):
            return list(perm)
    return None


@pytest.mark.parametrize("label,rank,i,exists", [
    ("A", 1, 1, True), ("A", 2, 1, True), ("A", 3, 1, True), ("C", 2, 1, True),
    ("A", 3, 2, False), ("B", 2, 1, False),
])
def test_total_order_matches_brute_force(label, rank, i, exists):
    cartan = build_cartan(label, rank)
    base = fundamental_crystal(cartan, i)
    table = energy_table(base)
    order = compatible_total_order(base, table)
    assert order == brute_force_order(base, table)
    assert (order is not None) == exists


@pytest.mark.parametrize("zeros", [
    # a cycle a < b < c < a: every node has two zeros, no order fits
    {(0, 1), (1, 2), (2, 0)},
    # distinct zero counts, but node 1 has its zero on the wrong side
    {(0, 1), (0, 2), (1, 0)},
])
def test_total_order_rejects_synthetic_tables(a1_base, zeros):
    keys = range(3)
    node = next(iter(a1_base.nodes.values()))
    graph = CrystalGraph(label="toy", indices=(0, 1), nodes={k: node for k in keys},
                         f_edges={}, seed=0)
    chi = {(a, b): 0 if a == b or (a, b) in zeros else 1 for a in keys for b in keys}
    table = EnergyTable(crystal_label="toy", seed=0, grid=1, chi=chi)
    assert brute_force_order(graph, table) is None
    assert compatible_total_order(graph, table) is None


def test_energy_randomized_bfs_deterministic(a2, a2_base, a2_energy):
    for seed in range(20):
        again = energy_table(a2_base, rng=random.Random(seed))
        assert again.chi == a2_energy.chi


def test_choose_grid(a1_base, a2_base, a1):
    assert choose_grid(a1_base) == 1
    assert choose_grid(a2_base) == 1
    w = a1.classical_fundamental(1)
    from loom import make_path

    half = make_path([(2 * w, Fraction(1, 2)), (-2 * w, Fraction(1, 2))])
    third = make_path([(3 * w, Fraction(1, 3)), (-3 * w, Fraction(2, 3))])
    fake = CrystalGraph(
        label="grid", indices=(0, 1),
        nodes={
            half.key(): Node(half, half.weight(), (0, 0), (0, 0)),
            third.key(): Node(third, third.weight(), (0, 0), (0, 0)),
        },
        f_edges={}, seed=half.key(),
    )
    assert choose_grid(fake) == 6


def test_refine(a1, a1_base, a1_energy):
    kp, km = a1_keys(a1)
    assert refine(a1_base, (kp, km), 1) == [kp, km]
    assert refine(a1_base, (kp,), 2) == [kp, kp]
    for key in refine(a1_base, (kp, km, km), 1):
        assert key in a1_base.nodes


def test_major_index(a1, a1_energy, a1_base):
    kp, km = a1_keys(a1)
    assert major_index(a1_energy, [kp, kp]) == 0
    assert major_index(a1_energy, [kp, km]) == 1
    assert major_index(a1_energy, [km, kp]) == 0
    assert refined_major_index(a1_energy, a1_base, (kp, km)) == 1
    with pytest.raises(EnergyError):
        a1_energy.value(kp, ("missing",))


def test_energy_json(a1, a1_energy):
    from loom.crystals import key_str

    obj = a1_energy.to_json(key_str)
    assert obj["N"] == 1 and obj["crystal"] == "A1:B(w1)"
    assert len(obj["chi"]) == 4
    assert sorted(entry["v"] for entry in obj["chi"]) == [0, 0, 0, 1]


def test_disconnected_tensor_square_detected(a1, a1_base):
    # two isolated nodes: the sweep cannot leave the seed pair
    nodes = {k: a1_base.nodes[k] for k in a1_base.nodes}
    island = CrystalGraph(
        label="island", indices=a1_base.indices, nodes=nodes,
        f_edges={}, seed=a1_base.seed,
    )
    with pytest.raises(DisconnectedTensorSquareError):
        energy_table(island)


def test_energy_node_cap_before_sweep(a2_base, monkeypatch):
    def untouched(*args):
        raise AssertionError("the sweep ran over the node cap")

    monkeypatch.setattr("loom.energy._shifted_moves", untouched)
    with pytest.raises(NodeCapError):
        energy_table(a2_base, node_cap=len(a2_base) ** 2 - 1)
