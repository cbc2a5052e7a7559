import random
from fractions import Fraction
from itertools import permutations

import pytest

from loom import (
    CrystalGraph,
    build_cartan,
    choose_grid,
    compatible_total_order,
    constant_path,
    energy_edge_check,
    energy_table,
    fundamental_crystal,
    linear_path,
    major_index,
    refine,
    refined_major_index,
)
from loom.crystals import Node, NodeCapError
from loom.energy import EnergyTable
from fraction_paths import path_from_segments
from outcomes import holds
from weights import fund
from test_crystals import PairingTensor


def test_a1_energy_fixture(a1_keys, a1_energy):
    kp, km = a1_keys
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
        assert holds(energy_edge_check(base, table))


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
    ref = PairingTensor([base] * 2)
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
    table = EnergyTable(grid=1, chi=chi)
    assert brute_force_order(graph, table) is None
    assert compatible_total_order(graph, table) is None


def test_energy_randomized_bfs_deterministic(a2, a2_base, a2_energy):
    for seed in range(20):
        again = energy_table(a2_base, rng=random.Random(seed))
        assert again.chi == a2_energy.chi


def test_choose_grid(a1_base, a2_base, a1):
    assert choose_grid(a1_base) == 1
    assert choose_grid(a2_base) == 1
    w = fund(a1, 1)
    half = path_from_segments([(2 * w, Fraction(1, 2)), (-2 * w, Fraction(1, 2))])
    third = path_from_segments([(3 * w, Fraction(1, 3)), (-3 * w, Fraction(2, 3))])
    fake = CrystalGraph(
        label="grid", indices=(0, 1),
        nodes={
            half.key(): Node(half, half.endpoint(), (0, 0), (0, 0)),
            third.key(): Node(third, third.endpoint(), (0, 0), (0, 0)),
        },
        f_edges={}, seed=half.key(),
    )
    assert choose_grid(fake) == 6


def test_refine(a1_keys, a1_base, a1_energy):
    kp, km = a1_keys
    assert refine(a1_base, (kp, km), 1) == [kp, km]
    assert refine(a1_base, (kp,), 2) == [kp, kp]
    for key in refine(a1_base, (kp, km, km), 1):
        assert key in a1_base.nodes


def test_refine_bent_paths_and_its_errors(a1):
    w = fund(a1, 1)
    half = path_from_segments([(2 * w, Fraction(1, 2)), (-2 * w, Fraction(1, 2))])
    third = path_from_segments([(3 * w, Fraction(1, 3)), (-3 * w, Fraction(2, 3))])
    flat = constant_path(a1)
    up, down = linear_path(2 * w), linear_path(-2 * w)
    graph = CrystalGraph(
        label="refine", indices=(0, 1),
        nodes={p.key(): Node(p, p.endpoint(), (0, 0), (0, 0))
               for p in (half, third, flat, up, down)},
        f_edges={}, seed=half.key(),
    )
    assert refine(graph, (half.key(), up.key()), 4) == [up.key()] * 2 + [down.key()] * 2 + [up.key()] * 4
    with pytest.raises(ValueError, match="^breakpoint 1/3 is not a multiple of 1/2$"):
        refine(graph, (half.key(), third.key()), 2)
    # the directions of third, 3w and -3w, are not nodes: a fault, not bad input
    with pytest.raises(ArithmeticError, match="is not a crystal element") as err:
        refine(graph, (third.key(),), 3)
    assert not isinstance(err.value, ValueError)
    with pytest.raises(ArithmeticError, match="is not a crystal element") as err:
        refine(graph, (flat.key(),), 1)
    assert not isinstance(err.value, ValueError)


def test_major_index(a1_keys, a1_energy, a1_base):
    kp, km = a1_keys
    assert major_index(a1_energy, [kp, kp]) == 0
    assert major_index(a1_energy, [kp, km]) == 1
    assert major_index(a1_energy, [km, kp]) == 0
    assert refined_major_index(a1_energy, a1_base, (kp, km)) == 1
    with pytest.raises(ValueError, match="^pair not in the energy table$"):
        a1_energy.value(kp, ("missing",))


def test_energy_json(a1, a1_energy):
    assert a1_energy.grid == 1
    assert len(a1_energy.chi) == 4
    assert sorted(a1_energy.chi.values()) == [0, 0, 0, 1]


def test_disconnected_tensor_square_detected(a1, a1_base):
    # two isolated nodes: the sweep cannot leave the seed pair
    nodes = {k: a1_base.nodes[k] for k in a1_base.nodes}
    island = CrystalGraph(
        label="island", indices=a1_base.indices, nodes=nodes,
        f_edges={}, seed=a1_base.seed,
    )
    with pytest.raises(ArithmeticError, match="^reached 1 of 4 pairs$") as err:
        energy_table(island)
    assert not isinstance(err.value, ValueError)


def test_energy_node_cap_before_sweep(a2_base, monkeypatch):
    def untouched(*args):
        raise AssertionError("the sweep ran over the node cap")

    monkeypatch.setattr("loom.energy._shifted_moves", untouched)
    with pytest.raises(NodeCapError):
        energy_table(a2_base, node_cap=len(a2_base) ** 2 - 1)
