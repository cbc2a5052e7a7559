"""The energy function on tensor squares and the major-index grading.

The energy function is the unique integer function on ordered pairs of a
fundamental path crystal that vanishes on the diagonal seed pair and
shifts by one along 0-labelled operator moves, with the sign decided by
which tensor factor the operator acts in.  It is built by a breadth
first sweep of the tensor square; every edge is rechecked against the
shift rule, so an operator bug surfaces as an inconsistency instead of a
wrong table.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm

from .crystals import CrystalGraph, TensorOps, check_node_cap, moves
from .paths import Path, grid_size, linear_path, segment_uniform


class EnergyError(ValueError):
    pass


class InconsistentEnergyError(EnergyError):
    """Two sweep paths assign different values; the operators are broken."""


class DisconnectedTensorSquareError(EnergyError):
    """The tensor square is not connected; the sweep cannot reach every pair."""


@dataclass(frozen=True)
class EnergyTable:
    """Total map from ordered node pairs of one crystal to integers."""

    crystal_label: str
    seed: object
    grid: int
    chi: dict

    def value(self, a, b) -> int:
        try:
            return self.chi[(a, b)]
        except KeyError:
            raise EnergyError("pair not in the energy table") from None

    def to_json(self, key_str):
        items = sorted(self.chi.items(), key=lambda kv: (key_str(kv[0][0]), key_str(kv[0][1])))
        return {
            "crystal": self.crystal_label,
            "N": self.grid,
            "chi": [{"a": key_str(a), "b": key_str(b), "v": v} for (a, b), v in items],
        }


def _shifted_moves(ops2, pair):
    """Operator moves of the tensor square from pair, with their energy shift.

    Yields ``(i, kind, target, shift)`` for every move that acts.
    Lowering in the left factor adds one on label 0 and lowering in the
    right factor subtracts one; raising does the opposite.  Labels other
    than 0 never shift.  A move changes exactly one factor, so the left
    factor acted iff the left entry changed.
    """
    for i, kind, target in moves(ops2, pair):
        if target is None:
            continue
        shift = 0
        if i == 0:
            shift = 1 if (target[0] != pair[0]) == (kind == "f") else -1
        yield i, kind, target, shift


def energy_table(graph: CrystalGraph, *, rng: random.Random | None = None,
                 node_cap=None) -> EnergyTable:
    """Build the energy table of a finite connected fundamental crystal.

    The sweep starts at the diagonal seed pair with value zero.  The
    traversal order may be shuffled; the resulting table may not depend
    on it, and a conflict raises instead of being resolved.  The
    ``len(graph) ** 2`` pairs count against the node cap before the sweep.
    """
    if graph.truncated:
        raise EnergyError("energy needs an untruncated crystal")
    check_node_cap(len(graph) ** 2, node_cap, "tensor square of %d nodes" % len(graph))
    ops2 = TensorOps([graph] * 2)
    seed = (graph.seed, graph.seed)
    chi = {seed: 0}
    frontier = [seed]
    while frontier:
        frontier.sort()
        if rng is not None:
            rng.shuffle(frontier)
        fresh = []
        for pair in frontier:
            value = chi[pair]
            for _i, _kind, target, shift in _shifted_moves(ops2, pair):
                moved = value + shift
                if target in chi:
                    if chi[target] != moved:
                        raise InconsistentEnergyError(
                            "pair %r gets %d and %d" % (target, chi[target], moved)
                        )
                else:
                    chi[target] = moved
                    fresh.append(target)
        frontier = fresh
    if len(chi) != len(graph) ** 2:
        raise DisconnectedTensorSquareError(
            "reached %d of %d pairs" % (len(chi), len(graph) ** 2)
        )
    return EnergyTable(
        crystal_label=graph.label, seed=graph.seed, grid=choose_grid(graph), chi=dict(chi)
    )


def choose_grid(graph: CrystalGraph) -> int:
    """Least common grid putting every breakpoint of every element on it."""
    sizes = []
    for key in graph.sorted_keys():
        element = graph.nodes[key].element
        if not isinstance(element, Path):
            raise EnergyError("grid selection needs path-valued elements")
        sizes.append(grid_size(element))
    return lcm(*sizes) if sizes else 1


def refine(graph: CrystalGraph, factors, grid: int) -> list:
    """Cut each tensor factor on the uniform grid into linear-path nodes.

    Returns the keys, in order, of the grid * m linear paths; every
    direction must already be a node of the underlying crystal.
    """
    keys = []
    for fkey in factors:
        element = graph.nodes[fkey].element
        for direction in segment_uniform(element, grid):
            piece = linear_path(direction)
            pkey = piece.key()
            if pkey not in graph.nodes:
                raise EnergyError(
                    "refined direction %r is not a crystal element" % (direction,)
                )
            keys.append(pkey)
    return keys


def major_index(table: EnergyTable, keys) -> int:
    """Weighted sum of adjacent energies, positions counted from one."""
    keys = list(keys)
    return sum(r * table.value(keys[r - 1], keys[r]) for r in range(1, len(keys)))


def refined_major_index(table: EnergyTable, graph: CrystalGraph, factors) -> int:
    return major_index(table, refine(graph, factors, table.grid))


def energy_edge_check(graph: CrystalGraph, table: EnergyTable) -> list[str]:
    """Recheck the shift rule on every labelled edge of the tensor square."""
    ops2 = TensorOps([graph] * 2)
    problems = []
    for pair in itertools.product(graph.sorted_keys(), repeat=2):
        for i, kind, target, shift in _shifted_moves(ops2, pair):
            want = table.value(*pair) + shift
            if table.value(*target) != want:
                problems.append(
                    "%s_%d at %r: table %d, rule %d"
                    % (kind, i, pair, table.value(*target), want)
                )
    return problems


def compatible_total_order(graph: CrystalGraph, table: EnergyTable):
    """A total order with energy zero exactly on weakly decreasing pairs.

    Returns the order as a list (largest first) or None.  In such an
    order the node of rank r has energy zero against exactly n - r nodes,
    so sorting by that count gives the only candidate, which is then
    checked against the whole table.
    """
    keys = graph.sorted_keys()
    zeros = {a: sum(table.value(a, b) == 0 for b in keys) for a in keys}
    order = sorted(keys, key=lambda a: -zeros[a])
    rank = {k: r for r, k in enumerate(order)}
    ok = all(table.value(a, b) == (0 if rank[a] <= rank[b] else 1)
             for a in keys for b in keys)
    return order if ok else None
