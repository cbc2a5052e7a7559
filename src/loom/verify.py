"""Named verification suites behind the command line interface.

Each suite returns an :class:`~loom.embedding.Report` record of named
checks, and :func:`run_suite` passes it the arguments its signature
names.  The suites re-derive their expectations from independent routes
(hand fixtures, dual computations, exhaustive closure) rather than
trusting the code under test.  Every check over a collection is recorded
by :meth:`~loom.embedding.Report.count`, so its detail says how many items
it compared and skipped, and it fails when it compared none.  The normality
and energy audits hand it one outcome per item they compared, and the sl2
transition tables are compared key by key over the union of their keys.
The ``psi`` suite records ``decompose``'s psi checks through
:func:`~loom.embedding.psi_checks`, also at powers above the window.
The ``sl2`` suite builds one :class:`~loom.sl2.StringLattice` per run,
inside its ``ArithmeticError`` guard, and every sl2 check reads it.
"""

from __future__ import annotations

import inspect
import itertools
import random

from .cartan import AffineCartan, build_cartan
from .crystals import TensorOps, check_node_cap, generate, moves
from .embedding import (
    Report,
    affinized_tensor_crystal,
    fundamental_crystal,
    path_crystal_window,
    preserves_operators,
    psi_checks,
    verify_decomposition,
)
from .energy import (
    compatible_total_order,
    energy_edge_check,
    energy_table,
    major_index,
    refined_major_index,
)
from .paths import (
    concat,
    constant_path,
    h_extrema,
    linear_path,
    project,
    raising_op,
    stretch,
    weyl_act,
)
from . import sl2 as sl2lab

# stretch factors n for which suite_stretch checks e_j^n(stretch(b, n)) = stretch(e_j b, n)
STRETCH_FACTORS = (2, 3)


def _power_keys(base, power, *, node_cap=None):
    """Every power-tuple of base keys in sorted order, within the node cap."""
    check_node_cap(len(base) ** power, node_cap,
                   "%d-fold tensor power of %d nodes" % (power, len(base)))
    return itertools.product(base.sorted_keys(), repeat=power)


def _tensor_graph(base, power, *, node_cap=None):
    if power == 1:
        return base
    ops = TensorOps([base] * power)
    return generate(ops, (base.seed,) * power, node_cap=node_cap,
                    label="%s:power%d" % (base.label, power))


def suite_normality(cartan: AffineCartan, i: int, power: int, **kw) -> dict:
    if power < 1:
        raise ValueError("normality needs power >= 1, got %d" % power)
    rep = Report("normality", type=cartan.name, i=i, power=power)
    base = fundamental_crystal(cartan, i, **kw)
    graph = _tensor_graph(base, power, **kw)
    rep.count("string_lengths_and_quasi_inverse", graph.normality_audit(),
              "node-index pairs and edges")
    # node weights and simple roots are integer stretches
    alphas = {j: cartan.simple_root(j) for j in graph.indices}
    rep.count("weight_gradient", (graph.nodes[src].wt - graph.nodes[dst].wt == alphas[j]
                                  for (src, j), dst in graph.f_edges.items()), "edges")
    # <h_j, wt> is the j-th coordinate of the weight
    rep.count("phi_minus_eps_pairing",
              ((node.phi[pos] - node.eps[pos]) * node.wt.den == node.wt.nums[j]
               for node in graph.nodes.values() for pos, j in enumerate(graph.indices)),
              "node-index pairs")
    # closure from one seed is always connected: the count shows a missed tuple
    rep.check("indecomposable", graph.is_indecomposable() and len(graph) == len(base) ** power)
    return rep.done()


def suite_weyl(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("weyl", type=cartan.name, i=i)
    base = fundamental_crystal(cartan, i, **kw)
    pairs = [(base.nodes[key].element, j) for key in base.sorted_keys() for j in cartan.indices]
    rep.count("involution", (weyl_act(cartan, weyl_act(cartan, path, j), j) == path
                             for path, j in pairs), "path-index pairs")
    # a bent path is skipped
    rep.count("linear_paths_reflect",
              (weyl_act(cartan, path, j) == linear_path(cartan.reflect(j, path.endpoint()))
               if len(path.cells) == 1 else None for path, j in pairs), "path-index pairs")
    return rep.done()


def suite_stretch(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("stretch", type=cartan.name, i=i, factors=list(STRETCH_FACTORS))
    base = fundamental_crystal(cartan, i, **kw)

    def outcomes():
        for key in base.sorted_keys():
            path = base.nodes[key].element
            for j in cartan.indices:
                for n in STRETCH_FACTORS:
                    lifted = raising_op(cartan, path, j)
                    big = stretch(path, n)
                    for _ in range(n):
                        big = None if big is None else raising_op(cartan, big, j)
                    yield big == (None if lifted is None else stretch(lifted, n))

    rep.count("stretch_intertwines_raising", outcomes(), "path-index-factor triples")
    return rep.done()


def suite_concat(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("concat", type=cartan.name, i=i)
    base = fundamental_crystal(cartan, i, **kw)
    joined = {pair: concat([base.nodes[k].element for k in pair])
              for pair in _power_keys(base, 2, **kw)}
    preserves_operators(rep, "concat_matches_tensor_rule", cartan, TensorOps([base] * 2),
                        joined, joined)
    paths = [base.nodes[key].element for key in base.sorted_keys()]
    rep.count("constant_is_identity",
              (concat([path, constant_path(cartan)]) == path for path in paths), "paths")
    # a bent path is skipped
    rep.count("linear_selfconcat_is_stretch",
              (concat([path, path]) == stretch(path, 2) if len(path.cells) == 1 else None
               for path in paths), "paths")
    return rep.done()


def suite_xi(cartan: AffineCartan, i: int, window: int, **kw) -> dict:
    if window < 1:
        # every node with |delta| > window - 1 is skipped, so nothing is checked
        raise ValueError("xi needs window >= 1, got %d" % window)
    rep = Report("xi", type=cartan.name, i=i, window=window)
    seed = cartan.classical_fundamental(i, affine=True)
    graph = path_crystal_window(cartan, seed, window, **kw)
    shadows = {key: project(node.element) for key, node in graph.nodes.items()}
    # an inner node has every neighbour inside the window, so the graph's
    # edges are all the operator moves from it
    inner = [key for key, node in graph.nodes.items()
             if abs(node.wt.nums[-1]) <= (window - 1) * node.wt.den]
    preserves_operators(rep, "projection_commutes_with_operators", cartan, graph, shadows, inner)
    rep.count("projection_preserves_eps",
              (h_extrema(cartan, graph.nodes[key].element, j).eps
               == h_extrema(cartan, shadows[key], j).eps
               for key in inner for j in cartan.indices), "path-index pairs")
    return rep.done()


def suite_energy(cartan: AffineCartan, i: int, seeds: int, **kw) -> dict:
    if seeds < 1:
        raise ValueError("energy needs seeds >= 1, got %d" % seeds)
    rep = Report("energy", type=cartan.name, i=i, seeds=seeds)
    base = fundamental_crystal(cartan, i, **kw)
    table = energy_table(base, **kw)
    rep.check("total", len(table.chi) == len(base) ** 2,
              "%d pairs" % len(table.chi))
    rep.count("shift_rule_on_every_edge", energy_edge_check(base, table), "moves")
    rep.count("order_independent",
              (energy_table(base, rng=random.Random(seed), **kw).chi == table.chi
               for seed in range(seeds)), "shuffled sweeps")
    rep.check("seed_pair_is_zero", table.value(base.seed, base.seed) == 0)
    if cartan.label == "A" and i == 1:
        order = compatible_total_order(base, table)
        rep.check("total_order_exists", order is not None)
    return rep.done()


def suite_maj(cartan: AffineCartan, i: int, power: int, **kw) -> dict:
    if power < 1:
        raise ValueError("maj needs power >= 1, got %d" % power)
    rep = Report("maj", type=cartan.name, i=i, power=power)
    base = fundamental_crystal(cartan, i, **kw)
    table = energy_table(base, **kw)
    ops = TensorOps([base] * power)

    def shifts(index, size):
        # index moves by size per 0-move, modulo size * power; a move that does not act is skipped
        for b in _power_keys(base, power, **kw):
            value = index(b)
            for j, kind, moved in moves(ops, b):
                sign = (1 if kind == "f" else -1) if j == 0 else 0
                yield None if moved is None else (
                    (index(moved) - value - sign * size) % (size * power) == 0)

    rep.count("major_index_shift_mod_power",
              shifts(lambda b: major_index(table, b), 1), "moves")
    rep.count("refined_index_shifts_by_grid",
              shifts(lambda b: refined_major_index(table, base, b), table.grid), "moves")
    return rep.done()


def suite_psi(cartan: AffineCartan, i: int, power: int, window: int, **kw) -> dict:
    if power < 1:
        raise ValueError("psi needs power >= 1, got %d" % power)
    rep = Report("psi", type=cartan.name, i=i, power=power, window=window)
    base = fundamental_crystal(cartan, i, **kw)
    table = energy_table(base, **kw)
    aff = affinized_tensor_crystal(base, power, window, **kw)
    psi_checks(rep, base, table, aff, cartan.classical_fundamental(i, affine=True),
               cartan.null_root())
    return rep.done()


def suite_decompose(cartan: AffineCartan, i: int, power: int, window: int, **kw) -> dict:
    return verify_decomposition(cartan, i, power, window, **kw)


def suite_sl2(t1: int, t2: int, *, node_cap=None) -> dict:
    sl2lab.check_shape(t1, t2)
    check_node_cap((t1 + 1) * (t2 + 1), node_cap,
                   "the %d x %d tags of the sl2 tensor" % (t1 + 1, t2 + 1))
    rep = Report("sl2", t1=t1, t2=t2)
    shape = (t1, t2)

    def relations(idx):
        v = sl2lab.TensorVector.basis(shape, idx)
        lhs = sl2lab.act_E(sl2lab.act_F(v)) - sl2lab.act_F(sl2lab.act_E(v))
        w = v.weight()
        rhs = v.scale(sl2lab.qint(abs(w)) if w >= 0 else -sl2lab.qint(-w))
        conj = sl2lab.act_K(sl2lab.act_E(sl2lab.act_K(v, -1)))
        return lhs == rhs and conj == sl2lab.act_E(v).scale(sl2lab.QScalar.q_power(2))

    rep.count("defining_relations",
              map(relations, itertools.product(range(t1 + 1), range(t2 + 1))), "basis tags")

    def singular(r, u):
        top = u.as_dict().get((0, r))
        return (sl2lab.act_E(u).is_zero and u.weight() == t1 + t2 - 2 * r
                and top is not None and top.valuation() == 0)

    # one lattice per run: a failed build leaves no vectors to compare.  Its
    # ArithmeticError, the library's one fault type (a pole at the origin, a
    # failed string peel or oracle check), is a failed check here
    lattice, limit, failure = None, {}, ""
    try:
        lattice = sl2lab.StringLattice(t1, t2)
        limit = sl2lab.crystal_limit_table(lattice)
    except ArithmeticError as err:
        failure = "%s: %s" % (type(err).__name__, err)
    singulars = lattice.singular.items() if lattice else ()
    rep.count("singular_vectors", itertools.starmap(singular, singulars), "vectors")
    rep.check("lattice_preserved", not failure, failure)
    # a transition missing from either table fails, so an empty limit cannot match
    for name, table in (("matches_case_split", sl2lab.origin_case_table(t1, t2)),
                        ("matches_tensor_rule", sl2lab.tensor_rule_table(t1, t2))):
        rep.count(name, (key in limit and key in table and limit[key] == table[key]
                         for key in limit.keys() | table.keys()), "transitions")
    out = rep.done()
    out["transition_table"] = {
        "%s:%d,%d" % key: (None if val is None else list(val))
        for key, val in sorted(limit.items())
    }
    return out


SUITES = {
    "normality": suite_normality,
    "weyl": suite_weyl,
    "stretch": suite_stretch,
    "concat": suite_concat,
    "xi": suite_xi,
    "energy": suite_energy,
    "maj": suite_maj,
    "psi": suite_psi,
    "decompose": suite_decompose,
    "sl2": suite_sl2,
}


def suite_params(name: str) -> list[str]:
    """The parameter names of a suite's signature, in order."""
    return list(inspect.signature(SUITES[name]).parameters)


def run_suite(name: str, *, type_label="A", rank=1, i=1, power=2, window=3,
              t1=1, t2=1, seeds=20, node_cap=None) -> dict:
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    cartan = None if name == "sl2" else build_cartan(type_label, rank)

    def run(suite, window=window):
        given = {"cartan": cartan, "i": i, "power": power, "window": window,
                 "t1": t1, "t2": t2, "seeds": seeds}
        # node_cap reaches most suites only through **kw, so it is always passed
        return SUITES[suite](**{p: given[p] for p in suite_params(suite) if p in given},
                             node_cap=node_cap)

    if name != "all":
        return run(name)
    reports = [run(suite, min(window, 2) if suite == "xi" else window) for suite in SUITES]
    return {"suite": "all", "reports": reports, "pass": all(r["pass"] for r in reports)}
