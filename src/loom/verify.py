"""Named verification suites behind the command line interface.

Each suite returns an :class:`~loom.embedding.Report` record of named
checks, and :func:`run_suite` passes it the arguments its signature
names.  The suites re-derive their expectations from independent routes
(hand fixtures, dual computations, exhaustive closure) rather than
trusting the code under test.  ``concat`` and ``xi`` count the moves on which
:func:`~loom.embedding.preserves_operators` compares a map with the root operators.
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
    kappa,
    path_crystal_window,
    preserves_operators,
    psi,
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
    epsilon,
    linear_path,
    project,
    raising_op,
    stretch,
    stretch_key,
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
    problems = graph.normality_audit()
    rep.check("string_lengths_and_quasi_inverse", not problems,
              "; ".join(problems[:3]))
    # node weights are integer stretches; each simple root becomes one once
    alphas = {j: stretch_key(cartan.simple_root(j).classical()) for j in graph.indices}
    grad_ok = all(graph.nodes[src].wt - graph.nodes[dst].wt == alphas[j]
                  for (src, j), dst in graph.f_edges.items())
    edges = len(graph.f_edges)
    rep.check("weight_gradient", edges and grad_ok, "%d edges compared" % edges)
    # <h_j, wt> is the j-th coordinate of the weight
    law_ok = all((node.phi[pos] - node.eps[pos]) * node.wt.den == node.wt.nums[j]
                 for node in graph.nodes.values() for pos, j in enumerate(graph.indices))
    pairs = len(graph.nodes) * len(graph.indices)
    rep.check("phi_minus_eps_pairing", pairs and law_ok, "%d node-index pairs compared" % pairs)
    rep.check("indecomposable", graph.is_indecomposable())
    return rep.done()


def suite_weyl(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("weyl", type=cartan.name, i=i)
    base = fundamental_crystal(cartan, i, **kw)
    involution_ok = True
    linear_ok = True
    for key in base.sorted_keys():
        path = base.nodes[key].element
        for j in cartan.indices:
            twice = weyl_act(cartan, weyl_act(cartan, path, j), j)
            if twice != path:
                involution_ok = False
            if len(path.cells) == 1:
                lam = path.weight()
                if weyl_act(cartan, path, j) != linear_path(cartan.reflect(j, lam)):
                    linear_ok = False
    rep.check("involution", involution_ok)
    rep.check("linear_paths_reflect", linear_ok)
    return rep.done()


def suite_stretch(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("stretch", type=cartan.name, i=i, factors=list(STRETCH_FACTORS))
    base = fundamental_crystal(cartan, i, **kw)
    ok = True
    for key in base.sorted_keys():
        path = base.nodes[key].element
        for j in cartan.indices:
            for n in STRETCH_FACTORS:
                lifted = raising_op(cartan, path, j)
                big = stretch(path, n)
                for _ in range(n):
                    big = None if big is None else raising_op(cartan, big, j)
                want = None if lifted is None else stretch(lifted, n)
                if big != want:
                    ok = False
    rep.check("stretch_intertwines_raising", ok)
    return rep.done()


def suite_concat(cartan: AffineCartan, i: int, **kw) -> dict:
    rep = Report("concat", type=cartan.name, i=i)
    base = fundamental_crystal(cartan, i, **kw)
    joined = {pair: concat([base.nodes[k].element for k in pair])
              for pair in _power_keys(base, 2, **kw)}
    preserves_operators(rep, "concat_matches_tensor_rule", cartan, TensorOps([base] * 2),
                        joined, joined)
    unit_ok = True
    merge_ok = True
    for key in base.sorted_keys():
        path = base.nodes[key].element
        if concat([path, constant_path(cartan)]) != path:
            unit_ok = False
        if len(path.cells) == 1:
            if concat([path, path]) != stretch(path, 2):
                merge_ok = False
    rep.check("constant_is_identity", unit_ok)
    rep.check("linear_selfconcat_is_stretch", merge_ok)
    return rep.done()


def suite_xi(cartan: AffineCartan, i: int, window: int, **kw) -> dict:
    if window < 1:
        # every node with |delta| > window - 1 is skipped, so nothing is checked
        raise ValueError("xi needs window >= 1, got %d" % window)
    rep = Report("xi", type=cartan.name, i=i, window=window)
    graph = path_crystal_window(cartan, cartan.classical_fundamental(i, classical=False),
                                window, **kw)
    shadows = {key: project(node.element) for key, node in graph.nodes.items()}
    # an inner node has every neighbour inside the window, so the graph's
    # edges are all the operator moves from it
    inner = [key for key, node in graph.nodes.items()
             if abs(node.wt.nums[-1]) <= (window - 1) * node.wt.den]
    preserves_operators(rep, "projection_commutes_with_operators", cartan, graph, shadows, inner)
    eps_ok = all(epsilon(cartan, graph.nodes[key].element, j) == epsilon(cartan, shadows[key], j)
                 for key in inner for j in cartan.indices)
    rep.check("projection_preserves_eps", eps_ok)
    return rep.done()


def suite_energy(cartan: AffineCartan, i: int, seeds: int, **kw) -> dict:
    if seeds < 1:
        raise ValueError("energy needs seeds >= 1, got %d" % seeds)
    rep = Report("energy", type=cartan.name, i=i, seeds=seeds)
    base = fundamental_crystal(cartan, i, **kw)
    table = energy_table(base, **kw)
    rep.check("total", len(table.chi) == len(base) ** 2,
              "%d pairs" % len(table.chi))
    problems = energy_edge_check(base, table)
    rep.check("shift_rule_on_every_edge", not problems, "; ".join(problems[:3]))
    deterministic = True
    for seed in range(seeds):
        shuffled = energy_table(base, rng=random.Random(seed), **kw)
        if shuffled.chi != table.chi:
            deterministic = False
    rep.check("order_independent", deterministic)
    diag_ok = all(table.value(k, k) == 0 for k in (base.seed,))
    rep.check("seed_pair_is_zero", diag_ok)
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
    shift_ok = True
    refined_ok = True
    for b in _power_keys(base, power, **kw):
        value = major_index(table, b)
        refined = refined_major_index(table, base, b)
        for j, kind, moved in moves(ops, b):
            if moved is None:
                continue
            delta = 1 if j == 0 else 0
            sign = delta if kind == "f" else -delta
            if (major_index(table, moved) - value - sign) % power != 0:
                shift_ok = False
            # the refined index moves by the grid size per 0-move
            got = refined_major_index(table, base, moved)
            if (got - refined - sign * table.grid) % (table.grid * power) != 0:
                refined_ok = False
    rep.check("major_index_shift_mod_power", shift_ok)
    rep.check("refined_index_shifts_by_grid", refined_ok)
    return rep.done()


def suite_psi(cartan: AffineCartan, i: int, power: int, window: int, **kw) -> dict:
    if power < 1:
        raise ValueError("psi needs power >= 1, got %d" % power)
    rep = Report("psi", type=cartan.name, i=i, power=power, window=window)
    base = fundamental_crystal(cartan, i, **kw)
    table = energy_table(base, **kw)
    grid = table.grid
    end_ok = True
    for b in _power_keys(base, power, **kw):
        for n in range(-2, 3):
            total = grid * power
            if kappa(table, base, b, n, total) != n:
                end_ok = False
            if kappa(table, base, b, n, 0) != 0:
                end_ok = False
    rep.check("kappa_endpoints", end_ok)
    aff = affinized_tensor_crystal(base, power, window, **kw)
    images = {key: psi(table, base, key) for key in aff.sorted_keys()}
    rep.check("injective", len({im.path.key() for im in images.values()}) == len(images))
    fw = cartan.classical_fundamental(i, classical=False)
    delta = cartan.null_root()
    straight_ok = True
    for n in range(-window, window + 1):
        key = ((base.seed,) * power, n)
        if key not in images or images[key].path != linear_path(power * fw + n * delta):
            straight_ok = False
    rep.check("straight_seeds", straight_ok)
    return rep.done()


def suite_decompose(cartan: AffineCartan, i: int, power: int, window: int, **kw) -> dict:
    return verify_decomposition(cartan, i, power, window, **kw)


def suite_sl2(t1: int, t2: int, *, node_cap=None) -> dict:
    sl2lab.check_shape(t1, t2)
    check_node_cap((t1 + 1) * (t2 + 1), node_cap,
                   "the %d x %d tags of the sl2 tensor" % (t1 + 1, t2 + 1))
    rep = Report("sl2", t1=t1, t2=t2)
    shape = (t1, t2)

    relations_ok = True
    for idx in itertools.product(range(t1 + 1), range(t2 + 1)):
        v = sl2lab.TensorVector.basis(shape, idx)
        lhs = sl2lab.act_E(sl2lab.act_F(v)) - sl2lab.act_F(sl2lab.act_E(v))
        w = v.weight()
        rhs = v.scale(sl2lab.qint(abs(w)) if w >= 0 else -sl2lab.qint(-w))
        if lhs != rhs:
            relations_ok = False
        if sl2lab.act_K(sl2lab.act_E(sl2lab.act_K(v, -1))) != sl2lab.act_E(v).scale(
            sl2lab.QScalar.q_power(2)
        ):
            relations_ok = False
    rep.check("defining_relations", relations_ok)

    sing_ok = True
    for r, u in enumerate(sl2lab.singular_vectors(t1, t2)):
        if not sl2lab.act_E(u).is_zero:
            sing_ok = False
        if u.weight() != t1 + t2 - 2 * r:
            sing_ok = False
        top = {idx: c for idx, c in u.coords if idx == (0, r)}
        if not top or any(c.valuation() != 0 for c in top.values()):
            sing_ok = False
    rep.check("singular_vectors", sing_ok)

    try:
        limit = sl2lab.crystal_limit_table(t1, t2)
    except sl2lab.NotInLatticeError as err:
        limit = {}
        rep.check("lattice_preserved", False, str(err))
    else:
        rep.check("lattice_preserved", True)
    rep.check("matches_case_split", limit == sl2lab.origin_case_table(t1, t2))
    rep.check("matches_tensor_rule", limit == sl2lab.tensor_rule_table(t1, t2))
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

SUITE_ALIASES = {
    "psi-decomposition": "decompose",
    "sl2-lemma": "sl2",
}


def suite_params(name: str) -> list[str]:
    """The parameter names of a suite's signature, in order."""
    return list(inspect.signature(SUITES[name]).parameters)


def run_suite(name: str, *, type_label="A", rank=1, i=1, power=2, window=3,
              t1=1, t2=1, seeds=20, node_cap=None) -> dict:
    name = SUITE_ALIASES.get(name, name)
    if name != "all" and name not in SUITES:
        raise KeyError("unknown suite %r" % name)
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
