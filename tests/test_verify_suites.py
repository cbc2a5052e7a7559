import itertools
import re

import pytest

import loom.embedding
import loom.verify
from loom.crystals import CrystalGraph, Node, NodeCapError, TensorOps, moves
from loom.energy import EnergyTable, energy_edge_check
from loom.verify import SUITES, run_suite


def expected_params(name, power, window, seeds, t1, t2):
    """The params each suite reports when run_suite passes it the arguments."""
    if name == "sl2":
        return {"t1": t1, "t2": t2}
    extra = {"normality": {"power": power}, "stretch": {"factors": [2, 3]},
             "xi": {"window": window}, "energy": {"seeds": seeds},
             "maj": {"power": power}, "psi": {"power": power, "window": window},
             "decompose": {"power": power, "window": window}}
    return {"type": "A1", "i": 1, **extra.get(name, {})}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_on_defaults(name):
    params = {"type_label": "A", "rank": 1, "i": 1, "power": 2, "window": 3,
              "t1": 1, "t2": 2, "seeds": 5}
    report = run_suite(name, **params)
    assert report["pass"], report
    assert report["checks"]
    assert report["params"] == expected_params(name, 2, 3, 5, 1, 2)


def test_all_runs_everything():
    report = run_suite("all", type_label="A", rank=1, i=1, power=3, window=3,
                       t1=1, t2=2, seeds=4)
    assert report["pass"]
    assert [r["suite"] for r in report["reports"]] == list(SUITES)
    for sub in report["reports"]:
        # xi runs on a window of at most two
        window = 2 if sub["suite"] == "xi" else 3
        assert sub["params"] == expected_params(sub["suite"], 3, window, 4, 1, 2)


def test_psi_fails_on_a_missing_straight_seed(monkeypatch):
    build = loom.verify.affinized_tensor_crystal

    def without_seed(*args, **kw):
        aff = build(*args, **kw)
        del aff.nodes[aff.seed]
        return aff

    monkeypatch.setattr(loom.verify, "affinized_tensor_crystal", without_seed)
    report = run_suite("psi", type_label="A", rank=1, i=1, power=2, window=2)
    verdicts = {c["name"]: c["pass"] for c in report["checks"]}
    assert verdicts == {"psi_injective": True, "psi_of_straight_seeds": False,
                        "psi_endpoint_law": True}


def test_unknown_suite_rejected():
    # an unknown name is bad input, so a ValueError like every other
    with pytest.raises(ValueError, match="^unknown suite 'nonsense'$"):
        run_suite("nonsense")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_run_suite_passes_the_node_cap_to_every_suite(name):
    # most suites take node_cap only through **kw, which their signature
    # does not name; a dispatch that forwarded named parameters alone would
    # run them uncapped
    with pytest.raises(NodeCapError):
        run_suite(name, type_label="A", rank=1, i=1, power=2, window=3,
                  t1=1, t2=1, seeds=2, node_cap=1)


def test_normality_weight_checks_count_what_they_compared():
    report = run_suite("normality", type_label="A", rank=2, i=1, power=2)
    details = {c["name"]: c["detail"] for c in report["checks"]}
    # the A2 square has 9 nodes and 3 indices; per index the base is one
    # 1-string and one fixed node, so the square has 2 + 1 + 1 edges
    assert details["weight_gradient"] == "12 edges compared, 0 skipped"
    assert details["phi_minus_eps_pairing"] == "27 node-index pairs compared, 0 skipped"
    # the audit takes the 27 node-index pairs, then the 12 edges
    assert details["string_lengths_and_quasi_inverse"] == (
        "39 node-index pairs and edges compared, 0 skipped")


def test_normality_weight_checks_fail_on_an_empty_comparison(monkeypatch):
    def one_node(base, power, **kw):
        key = base.seed
        node = Node(base.nodes[key].element, base.nodes[key].wt, (), ())
        return CrystalGraph("one-node", (), {key: node}, {}, key)

    monkeypatch.setattr(loom.verify, "_tensor_graph", one_node)
    report = run_suite("normality", type_label="A", rank=1, i=1, power=2)
    verdicts = {c["name"]: c["pass"] for c in report["checks"]}
    assert verdicts["weight_gradient"] is False
    assert verdicts["phi_minus_eps_pairing"] is False
    assert _checks(report)["string_lengths_and_quasi_inverse"] == (
        False, "0 node-index pairs and edges compared, 0 skipped")
    assert not report["pass"]


def test_normality_indecomposable_fails_when_the_closure_misses_tuples(monkeypatch):
    # a tensor rule whose index-0 moves return None closes the A2 square
    # from its seed under the finite indices only: 6 of its 9 tuples
    class NoZeroMoves(TensorOps):
        def e(self, b, i):
            return None if i == 0 else super().e(b, i)

        def f(self, b, i):
            return None if i == 0 else super().f(b, i)

    assert _checks(run_suite("normality", type_label="A", rank=2, i=1, power=2))[
        "indecomposable"] == (True, "")
    monkeypatch.setattr(loom.verify, "TensorOps", NoZeroMoves)
    report = run_suite("normality", type_label="A", rank=2, i=1, power=2)
    assert _checks(report)["indecomposable"] == (False, "")
    assert not report["pass"]


def _checks(report):
    return {c["name"]: (c["pass"], c["detail"]) for c in report["checks"]}


def test_concat_and_xi_count_their_operator_checks():
    # C2 w2: 5 base nodes give 25 pairs, each with e and f on 3 indices
    concat = run_suite("concat", type_label="C", rank=2, i=2)
    assert _checks(concat)["concat_matches_tensor_rule"] == (True, "150 moves compared, 0 skipped")
    # B3 w1, window 2: 21 paths with |delta| <= 1, each with e and f on 4
    # indices, whether the affine operator acts or not
    xi = run_suite("xi", type_label="B", rank=3, i=1, window=2)
    assert _checks(xi)["projection_commutes_with_operators"] == (
        True, "168 moves compared, 0 skipped")


def test_concat_fails_when_the_factors_are_swapped(monkeypatch):
    join = loom.verify.concat
    monkeypatch.setattr(loom.verify, "concat", lambda paths: join(paths[::-1]))
    report = run_suite("concat", type_label="A", rank=2, i=1)
    assert _checks(report)["concat_matches_tensor_rule"] == (False, "54 moves compared, 0 skipped")
    assert not report["pass"]


def test_xi_fails_on_a_projection_that_reflects(monkeypatch):
    shadow = loom.verify.project
    cartan = loom.verify.build_cartan("A", 2)
    monkeypatch.setattr(loom.verify, "project",
                        lambda path: loom.verify.weyl_act(cartan, shadow(path), 1))
    report = run_suite("xi", type_label="A", rank=2, i=1, window=2)
    assert _checks(report)["projection_commutes_with_operators"][0] is False
    assert not report["pass"]


def test_operator_check_fails_when_it_compared_nothing(monkeypatch):
    monkeypatch.setattr(loom.verify, "_power_keys", lambda base, power, **kw: iter(()))
    report = run_suite("concat", type_label="A", rank=1, i=1)
    assert _checks(report)["concat_matches_tensor_rule"] == (False, "0 moves compared, 0 skipped")
    assert not report["pass"]


def test_collection_checks_count_what_they_compared():
    # A2 w1: 3 straight paths and 3 indices, so 9 path-index pairs, none bent
    weyl = _checks(run_suite("weyl", type_label="A", rank=2, i=1))
    assert weyl["involution"] == (True, "9 path-index pairs compared, 0 skipped")
    assert weyl["linear_paths_reflect"] == (True, "9 path-index pairs compared, 0 skipped")
    # C2 w2: 5 paths; the one of weight zero is bent, so self-concatenation skips it
    concat = _checks(run_suite("concat", type_label="C", rank=2, i=2))
    assert concat["constant_is_identity"] == (True, "5 paths compared, 0 skipped")
    assert concat["linear_selfconcat_is_stretch"] == (True, "4 paths compared, 1 skipped")
    # A2 w1 squared: 9 pairs * 3 indices * (e, f) = 54 moves; the square has
    # 12 edges, each an f-move from its source and an e-move from its target
    maj = _checks(run_suite("maj", type_label="A", rank=2, i=1, power=2))
    assert maj["major_index_shift_mod_power"] == (True, "24 moves compared, 30 skipped")
    assert maj["refined_index_shifts_by_grid"] == (True, "24 moves compared, 30 skipped")
    # shape (2,3): 3 * 4 basis tags and min(2, 3) + 1 singular vectors
    sl2 = _checks(run_suite("sl2", t1=2, t2=3))
    assert sl2["defining_relations"] == (True, "12 basis tags compared, 0 skipped")
    assert sl2["singular_vectors"] == (True, "3 vectors compared, 0 skipped")


def test_power_checks_fail_when_they_compared_nothing(monkeypatch):
    monkeypatch.setattr(loom.verify, "_power_keys", lambda base, power, **kw: iter(()))
    maj = run_suite("maj", type_label="A", rank=1, i=1)
    assert _checks(maj)["major_index_shift_mod_power"] == (False, "0 moves compared, 0 skipped")
    assert _checks(maj)["refined_index_shifts_by_grid"] == (False, "0 moves compared, 0 skipped")
    assert not maj["pass"]


def _planted(table, pair, delta=1):
    return EnergyTable(grid=table.grid, chi={**table.chi, pair: table.chi[pair] + delta})


def test_energy_shift_rule_fails_on_exactly_the_moves_at_a_planted_value(monkeypatch):
    base = loom.verify.fundamental_crystal(loom.verify.build_cartan("A", 2), 1)
    table = loom.verify.energy_table(base)
    keys = base.sorted_keys()
    pair = (keys[0], keys[-1])
    assert pair != (base.seed, base.seed)
    planted = _planted(table, pair)
    ops2 = TensorOps([base] * 2)
    acting = [(p, target) for p in itertools.product(keys, repeat=2)
              for _i, _kind, target in moves(ops2, p) if target is not None]
    outcomes = energy_edge_check(base, planted)
    # the A2 square's 12 edges, each an f-move and an e-move
    assert len(outcomes) == len(acting) == 24
    failing = [move for move, ok in zip(acting, outcomes) if not ok]
    assert failing and failing == [move for move in acting if pair in move]

    build = loom.verify.energy_table
    monkeypatch.setattr(loom.verify, "energy_table",
                        lambda graph, **kw: _planted(build(graph, **kw), pair))
    report = run_suite("energy", type_label="A", rank=2, i=1, seeds=2)
    assert _checks(report)["shift_rule_on_every_edge"] == (False, "24 moves compared, 0 skipped")
    assert not report["pass"]


def test_energy_shift_rule_fails_when_it_compared_nothing(monkeypatch):
    # one node and no indices: the square is the seed pair alone, with no move
    fundamental = loom.verify.fundamental_crystal

    def one_node(cartan, i, **kw):
        base = fundamental(cartan, i, **kw)
        node = Node(base.nodes[base.seed].element, None, (), ())
        return CrystalGraph("one-node", (), {base.seed: node}, {}, base.seed)

    monkeypatch.setattr(loom.verify, "fundamental_crystal", one_node)
    report = run_suite("energy", type_label="A", rank=1, i=1, seeds=1)
    assert _checks(report)["shift_rule_on_every_edge"] == (False, "0 moves compared, 0 skipped")
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["shift_rule_on_every_edge"]


def test_psi_injective_fails_on_a_collision_and_on_no_nodes(monkeypatch):
    image = loom.embedding.psi

    def collide(table, graph, element):
        # every node at degree 1 is sent to its image at degree 0
        factors, degree = element
        return image(table, graph, (factors, 0 if degree == 1 else degree))

    with monkeypatch.context() as mp:
        mp.setattr(loom.embedding, "psi", collide)
        report = run_suite("psi", type_label="A", rank=1, i=1, power=2, window=2)
    # A1 squared: 4 tuples at 5 degrees
    assert _checks(report)["psi_injective"] == (False, "20 nodes compared, 0 skipped")

    build = loom.verify.affinized_tensor_crystal

    def no_nodes(*args, **kw):
        aff = build(*args, **kw)
        aff.nodes.clear()
        return aff

    monkeypatch.setattr(loom.verify, "affinized_tensor_crystal", no_nodes)
    report = run_suite("psi", type_label="A", rank=1, i=1, power=2, window=2)
    # every seed image at the 5 degrees is missing
    assert _checks(report) == {
        "psi_injective": (False, "0 nodes compared, 0 skipped"),
        "psi_of_straight_seeds": (False, "5 degrees compared, 0 skipped"),
        "psi_endpoint_law": (False, "0 nodes compared, 0 skipped"),
    }


def test_psi_endpoint_law_fails_on_a_planted_endpoint(monkeypatch):
    image = loom.embedding.psi

    def lifted(table, graph, element):
        # one non-seed node at degree 0 goes to its image at degree 3, which
        # no node of the window 2 has, so only its endpoint is wrong
        other = next(k for k in graph.sorted_keys() if k != graph.seed)
        if element == ((graph.seed, other), 0):
            element = ((graph.seed, other), 3)
        return image(table, graph, element)

    monkeypatch.setattr(loom.embedding, "psi", lifted)
    report = run_suite("psi", type_label="A", rank=1, i=1, power=2, window=2)
    assert _checks(report) == {
        "psi_injective": (True, "20 nodes compared, 0 skipped"),
        "psi_of_straight_seeds": (True, "5 degrees compared, 0 skipped"),
        "psi_endpoint_law": (False, "20 nodes compared, 0 skipped"),
    }
    assert not report["pass"]


def test_psi_runs_at_a_power_above_the_window():
    # decompose refuses power 3 on the window 1, so psi is the one check here;
    # A1 cubed: 8 tuples at the 3 degrees -1..1
    report = run_suite("psi", type_label="A", rank=1, i=1, power=3, window=1)
    assert report["pass"]
    assert _checks(report) == {
        "psi_injective": (True, "24 nodes compared, 0 skipped"),
        "psi_of_straight_seeds": (True, "3 degrees compared, 0 skipped"),
        "psi_endpoint_law": (True, "24 nodes compared, 0 skipped"),
    }
    with pytest.raises(ValueError, match="^window must be at least 2$"):
        run_suite("decompose", type_label="A", rank=1, i=1, power=3, window=1)


@pytest.mark.parametrize("plant", ["drop", "alter"])
def test_sl2_transition_checks_fail_on_a_dropped_or_altered_entry(monkeypatch, plant):
    cases = loom.verify.sl2lab.origin_case_table

    def planted(t1, t2):
        table = cases(t1, t2)
        if plant == "drop":
            del table["e", 0, 0]
        else:
            table["f", 0, 0] = (0, 0)
        return table

    monkeypatch.setattr(loom.verify.sl2lab, "origin_case_table", planted)
    checks = _checks(run_suite("sl2", t1=1, t2=1))
    # 2 * 2 tags, each with an e and an f transition; the dropped ("e", 0, 0)
    # maps to None in the other tables, and still fails as a missing key
    assert checks["matches_case_split"] == (False, "8 transitions compared, 0 skipped")
    assert checks["matches_tensor_rule"] == (True, "8 transitions compared, 0 skipped")


def test_sl2_transition_checks_fail_on_empty_tables(monkeypatch):
    monkeypatch.setattr(loom.verify.sl2lab, "crystal_limit_table", lambda lattice: {})
    for name in ("origin_case_table", "tensor_rule_table"):
        monkeypatch.setattr(loom.verify.sl2lab, name, lambda t1, t2: {})
    checks = _checks(run_suite("sl2", t1=1, t2=1))
    assert checks["matches_case_split"] == (False, "0 transitions compared, 0 skipped")
    assert checks["matches_tensor_rule"] == (False, "0 transitions compared, 0 skipped")


def test_sl2_transition_checks_fail_when_the_lattice_check_fails(monkeypatch):
    def not_in_lattice(lattice):
        raise ArithmeticError("planted")

    monkeypatch.setattr(loom.verify.sl2lab, "crystal_limit_table", not_in_lattice)
    checks = _checks(run_suite("sl2", t1=1, t2=1))
    # every transition is missing from the empty limit table, including the
    # ones whose value is None
    assert checks["lattice_preserved"] == (False, "ArithmeticError: planted")
    assert checks["matches_case_split"] == (False, "8 transitions compared, 0 skipped")
    assert checks["matches_tensor_rule"] == (False, "8 transitions compared, 0 skipped")


# the checks that make one comparison, not one per item of a collection
SINGLE_COMPARISONS = {"image_equals_union", "total", "seed_pair_is_zero", "total_order_exists",
                      "indecomposable", "lattice_preserved"}


def test_every_check_over_a_collection_counts_what_it_compared():
    report = run_suite("all", type_label="A", rank=2, window=2)
    names = set()
    for sub in report["reports"]:
        for check in sub["checks"]:
            names.add(check["name"])
            if check["name"] not in SINGLE_COMPARISONS:
                assert re.fullmatch(r"\d+ .+ compared, \d+ skipped", check["detail"]), (
                    sub["suite"], check)
    assert SINGLE_COMPARISONS <= names
