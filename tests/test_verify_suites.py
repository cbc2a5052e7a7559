import pytest

import loom.verify
from loom.crystals import CrystalGraph, Node, NodeCapError
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


def test_suite_aliases():
    report = run_suite("psi-decomposition", type_label="A", rank=1, i=1,
                       power=2, window=3)
    assert report["suite"] == "decompose" and report["pass"]


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
    assert verdicts == {"kappa_endpoints": True, "injective": True, "straight_seeds": False}


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
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
    psi = run_suite("psi", type_label="A", rank=1, i=1, window=2)
    assert _checks(psi)["kappa_endpoints"] == (False, "0 endpoints compared, 0 skipped")
    assert not maj["pass"] and not psi["pass"]
