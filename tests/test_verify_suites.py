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
    assert details["weight_gradient"] == "12 edges compared"
    assert details["phi_minus_eps_pairing"] == "27 node-index pairs compared"


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
