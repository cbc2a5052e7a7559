import pytest

import loom.verify
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
