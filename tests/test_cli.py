import json
import os

import pytest

from loom import build_cartan
from loom.cli import main, parse_weight_label
from loom.verify import SUITES


def run(tmp_path, *argv):
    out = tmp_path / "artifact.out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_gen_base_graph(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1", "--i", "1")
    assert code == 0
    obj = json.loads(text)
    assert len(obj["nodes"]) == 2 and len(obj["edges"]) == 2
    assert obj["truncated"] is False


def test_gen_tensor_graph(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "2", "--i", "1",
                     "--power", "2")
    assert code == 0
    assert len(json.loads(text)["nodes"]) == 9


def test_gen_path_window(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1", "--i", "1",
                     "--ls", "--weight", "2w1+1d", "--window", "3")
    assert code == 0
    obj = json.loads(text)
    assert obj["truncated"] is True and obj["window"] == 3


def test_gen_affine_ambient(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1", "--i", "1",
                     "--ambient", "affine", "--window", "2")
    assert code == 0
    obj = json.loads(text)
    assert obj["truncated"] is True
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "1", "--ambient", "affine"])
    assert err.value.code == 2


def test_gen_dot_and_summary(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1", "--format", "dot")
    assert code == 0 and text.startswith("digraph")
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1",
                     "--format", "summary")
    assert code == 0 and "nodes=2" in text


def test_verify_pass_and_exit_codes(tmp_path):
    code, text = run(tmp_path, "verify", "--suite", "decompose", "--type", "A",
                     "--rank", "1", "--i", "1", "--m", "2", "--window", "3", "--json")
    assert code == 0
    assert json.loads(text)["pass"] is True
    code, _ = run(tmp_path, "verify", "--suite", "sl2-lemma", "--t1", "1", "--t2", "1")
    assert code == 0


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setitem(
        SUITES, "alwaysfail",
        lambda *a, **k: {"suite": "alwaysfail",
                         "checks": [{"name": "x", "pass": False, "detail": ""}],
                         "pass": False},
    )
    code, text = run(tmp_path, "verify", "--suite", "alwaysfail")
    assert code == 1
    assert "FAIL" in text


def test_invalid_config_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "Z", "--rank", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


def test_node_cap_exit_code(tmp_path):
    code = main(["gen", "--type", "A", "--rank", "2", "--i", "1", "--power", "2",
                 "--node-cap", "2", "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_node_cap_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LOOM_NODE_CAP", "2")
    code = main(["gen", "--type", "A", "--rank", "2", "--i", "1", "--power", "2",
                 "--out", str(tmp_path / "x.json")])
    assert code == 3


def test_affinized_node_cap_exit_code(tmp_path):
    code = main(["gen", "--type", "A", "--rank", "1", "--affinize", "--power", "2",
                 "--window", "300", "--node-cap", "10", "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["--suite", "maj", "--rank", "1", "--power", "3"],
    ["--suite", "psi", "--rank", "1", "--power", "3"],
    ["--suite", "energy", "--rank", "2", "--seeds", "1"],
    ["--suite", "concat", "--rank", "2"],
    ["--suite", "maj", "--rank", "2", "--power", "1"],
], ids=["maj", "psi", "energy-square", "concat-square", "maj-square"])
def test_power_over_node_cap_exit_code(tmp_path, monkeypatch, argv):
    # the cap is checked before any loop over the 2**3 tuples or the 3**2 pairs
    def untouched(*args):
        raise AssertionError("product loop ran over the node cap")

    monkeypatch.setattr("loom.verify.major_index", untouched)
    monkeypatch.setattr("loom.verify.kappa", untouched)
    monkeypatch.setattr("loom.verify.concat", untouched)
    code = main(["verify", "--type", "A"] + argv
                + ["--node-cap", "4", "--out", str(tmp_path / "r.txt")])
    assert code == 3
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--type", "A", "--rank", "1"],
    ["verify", "--suite", "weyl"],
], ids=["gen", "verify"])
def test_out_into_missing_directory_exits_2(tmp_path, monkeypatch, capsys, argv):
    def untouched(*args, **kw):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr("loom.cli.build_cartan", untouched)
    monkeypatch.setattr("loom.cli.run_suite", untouched)
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "missing" / "x.out")])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: loom " + argv[0])


def test_errors_print_subcommand_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "2", "--node-cap", "-5",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: loom gen")
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "energy", "--seeds", "0"])
    assert capsys.readouterr().err.startswith("usage: loom verify")


@pytest.mark.parametrize("env,argv", [
    ("abc", []),
    (None, ["--ambient", "affine", "--window", "-1"]),
    (None, ["--affinize", "--power", "2", "--window", "-1"]),
    (None, ["--power", "0"]),
    (None, ["--affinize", "--power", "0", "--window", "2"]),
    (None, ["--ls", "--weight", "w1w1", "--window", "1"]),
    (None, ["--ls", "--weight", "2w1d", "--window", "1"]),
    (None, ["--ls", "--weight", "", "--window", "1"]),
    (None, ["--ls", "--weight", "  ", "--window", "1"]),
    (None, ["--node-cap", "0"]),
    (None, ["--node-cap", "-5"]),
    ("0", []),
    ("-5", []),
    (None, ["--ls", "--weight", "w1", "--window", "2", "--affinize"]),
    (None, ["--ls", "--weight", "w1", "--window", "2", "--ambient", "affine"]),
    (None, ["--ls", "--weight", "w1", "--window", "2", "--power", "3"]),
    (None, ["--ls", "--weight", "w1", "--window", "2", "--affinize", "--power", "3"]),
    (None, ["--ambient", "affine", "--window", "2", "--affinize"]),
    (None, ["--ambient", "affine", "--window", "2", "--power", "2"]),
    (None, ["--weight", "w1"]),
    (None, ["--weight", "w1", "--ambient", "affine", "--window", "2"]),
    (None, ["--window", "2"]),
    (None, ["--power", "2", "--window", "2"]),
], ids=["cap-env-not-int", "affine-window", "affinize-window", "power", "affinize-power",
        "weight-unsigned-terms", "weight-unsigned-null-root", "weight-empty",
        "weight-blank", "cap-zero", "cap-negative", "cap-env-zero", "cap-env-negative",
        "ls-affinize", "ls-affine", "ls-power", "ls-affinize-power", "affine-affinize",
        "affine-power", "weight-alone", "weight-affine", "window-classical",
        "window-power"])
def test_bad_gen_input_exits_2(tmp_path, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("LOOM_NODE_CAP", env)
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "1"] + argv
             + ["--out", str(tmp_path / "x.json")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--suite", "sl2", "--t1", "-1"],
    ["--suite", "sl2", "--t2", "-1"],
    ["--suite", "xi", "--window", "0"],
    ["--suite", "energy", "--seeds", "0"],
    ["--suite", "decompose", "--m", "4", "--window", "3"],
    ["--suite", "energy", "--node-cap", "0"],
], ids=["sl2-t1", "sl2-t2", "xi-window", "energy-seeds", "decompose-power-above-window",
        "cap-zero"])
def test_vacuous_verify_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv + ["--out", str(tmp_path / "r.txt")])
    assert err.value.code == 2
    assert not (tmp_path / "r.txt").exists()


def test_deterministic_artifacts(tmp_path):
    texts = []
    for run_id in range(2):
        for threads in ("1", "4"):
            out = tmp_path / ("d%s%s.json" % (run_id, threads))
            code = main(["gen", "--type", "A", "--rank", "1", "--i", "1",
                         "--affinize", "--power", "2", "--window", "3",
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            texts.append(out.read_text())
    assert len(set(texts)) == 1


def test_weight_grammar():
    a2 = build_cartan("A", 2)
    w = parse_weight_label(a2, "2w1 + w2 + 3d")
    expect = (
        2 * a2.classical_fundamental(1, classical=False)
        + a2.classical_fundamental(2, classical=False)
        + 3 * a2.null_root()
    )
    assert w == expect
    assert parse_weight_label(a2, "-w2+1d") == (
        -a2.classical_fundamental(2, classical=False) + a2.null_root()
    )
    assert parse_weight_label(a2, "0").is_zero
    with pytest.raises(ValueError):
        parse_weight_label(a2, "2x3")
