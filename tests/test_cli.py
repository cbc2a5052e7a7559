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
    ["--suite", "sl2", "--t1", "4", "--t2", "4"],
], ids=["maj", "psi", "energy-square", "concat-square", "maj-square", "sl2"])
def test_power_over_node_cap_exit_code(tmp_path, monkeypatch, argv):
    # the cap is checked before any loop over the 2**3 tuples or the 3**2
    # pairs, and before any vector of the 5 x 5 sl2 tags is built
    def untouched(*args):
        raise AssertionError("product loop ran over the node cap")

    monkeypatch.setattr("loom.verify.major_index", untouched)
    monkeypatch.setattr("loom.verify.kappa", untouched)
    monkeypatch.setattr("loom.verify.concat", untouched)
    monkeypatch.setattr("loom.sl2.StringLattice", untouched)
    monkeypatch.setattr("loom.sl2.TensorVector.basis", untouched)
    code = main(["verify"] + argv + ["--node-cap", "4", "--out", str(tmp_path / "r.txt")])
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
    (None, ["--ls", "--weight", "w1", "--window", "1", "--i", "7"]),
    (None, ["--ambient", "affine", "--window", "2", "--affinize"]),
    (None, ["--ambient", "affine", "--window", "2", "--power", "2"]),
    (None, ["--weight", "w1"]),
    (None, ["--weight", "w1", "--ambient", "affine", "--window", "2"]),
    (None, ["--window", "2"]),
    (None, ["--power", "2", "--window", "2"]),
], ids=["cap-env-not-int", "affine-window", "affinize-window", "power", "affinize-power",
        "weight-unsigned-terms", "weight-unsigned-null-root", "weight-empty",
        "weight-blank", "cap-zero", "cap-negative", "cap-env-zero", "cap-env-negative",
        "ls-affinize", "ls-affine", "ls-power", "ls-affinize-power", "ls-i", "affine-affinize",
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
    ["--suite", "normality", "--type", "A", "--rank", "2", "--power", "3", "--m", "2"],
], ids=["sl2-t1", "sl2-t2", "xi-window", "energy-seeds", "decompose-power-above-window",
        "cap-zero", "m-and-power-disagree"])
def test_vacuous_verify_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv + ["--out", str(tmp_path / "r.txt")])
    assert err.value.code == 2
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("argv,stray", [
    (["--suite", "sl2", "--type", "E6", "--rank", "6"], "--type, --rank"),
    (["--suite", "sl2", "--power", "3"], "--power"),
    (["--suite", "sl2-lemma", "--m", "3", "--i", "2"], "--i, --m"),
    (["--suite", "normality", "--t1", "3"], "--t1"),
    (["--suite", "weyl", "--window", "5"], "--window"),
    (["--suite", "energy", "--power", "2"], "--power"),
    (["--suite", "decompose", "--seeds", "2"], "--seeds"),
    (["--suite", "psi-decomposition", "--t2", "2"], "--t2"),
], ids=["sl2-type-rank", "sl2-power", "sl2-alias-m-i", "normality-t1", "weyl-window",
        "energy-power", "decompose-seeds", "decompose-alias-t2"])
def test_verify_flag_the_suite_ignores_exits_2(tmp_path, monkeypatch, capsys, argv, stray):
    def untouched(*args, **kw):
        raise AssertionError("ran a suite with a flag it ignores")

    monkeypatch.setattr("loom.cli.run_suite", untouched)
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv + ["--out", str(tmp_path / "r.txt")])
    assert err.value.code == 2
    assert "reads no %s\n" % stray in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_verify_passes_only_the_given_flags(tmp_path, monkeypatch):
    calls = []

    def recorded(name, **kw):
        calls.append((name, kw))
        return {"suite": name, "checks": [], "pass": True}

    monkeypatch.setattr("loom.cli.run_suite", recorded)
    every = ["--type", "B", "--rank", "3", "--i", "2", "--power", "3", "--m", "3",
             "--window", "4", "--t1", "2", "--t2", "3", "--seeds", "5"]
    assert run(tmp_path, "verify", "--suite", "all", *every, "--threads", "2")[0] == 0
    assert run(tmp_path, "verify", "--suite", "sl2", "--t2", "3", "--node-cap", "9")[0] == 0
    assert run(tmp_path, "verify", "--suite", "maj", "--m", "3")[0] == 0
    assert calls == [
        ("all", {"type_label": "B", "rank": 3, "i": 2, "power": 3, "window": 4,
                 "t1": 2, "t2": 3, "seeds": 5, "node_cap": None}),
        ("sl2", {"t2": 3, "node_cap": 9}),
        ("maj", {"power": 3, "node_cap": None}),
    ]


def test_verify_power_and_its_alias(tmp_path):
    argv = ["verify", "--suite", "normality", "--type", "A", "--rank", "2", "--json"]
    power2 = {run(tmp_path, *argv, *extra) for extra in ([], ["--power", "2"], ["--m", "2"])}
    power3 = {run(tmp_path, *argv, *extra)
              for extra in (["--power", "3"], ["--m", "3"], ["--power", "3", "--m", "3"])}
    assert len(power2) == len(power3) == 1 and power2 != power3
    assert next(iter(power3))[0] == 0


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
