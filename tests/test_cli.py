import itertools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loom
from loom import Weight, build_cartan, sl2
from loom.cli import main, parse_weight_label
from loom.crystals import NodeCapError
from loom.paths import PathOps
from loom.verify import SUITES
from weights import fund


def run(tmp_path, *argv):
    out = tmp_path / "artifact.out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


def assert_fault_exits_1(tmp_path, capsys, argv, message):
    # a failed self-check: exit 1, its type and message on stderr, no usage, no file
    assert exit_code(argv + ["--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ArithmeticError: " + message)
    assert "usage:" not in err
    assert not (tmp_path / "x.json").exists()


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
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1",
                     "--weight", "2w1+1d", "--window", "3")
    assert code == 0
    obj = json.loads(text)
    assert obj["truncated"] is True and obj["window"] == 3


def test_gen_weight_label_may_start_with_a_sign(tmp_path, capsys):
    # the grammar allows a leading sign, also on a label given as a separate argument
    gen = ["gen", "--type", "A", "--rank", "2", "--window", "1"]
    glued = run(tmp_path, *gen, "--weight=-w1+d")
    for flag, label in (("--weight", "-w1+d"), ("--weight", "+d-w1"), ("--wei", "-w1+d")):
        assert run(tmp_path, *gen, flag, label) == glued
    assert glued[0] == 0 and len(json.loads(glued[1])["nodes"]) == 9
    assert run(tmp_path, *gen, "--weight", "-2w2")[0] == 0
    # a flag after --weight is still not taken for its label, and --w stays ambiguous
    for argv, message in ((["--weight", "--format", "summary"], "expected one argument"),
                          (["--w", "-w1"], "ambiguous option: --w")):
        with pytest.raises(SystemExit) as err:
            main(gen + argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err


def test_gen_affine_ambient(tmp_path):
    code, text = run(tmp_path, "gen", "--type", "A", "--rank", "1",
                     "--weight", "w1", "--window", "2")
    assert code == 0
    obj = json.loads(text)
    assert obj["truncated"] is True
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "1", "--weight", "w1"])
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
    code, _ = run(tmp_path, "verify", "--suite", "sl2", "--t1", "1", "--t2", "1")
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


def test_invalid_config_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "Z", "--rank", "3"])
    assert err.value.code == 2
    # each suite has one name: the old aliases are unknown suites
    for name in ("nonsense", "sl2-lemma", "psi-decomposition"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", name])
        assert err.value.code == 2
        assert "unknown suite %r" % name in capsys.readouterr().err


def test_gen_power_checks_that_the_closure_covers_the_power(tmp_path, monkeypatch, capsys):
    right = loom.cli.generate

    def drops_a_node(*args, **kw):
        # a closure that missed one tuple, and the edges to and from it
        graph = right(*args, **kw)
        lost, _ = graph.nodes.popitem()
        graph.f_edges = {(src, i): dst for (src, i), dst in graph.f_edges.items()
                         if lost not in (src, dst)}
        return graph

    monkeypatch.setattr("loom.cli.generate", drops_a_node)
    # a missed tuple is a fault of the library, not bad input
    assert_fault_exits_1(tmp_path, capsys, ["gen", "--type", "A", "--rank", "2", "--power", "2"],
                         "tensor power closure missed elements: 8 of 9\n")
    base = loom.cli.fundamental_crystal(build_cartan("A", 2), 1)
    missed = "^tensor power closure missed elements: 3 of 9$"
    with pytest.raises(ArithmeticError, match=missed) as err:
        loom.cli.check_power_coverage(base, base, 2)
    assert not isinstance(err.value, ValueError)


def test_a_planted_translation_fault_exits_1(tmp_path, monkeypatch, capsys):
    # outputs moved by (s + 1) delta instead of s delta break the operator graph
    real = PathOps._moved
    monkeypatch.setattr(PathOps, "_moved", lambda self, y, s: real(self, y, s + 1) if s else y)
    assert_fault_exits_1(tmp_path, capsys, ["verify", "--suite", "decompose", "--type", "A",
                                            "--rank", "2", "--i", "1", "--m", "2", "--window", "3"],
                         "conflicting lowering edges at ")


def test_a_planted_energy_sweep_conflict_exits_1(tmp_path, monkeypatch, capsys):
    # one more on every lowering move: the raising move back disagrees
    real = loom.energy._shifted_moves
    monkeypatch.setattr(loom.energy, "_shifted_moves", lambda ops2, pair: (
        (i, kind, target, shift + (kind == "f")) for i, kind, target, shift in real(ops2, pair)))
    assert_fault_exits_1(tmp_path, capsys, ["verify", "--suite", "energy", "--type", "A",
                                            "--rank", "2", "--i", "1", "--seeds", "1"], "pair ")


def test_a_planted_mark_fault_exits_1(tmp_path, monkeypatch, capsys):
    # the last mark off by one: build_cartan's own kernel check catches it
    right = loom.cartan._primitive
    built = []

    def last_mark_off_by_one(vec):
        ints = right(vec)
        built.append(ints)
        if len(built) == 1:  # the marks; the comarks and the symmetrizers follow
            ints[-1] += 1
        return ints

    monkeypatch.setattr(loom.cartan, "_primitive", last_mark_off_by_one)
    assert_fault_exits_1(tmp_path, capsys, ["verify", "--suite", "weyl", "--type", "D",
                                            "--rank", "4", "--i", "1"],
                         "marks are not a kernel vector\n")
    assert len(built) == 3


def test_a_planted_symmetrizer_fault_exits_1(tmp_path, monkeypatch, capsys):
    # the last symmetrizer off by one: build_cartan's symmetry check of D·A catches it
    right = loom.cartan._primitive
    built = []

    def last_symmetrizer_off_by_one(vec):
        ints = right(vec)
        built.append(ints)
        if len(built) == 3:  # the symmetrizers, after the marks and the comarks
            ints[-1] += 1
        return ints

    monkeypatch.setattr(loom.cartan, "_primitive", last_symmetrizer_off_by_one)
    assert_fault_exits_1(tmp_path, capsys, ["verify", "--suite", "weyl", "--type", "D",
                                            "--rank", "4", "--i", "1"],
                         "matrix is not symmetrizable\n")
    assert len(built) == 3


def test_a_planted_root_operator_fault_exits_1(tmp_path, monkeypatch, capsys):
    # a reflected block that ends halfway leaves the lattice: make_path refuses it
    right = loom.paths._split_reflect

    def halfway(cartan, path, i, a, b):
        return right(cartan, path, i, a, (a[0] * b[1] + b[0] * a[1], 2 * a[1] * b[1]))

    monkeypatch.setattr(loom.paths, "_split_reflect", halfway)
    assert_fault_exits_1(tmp_path, capsys, ["gen", "--type", "A", "--rank", "2",
                                            "--format", "summary"],
                         "path endpoint is not a lattice weight\n")


def test_a_planted_string_peel_fault_fails_lattice_preserved(tmp_path, monkeypatch):
    # every lowering peel gains a basis term of another weight; only
    # string_decompose's own act_F_div calls see it, the Kashiwara operators don't
    right = sl2.act_F_div

    def with_a_stray_term(v, r):
        out = right(v, r)
        if not r:
            return out
        stray = next(idx for idx in itertools.product(*(range(t + 1) for t in v.shape))
                     if sl2._index_weight(v.shape, idx) != out.weight())
        return out + sl2.TensorVector.basis(v.shape, stray)

    code = sl2.string_decompose.__code__
    monkeypatch.setattr(sl2, "string_decompose", types.FunctionType(
        code, {**vars(sl2), "act_F_div": with_a_stray_term}))
    out = tmp_path / "sl2.json"
    assert main(["verify", "--suite", "sl2", "--t1", "1", "--t2", "1", "--json",
                 "--out", str(out)]) == 1
    checks = {c["name"]: (c["pass"], c["detail"]) for c in json.loads(out.read_text())["checks"]}
    assert checks["lattice_preserved"] == (
        False, "ArithmeticError: string peeling changed the weight")


def test_node_cap_exit_code(tmp_path):
    code = main(["gen", "--type", "A", "--rank", "2", "--i", "1", "--power", "2",
                 "--node-cap", "2", "--out", str(tmp_path / "x.json")])
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
    # pairs, and before any vector of the 5 x 5 sl2 tags is built; psi's
    # closure of the 2**3 tuples stops at the cap before any image is made
    def untouched(*args):
        raise AssertionError("product loop ran over the node cap")

    monkeypatch.setattr("loom.verify.major_index", untouched)
    monkeypatch.setattr("loom.embedding.psi", untouched)
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


@pytest.mark.parametrize("argv", [
    ["gen", "--type", "A", "--rank", "1"],
    ["verify", "--suite", "weyl"],
], ids=["gen", "verify"])
@pytest.mark.parametrize("out", ["", "nonexist" + os.sep], ids=["existing", "missing"])
def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys, argv, out):
    def untouched(*args, **kw):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr("loom.cli.build_cartan", untouched)
    monkeypatch.setattr("loom.cli.run_suite", untouched)
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path) + os.sep + out])
    assert err.value.code == 2
    assert "--out names a directory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("error,code,shown", [
    (ValueError("no fundamental crystal here"), 2,
     "loom gen: error: no fundamental crystal here"),
    (ArithmeticError("a self-check failed"), 1, "error: ArithmeticError: a self-check failed"),
    (ZeroDivisionError("pole at the origin"), 1, "error: ZeroDivisionError: pole at the origin"),
    (NodeCapError("closure exceeds the node cap of 2"), 3,
     "error: closure exceeds the node cap of 2"),
], ids=["ValueError", "ArithmeticError", "ZeroDivisionError", "NodeCapError"])
def test_library_errors_exit_by_kind(tmp_path, monkeypatch, capsys, error, code, shown):
    # main is the one boundary: a ValueError is bad input and exits 2 with
    # the usage line, an ArithmeticError a failed self-check and exits 1
    def broken(*args, **kw):
        raise error

    monkeypatch.setattr("loom.cli.fundamental_crystal", broken)
    argv = ["gen", "--type", "A", "--rank", "1", "--out", str(tmp_path / "x.json")]
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert err.endswith(shown + "\n")
    assert err.startswith("usage: loom gen ") if code == 2 else err == shown + "\n"
    assert not (tmp_path / "x.json").exists()


def test_errors_print_subcommand_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "2", "--node-cap", "-5",
              "--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: loom gen")
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "energy", "--seeds", "0"])
    assert capsys.readouterr().err.startswith("usage: loom verify")


def test_an_unsupported_type_is_named_as_the_help_names_the_types(tmp_path, capsys):
    expected = "one of A, B, C, D, E6, E7, E8, F4, G2"
    assert exit_code(["gen", "--type", "X", "--rank", "2", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: loom gen")
    assert err.endswith("loom gen: error: unsupported type 'X'; expected %s\n" % expected)
    assert exit_code(["gen", "--help"]) == 0
    # argparse wraps the help to the terminal width
    assert "--type TYPE %s" % expected in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["--weight", "w1", "--window", "-1"],
    ["--affinize", "--power", "2", "--window", "-1"],
    ["--power", "0"],
    ["--affinize", "--power", "0", "--window", "2"],
    ["--weight", "w1w1", "--window", "1"],
    ["--weight", "2w1d", "--window", "1"],
    ["--weight", "", "--window", "1"],
    ["--weight", "  ", "--window", "1"],
    ["--node-cap", "0"],
    ["--node-cap", "-5"],
    ["--weight", "2w1+1d", "--window", "2", "--affinize"],
    ["--weight", "w1", "--window", "2", "--i", "1", "--power", "1"],
    ["--weight", "w1", "--window", "2", "--power", "3"],
    ["--weight", "w1", "--window", "2", "--affinize", "--power", "3"],
    ["--weight", "w1", "--window", "1", "--i", "7"],
    ["--weight", "w1", "--affinize", "--power", "2"],
    ["--weight", "w1", "--power", "2"],
    ["--weight", "w1"],
    ["--weight", "w1", "--window", "2", "--power", "0"],
    ["--window", "2"],
    ["--power", "2", "--window", "2"],
    ["--weight", "2w1+1d"],
    ["--window", "1", "--i", "1"],
    ["--i", "2"],
    ["--weight", "w2", "--window", "1"],
    ["--affinize", "--node-cap", "1"],
    ["--weight", "w1", "--window", "2", "--i", "1"],
    ["--weight", "w1", "--window", "2", "--power", "1"],
    ["--i", "0"],
], ids=["affine-window", "affinize-window", "power", "affinize-power",
        "weight-unsigned-terms", "weight-unsigned-null-root", "weight-empty",
        "weight-blank", "cap-zero", "cap-negative", "ls-affinize", "ls-affine", "ls-power",
        "ls-affinize-power", "ls-i", "affine-affinize", "affine-power", "weight-alone",
        "weight-affine", "window-classical", "window-power", "ls-no-window", "ls-no-weight",
        "i-above-rank", "affine-i-above-rank", "affinize-no-window", "weight-i-default",
        "weight-power-default", "i-zero"])
def test_bad_gen_input_exits_2(tmp_path, capsys, argv):
    # the ids "ls" and "affine" name the windowed path crystal of --weight
    with pytest.raises(SystemExit) as err:
        main(["gen", "--type", "A", "--rank", "1"] + argv
             + ["--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    # each case is refused by loom, not by argparse as an unknown flag
    assert "unrecognized arguments" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--type", "A", "--rank", "1", "--ls", "--weight", "w1", "--window", "2"],
    ["gen", "--type", "A", "--rank", "1", "--ambient", "affine", "--window", "2"],
    ["gen", "--type", "A", "--rank", "1", "--threads", "2"],
    ["verify", "--suite", "sl2", "--threads", "2"],
], ids=["gen-ls", "gen-ambient", "gen-threads", "verify-threads"])
def test_removed_flags_are_unknown(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "x.json")])
    assert err.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["--suite", "sl2", "--t1", "-1"],
    ["--suite", "sl2", "--t2", "-1"],
    ["--suite", "xi", "--window", "0"],
    ["--suite", "energy", "--seeds", "0"],
    ["--suite", "decompose", "--m", "4", "--window", "3"],
    ["--suite", "energy", "--node-cap", "0"],
    ["--suite", "normality", "--type", "A", "--rank", "2", "--power", "3", "--m", "2"],
    ["--suite", "normality", "--power", "0"],
    ["--suite", "maj", "--power", "0"],
    ["--suite", "psi", "--m", "-1"],
    ["--suite", "all", "--power", "0"],
], ids=["sl2-t1", "sl2-t2", "xi-window", "energy-seeds", "decompose-power-above-window",
        "cap-zero", "m-and-power-disagree", "normality-power", "maj-power", "psi-m",
        "all-power"])
def test_vacuous_verify_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify"] + argv + ["--out", str(tmp_path / "r.txt")])
    assert err.value.code == 2
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("suite,reported", [
    ("normality", "normality"), ("maj", "maj"), ("psi", "psi"), ("all", "normality"),
])
def test_verify_power_below_one_names_the_flag(capsys, suite, reported):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", suite, "--power", "0"])
    assert "%s needs power >= 1, got 0\n" % reported in capsys.readouterr().err


@pytest.mark.parametrize("argv,stray", [
    (["--suite", "sl2", "--type", "E6", "--rank", "6"], "--type, --rank"),
    (["--suite", "sl2", "--power", "3"], "--power"),
    (["--suite", "sl2", "--m", "3", "--i", "2"], "--i, --m"),
    (["--suite", "normality", "--t1", "3"], "--t1"),
    (["--suite", "weyl", "--window", "5"], "--window"),
    (["--suite", "energy", "--power", "2"], "--power"),
    (["--suite", "decompose", "--seeds", "2"], "--seeds"),
    (["--suite", "decompose", "--t2", "2"], "--t2"),
], ids=["sl2-type-rank", "sl2-power", "sl2-m-i", "normality-t1", "weyl-window",
        "energy-power", "decompose-seeds", "decompose-t2"])
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
    assert run(tmp_path, "verify", "--suite", "all", *every)[0] == 0
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
    power1 = {run(tmp_path, *argv, *extra) for extra in (["--power", "1"], ["--m", "1"])}
    assert len(power1) == len(power2) == len(power3) == 1
    assert len(power1 | power2 | power3) == 3
    assert next(iter(power1))[0] == next(iter(power3))[0] == 0


def test_deterministic_artifacts(tmp_path):
    texts = []
    for run_id in range(3):
        out = tmp_path / ("d%s.json" % run_id)
        code = main(["gen", "--type", "A", "--rank", "1", "--i", "1",
                     "--affinize", "--power", "2", "--window", "3", "--out", str(out)])
        assert code == 0
        texts.append(out.read_bytes())
    assert len(set(texts)) == 1


@pytest.mark.parametrize("argv", [
    ["--type", "C", "--rank", "2", "--i", "2", "--affinize", "--power", "2", "--window", "2"],
    ["--type", "A", "--rank", "2", "--i", "1", "--power", "3", "--format", "dot"],
], ids=["c2-affinized-json", "a2-cube-dot"])
def test_artifacts_identical_across_interpreters(argv):
    # the emitted order rests on the keys alone, not on hashing or discovery order
    src = str(Path(loom.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "loom.cli", "gen"] + argv,
                              env=env, capture_output=True, check=True, timeout=120)
        assert done.stdout
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_weight_grammar():
    a2 = build_cartan("A", 2)
    fw1, fw2 = (fund(a2, i, affine=True) for i in (1, 2))
    delta = a2.null_root()
    assert parse_weight_label(a2, "2w1 + w2 + 3d") == 2 * fw1 + fw2 + 3 * delta
    assert parse_weight_label(a2, "-w2+1d") == -fw2 + delta
    assert parse_weight_label(a2, "0").weight() == Weight((0, 0, 0), 0)
    # node 0 gets minus the comark-weighted sum; G2 and E6 have comarks above one.
    # The reprs were recorded on the Fraction-weight parser that summed Weight terms
    for (label, rank), text, want, terms in [
        (("G2", 2), "2w1 - w2 + 3d", "Weight(-3,2,-1 | 3d)", {1: 2, 2: -1, 0: 3}),
        (("G2", 2), "w2+w1", "Weight(-3,1,1 | 0d)", {1: 1, 2: 1}),
        (("C", 2), "3w2-w1-2d", "Weight(-2,-1,3 | -2d)", {1: -1, 2: 3, 0: -2}),
        (("E6", 6), "w4 - 2w3 + w1 + d", "Weight(0,1,0,-2,1,0,0 | 1d)", {1: 1, 3: -2, 4: 1, 0: 1}),
        (("E6", 6), "2w4+w2-5d", "Weight(-8,0,1,0,2,0,0 | -5d)", {2: 1, 4: 2, 0: -5}),
    ]:
        cartan = build_cartan(label, rank)
        got = parse_weight_label(cartan, text)
        assert repr(got.weight()) == want, (label, text)
        # key 0 counts the null root
        parts = [c * (fund(cartan, j, affine=True) if j else cartan.null_root())
                 for j, c in terms.items()]
        assert got == sum(parts[1:], parts[0]), (label, text)
    for text in ("w3", "w1+w0"):
        with pytest.raises(ValueError, match=r"^classical fundamental index must be in 1\.\.rank"):
            parse_weight_label(a2, text)
    with pytest.raises(ValueError):
        parse_weight_label(a2, "2x3")
