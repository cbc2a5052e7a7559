"""Benchmark of the loom command line, end to end and layer by layer.

Usage::

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

Run it from the root of a loom checkout.  Each pass runs one workload's
job list through ``loom.cli.main`` in a fresh interpreter, with no
``--threads`` flag and the default node cap; the seed only permutes the
job order.  Every artifact and report is checked against
``perfbench/expected.json``.

With ``--trace 0`` the run repeats passes until ``--seconds`` have gone
by and reports the end-to-end metrics ``pass_s``, ``setup_s`` and
``peak_rss_mb`` as medians; the two times are scaled to a reference host
speed measured by a probe inside every interpreter (see passrun.py).  With ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics of
``tracer.LAYER_METRICS``, after the zero-call guard and the layer
separation check.  The last line of stdout is one JSON object; a run
record with the machine, the code version and every sample is written
under ``perfbench/.work/records``.  Exit code 0 means every job gave the
expected result and every trace check held, 1 that one did not, 2 that
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected.json")
PASSRUN = os.path.join(HERE, "passrun.py")

sys.path.insert(0, HERE)
import tracer  # noqa: E402

# interpreter starts that only import loom.cli, made before every pass so
# that setup_s is a median over samples spread across the whole run
SETUP_SAMPLES_PER_PASS = 3
PASS_TIMEOUT_S = 170
# duration of passrun.probe() at the reference host speed: the typical
# value on a 2.1 GHz Intel Xeon under Python 3.11.  Reported times are
# wall times scaled by PROBE_REF_S / the probe time measured alongside.
PROBE_REF_S = 0.00075


def _cartan(name):
    """CLI flags of a Cartan type written as in the paper: A2, D4, E6."""
    label = name if name[0] in "EFG" else name[0]
    return ["--type", label, "--rank", name[1:]]


def _decompose(name, i, m, window):
    return ("decompose-%s-w%d-m%d-W%d" % (name, i, m, window),
            ["verify", "--suite", "decompose", *_cartan(name), "--i", str(i),
             "--m", str(m), "--window", str(window), "--json"])


def _gen(name, i, power, fmt):
    argv = ["gen", *_cartan(name), "--i", str(i), "--power", str(power)]
    if fmt != "json":
        argv += ["--format", fmt]
    return ("gen-%s-w%d-p%d.%s" % (name, i, power, fmt), argv)


def _verify(suite, name, i, *extra):
    return ("%s-%s-w%d" % (suite, name, i),
            ["verify", "--suite", suite, *_cartan(name), "--i", str(i), *extra, "--json"])


# Why each workload, and which layers it drives, is in perfbench/README.md.
WORKLOADS = {
    "decompose": [
        _decompose("A2", 1, 4, 4),
        _decompose("D4", 1, 2, 3),
        _decompose("B3", 1, 2, 2),
        _decompose("C2", 2, 2, 2),
    ],
    "closure": [
        _gen("E6", 1, 2, "json"),
        _gen("D4", 2, 2, "dot"),
        _gen("A2", 1, 6, "json"),
        _verify("energy", "E6", 1, "--seeds", "1"),
        _verify("energy", "D4", 2, "--seeds", "1"),
        _verify("normality", "E6", 1, "--power", "2"),
    ],
    "sl2": [
        ("sl2-%d-%d" % (t1, t2),
         ["verify", "--suite", "sl2", "--t1", str(t1), "--t2", str(t2), "--json"])
        for t1 in range(5) for t2 in range(5)
    ],
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def job_list(workload: str, seed: int) -> list[dict]:
    """The workload's jobs in the order the seed gives them."""
    jobs = [{"id": job_id, "argv": list(argv)} for job_id, argv in WORKLOADS[workload]]
    random.Random(seed).shuffle(jobs)
    return jobs


def _with_out(jobs, outdir):
    return [dict(job, argv=job["argv"] + ["--out", os.path.join(outdir, job["id"])])
            for job in jobs]


def spawn_pass(jobs, outdir, trace_path=None) -> dict:
    """Run one pass in a fresh interpreter; returns its samples.

    ``setup_wall_s`` spans the interpreter start to ``loom.cli``
    imported, both read on the system-wide monotonic clock.  ``setup_s``
    and ``pass_s`` are the wall times at the reference host speed.
    """
    env = {k: v for k, v in os.environ.items() if k != "LOOM_NODE_CAP"}
    spec = {"jobs": _with_out(jobs, outdir), "trace": trace_path}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", PASSRUN, SRC], input=json.dumps(spec),
            capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a pass took longer than %d s" % PASS_TIMEOUT_S) from None
    if proc.returncode != 0:
        raise BenchError("the pass process failed:\n" + proc.stderr[-2000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = out.pop("ready") - start
    out["setup_s"] = out["setup_wall_s"] * PROBE_REF_S / out["ready_probe_s"]
    out["pass_s"] = out["wall_s"] * PROBE_REF_S / (out["probe_s"] or out["ready_probe_s"])
    return out


def _subset_mismatch(want, have, where):
    """Keys of ``want`` missing from ``have`` or different; extras allowed."""
    if isinstance(want, dict) and isinstance(have, dict):
        problems = []
        for key, value in want.items():
            if key not in have:
                problems.append("%s.%s missing" % (where, key))
            else:
                problems += _subset_mismatch(value, have[key], "%s.%s" % (where, key))
        return problems
    return [] if want == have else ["%s: expected %r, got %r" % (where, want, have)]


def check_output(path, expected) -> list[str]:
    """Why the artifact or report at ``path`` differs from ``expected``."""
    if not os.path.exists(path):
        return ["no output written"]
    with open(path, "rb") as handle:
        data = handle.read()
    if "sha256" in expected:
        digest = hashlib.sha256(data).hexdigest()
        return [] if digest == expected["sha256"] else ["sha256 %s" % digest]
    report = json.loads(data)
    if report.get("pass") is not True:
        return ["report does not pass"]
    passing = {c["name"] for c in report.get("checks", []) if c.get("pass") is True}
    problems = ["check %s does not pass" % name
                for name in expected["passing_checks"] if name not in passing]
    for key in ("counts", "transition_table"):
        if key in expected:
            problems += _subset_mismatch(expected[key], report.get(key), key)
    return problems


def check_pass(sample, outdir, expected) -> list[str]:
    """One line per failed job of a pass; removes the outputs it read."""
    failures = []
    for job in sample["jobs"]:
        path = os.path.join(outdir, job["id"])
        if job["rc"] != 0:
            problems = ["exit code %r %s" % (job["rc"], job.get("error", ""))]
        else:
            problems = check_output(path, expected["jobs"][job["id"]])
        if problems:
            failures.append("%s: %s" % (job["id"], "; ".join(problems)))
        if os.path.exists(path):
            os.unlink(path)
    return failures


def separation_problems(workload, layers, untraced_wall_s) -> list[str]:
    """The layer predictions of perfbench/README.md that the trace breaks."""
    problems = []
    if workload in ("decompose", "closure"):
        for name in ("qfield.mul", "qfield.add", "qfield.div", "sl2.string_decompose",
                     "sl2.kashiwara", "sl2.act", "sl2.lattice", "sl2.coords"):
            if layers[name]["calls"]:
                problems.append("%s made %d calls on %s"
                                % (name, layers[name]["calls"], workload))
    if workload == "sl2":
        for name in ("paths.root_op", "cartan.weight"):
            if layers[name]["calls"]:
                problems.append("%s made %d calls on sl2" % (name, layers[name]["calls"]))
    if workload == "closure":
        share = layers["paths.root_op"]["self_s"] / untraced_wall_s
        if share >= 0.05:
            problems.append("paths.root_op.self_s is %.1f%% of pass_s on closure"
                            % (100 * share))
    return problems


def run_record(workload, seed) -> dict:
    """Machine, interpreter and code version of a run."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "loom"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "loom", name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loom_git_commit": commit,
        "loom_src_sha256": digest.hexdigest(),
        "job_lists": {w: [{"id": j, "argv": a} for j, a in jobs]
                      for w, jobs in WORKLOADS.items()},
    }


def measure(workload, seed, seconds) -> dict:
    """Untraced passes for ``seconds``, each after a few setup-only starts."""
    expected = _load_expected()
    outdir = _fresh_dir(os.path.join(WORK, "out"))
    jobs = job_list(workload, seed)
    spawn_pass([], outdir)  # compiles bytecode; users do not pay that per run
    passes, setups, failures = [], [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        setups += [spawn_pass([], outdir)["setup_s"] for _ in range(SETUP_SAMPLES_PER_PASS)]
        sample = spawn_pass(jobs, outdir)
        failures += check_pass(sample, outdir, expected)
        passes.append(sample)
        setups.append(sample["setup_s"])
    return {
        "attempted": len(jobs) * len(passes),
        "failures": failures,
        "problems": [],
        "metrics": {
            "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        },
        "samples": {"passes": passes, "setup_s": setups},
    }


def measure_traced(workload, seed) -> dict:
    """One untraced and one traced pass; per-layer metrics and checks."""
    expected = _load_expected()
    outdir = _fresh_dir(os.path.join(WORK, "out"))
    jobs = job_list(workload, seed)
    spawn_pass([], outdir)
    plain = spawn_pass(jobs, outdir)
    failures = check_pass(plain, outdir, expected)
    trace_path = os.path.join(WORK, "trace-%s.json" % workload)
    traced = spawn_pass(jobs, outdir, trace_path)
    failures += check_pass(traced, outdir, expected)
    with open(trace_path) as handle:
        dump = json.load(handle)
    layers = tracer.layer_totals(dump)
    problems = ["zero-call guard: %s recorded no call" % site
                for site in tracer.silent_sites(dump, expected["driven_sites"][workload])]
    problems += ["layer separation: " + p
                 for p in separation_problems(workload, layers, plain["wall_s"])]
    metrics = tracer.layer_metrics(dump)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return {
        "attempted": 2 * len(jobs),
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "samples": {"passes": [plain, traced], "trace_file": trace_path},
    }


def _load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def _fresh_dir(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_one(workload, seed, seconds, trace) -> dict:
    """Measure one workload; write its run record and print its summary."""
    result = measure_traced(workload, seed) if trace else measure(workload, seed, seconds)
    record = dict(run_record(workload, seed), trace=trace, seconds=seconds, **result)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    record_path = os.path.join(WORK, "records", "%s-seed%d-trace%d.json"
                               % (workload, seed, trace))
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    failed = len(result["failures"])
    print("%s seed=%d: %s failed_ratio=%.6g ratio (%d of %d jobs) record=%s" % (
        workload, seed,
        " ".join("%s=%.6g %s" % (name, value, unit)
                 for name, (value, unit) in result["metrics"].items()),
        failed / result["attempted"], failed, result["attempted"],
        os.path.relpath(record_path, ROOT)))
    for line in result["failures"] + result["problems"]:
        print("FAILED " + line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "loom", "cli.py")):
        sys.stderr.write("error: no loom sources under %s\n" % SRC)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = problems = 0
    metrics = {}
    try:
        for name in names:
            result = run_one(name, args.seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += len(result["failures"])
            problems += len(result["problems"])
            prefix = name + "." if args.workload == "all" else ""
            metrics.update({prefix + m: {"value": v, "unit": u}
                            for m, (v, u) in result["metrics"].items()})
    except BenchError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    correct = failed == 0 and problems == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
