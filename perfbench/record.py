"""Record the expected results that perfbench/run.py checks every pass against.

Usage: ``python3 perfbench/record.py`` from the root of a loom checkout.
Runs one traced pass of every workload and writes ``perfbench/expected.json``:

* for each ``gen`` job, the sha256 of its artifact, which must stay
  byte-identical;
* for each ``verify`` job, its verdict-bearing fields: the names of the
  passing checks, and ``counts`` (decompose) or ``transition_table``
  (sl2) when the report has them;
* for each workload, the tracer binding sites the pass drove, which the
  zero-call guard requires to be driven again.

Run it only on a commit whose results are trusted; the benchmark then
holds every later commit to them.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def expected_of(job_id, path) -> dict:
    with open(path, "rb") as handle:
        data = handle.read()
    if job_id.startswith("gen-"):
        return {"sha256": hashlib.sha256(data).hexdigest()}
    report = json.loads(data)
    if report["pass"] is not True:
        raise SystemExit("%s does not pass; refusing to record it" % job_id)
    out = {"passing_checks": sorted(c["name"] for c in report["checks"] if c["pass"])}
    for key in ("counts", "transition_table"):
        if key in report:
            out[key] = report[key]
    return out


def main():
    expected = {"jobs": {}, "driven_sites": {}}
    outdir = run._fresh_dir(os.path.join(run.WORK, "record"))
    trace_path = os.path.join(run.WORK, "record-trace.json")
    for workload in run.WORKLOADS:
        jobs = run.job_list(workload, 0)
        sample = run.spawn_pass(jobs, outdir, trace_path)
        for job in sample["jobs"]:
            if job["rc"] != 0:
                raise SystemExit("%s exited with %r" % (job["id"], job["rc"]))
            expected["jobs"][job["id"]] = expected_of(
                job["id"], os.path.join(outdir, job["id"]))
        with open(trace_path) as handle:
            sites = json.load(handle)["sites"]
        expected["driven_sites"][workload] = sorted(s for s, calls in sites.items() if calls)
        print("%s: %d jobs, %d driven sites" % (
            workload, len(jobs), len(expected["driven_sites"][workload])))
    with open(run.EXPECTED, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
