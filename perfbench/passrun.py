"""One pass over a benchmark job list, in a fresh interpreter.

Usage: ``python3 -I perfbench/passrun.py SRC_DIR < spec.json``, where the
spec is ``{"jobs": [{"id": ..., "argv": [...]}, ...], "trace": PATH|null}``.
Prints one JSON line: the monotonic time at which ``loom.cli`` was
imported and ready, the pass wall time, the host-speed probe samples,
the peak resident memory and each job's exit code.  With a trace path
the jobs run under the tracer, without the probe, and the aggregated
spans are written to that path when the pass ends.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import loom.cli  # noqa: E402

READY = time.monotonic()

# imported after READY: these belong to the benchmark, not to loom's setup
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

PROBE_PERIOD_S = 0.05
READY_PROBES = 10
_TABLE = {(i, j): Fraction(i, j + 1) for i in range(8) for j in range(8)}


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction, tuple and dict work.

    A shared host can change speed by up to 2x within minutes as other
    tenants come and go.  The probe is benchmark code that no loom
    change can touch, so its duration measures the host's speed at that
    moment.  The garbage collector is held off so that a
    collection owed to loom's allocations never lands in a probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(60):
        w = tuple(Fraction(i + k, 3) for k in range(4))
        acc = acc + w[0] * _TABLE[(i % 8, i % 5)] - w[3]
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


@contextlib.contextmanager
def probing(samples):
    """Run the probe every PROBE_PERIOD_S seconds of the block."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(argv) -> dict:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return {"rc": loom.cli.main(argv)}
    except SystemExit as exc:
        return {"rc": exc.code}
    except Exception as exc:  # a crashing job is a failed job, not a crashed pass
        return {"rc": None, "error": "%s: %s" % (type(exc).__name__, exc)}


def main():
    ready_probes = [probe() for _ in range(READY_PROBES)]
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    samples: list = []
    with contextlib.nullcontext() if tracer else probing(samples):
        start = time.perf_counter()
        for job in spec["jobs"]:
            results.append(dict(run_job(job["argv"]), id=job["id"]))
        wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        with open(spec["trace"], "w") as handle:
            json.dump(tracer.dump(), handle)
    print(json.dumps({
        "ready": READY,
        "ready_probe_s": statistics.median(ready_probes),
        # the probes ran inside the pass; their time is not loom's
        "wall_s": wall_s - sum(samples),
        "probe_s": sum(samples) / len(samples) if samples else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }))


if __name__ == "__main__":
    main()
