"""ccrlab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository. Each timed run is a fresh child
process (perfbench/child.py), started one at a time with the BLAS thread
count pinned in its environment. A fresh process, because users pay the
interpreter start, the imports, the first LAPACK call and cold symbolic
caches on every CLI call. Children import ccrlab from the checkout's
src/ and receive only the inputs generated from the seed.

--trace 0 runs children until --seconds would be exceeded (at least
two) and reports the end-to-end metrics named in BENCHMARK.json: the
medians of wall_s, setup_s and peak_rss_mb. wall_s and setup_s are in
reference seconds. The shared host this runs on changes speed by up to
2x from one second to the next, so each child probes the host's speed
(calibrate.py) between timed segments, outside them, and each segment
counts as its seconds divided by the slowdown the probes around it saw.
The seconds as measured are printed beside them as wall_s.raw and
setup_s.raw. --trace 1 runs two traced children around one untraced
one and reports the per-layer metrics; the two traced children must
agree exactly on every call count and d^3 sum.

Every operation is checked against an independent oracle (oracles.py)
outside the timed region. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import inputs
import oracles
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PROCESSES = 2  # the determinism gate compares two reports of one seed
SETUP_SAMPLES = 7  # set-up-only processes top the set-up samples up to this
RUN_LIMIT_S = 170.0  # every run ends inside 180 s, even on a slow host
# One BLAS thread: on a shared two-core host, dense_reach processes with
# two BLAS threads varied more than twice as much in wall time (a busy
# neighbour on either core stalls both threads). It is also the plain
# single-threaded baseline.
BLAS_THREADS = 1
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# printed beside the metrics for reference, never reported as metrics:
# the seconds as the host clock gave them, before the host-speed scaling
RAW_TIMES = [{"name": "wall_s.raw", "unit": "s"}, {"name": "setup_s.raw", "unit": "s"}]


class Child:
    """Starts benchmark child processes one at a time."""

    def __init__(self, workload: str, seed: int, scratch: str, deadline: float):
        self.base = {"workload": workload, "seed": seed, "root": str(ROOT), "scratch": scratch}
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.deadline = deadline
        self.errors: list[str] = []

    def run(self, *, trace: bool = False, setup_only: bool = False) -> dict | None:
        """The child's payload, or None if it crashed or ran out of time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.errors.append("run time limit reached before a process could start")
            return None
        spec = dict(self.base, trace=trace, setup_only=setup_only, spawned=time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append("process killed at the run time limit")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        payload = json.loads(lines[-1])
        if payload.get("error"):
            self.errors.append(f"workload raised {payload['error']}")
        return payload


def self_test(payload: dict, table: dict, default) -> bool:
    """A deliberately wrong oracle value must count as one more failure."""
    _, failed = oracles.score(payload["records"], table, default)
    passing = [op for op in sorted(table) if op not in failed]
    if not passing:
        return False
    broken = dict(table, **{passing[0]: oracles.wrong(table[passing[0]])})
    _, failed_broken = oracles.score(payload["records"], broken, default)
    return len(failed_broken) == len(failed) + 1


def trace_counts(payload: dict) -> dict:
    trace = payload["trace"]
    return {"calls": {name: row[0] for name, row in trace["spans"].items()},
            "counters": trace["counters"]}


def layer_value(name: str, payload: dict) -> float:
    """One per-layer metric from one traced child's span summary."""
    base, _, field = name.rpartition(".")
    spans, counters = payload["trace"]["spans"], payload["trace"]["counters"]
    if field == "dim3_sum":
        return counters.get(name, 0)
    column = {"calls": 0, "self_s": 1, "s": 2}[field]
    if base in LAYERS:
        return sum(row[column] for span, row in spans.items() if span.startswith(base + "."))
    return spans.get(base, [0, 0.0, 0.0])[column]


def central(values: list):
    """The median; a count that repeats exactly stays a whole number."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def describe(name: str, values: list, unit: str) -> str:
    """Median, the highest percentile with ten samples beyond it, n and
    the samples themselves."""
    def show(v):
        return str(v) if isinstance(v, int) else f"{v:.4g}"

    n, ordered = len(values), sorted(values)
    line = f"{name}: median {show(central(values))} {unit}, n={n}"
    if n >= 11:
        line += f", p{100 * (n - 10) / n:.0f} {show(ordered[n - 11])} {unit}"
    return line + ", samples in run order " + " ".join(show(v) for v in values)


def collect(args, child: Child) -> tuple[list, list]:
    """(workload payloads, set-up samples); a crashed process is None."""
    if args.trace:
        # the untraced process runs between the traced ones, so slow drift
        # of the host cancels out of the tracing overhead
        return [child.run(trace=True), child.run(), child.run(trace=True)], []
    payloads: list[dict | None] = []
    begin = time.monotonic()
    spans: list[float] = []
    while len(payloads) < MIN_PROCESSES or (
            time.monotonic() - begin + statistics.median(spans) <= args.seconds):
        started = time.monotonic()
        payloads.append(child.run())
        spans.append(time.monotonic() - started)
        if payloads[-1] is None and child.deadline <= time.monotonic():
            break
    setups = [p for p in payloads if p is not None]
    while len(setups) < SETUP_SAMPLES and child.deadline - time.monotonic() > 10:
        extra = child.run(setup_only=True)
        if extra is None:
            break
        setups.append(extra)
    return payloads, setups


def judge(workload: str, payloads: list) -> tuple[int, list, bool]:
    """(operations attempted, failures, harness self-test passed)."""
    table, default = oracles.expectations(workload)
    attempted, failures = 0, []
    for i, payload in enumerate(payloads):
        if payload is None:
            attempted += len(table)
            failures += [f"process {i}: {op}: no result" for op in sorted(table)]
            continue
        n, bad_ops = oracles.score(payload["records"], table, default)
        attempted += n
        failures += [f"process {i}: {op}" for op in bad_ops]
    done = [p for p in payloads if p is not None]
    gates = []
    if workload == "report_all":
        gates += [("report.deterministic", p["report_text"] == done[0]["report_text"])
                  for p in done[1:]]
    traced = [p for p in done if "trace" in p]
    if traced:
        gates.append(("trace.counts_repeat",
                      len(traced) == 2 and trace_counts(traced[0]) == trace_counts(traced[1])))
    attempted += len(gates)
    failures += [name for name, ok in gates if not ok]
    harness_ok = len(done) >= MIN_PROCESSES and self_test(done[0], table, default)
    return attempted, failures, harness_ok


def samples(workload: str, wanted: list, payloads: list, setups: list) -> dict[str, list]:
    """Per-process samples of every wanted metric that could be measured."""
    done = [p for p in payloads if p is not None]
    traced = [p for p in done if "trace" in p]
    untraced = [p["wall_s"] for p in done if "trace" not in p]
    scaled = {id(p): calibrate.at_reference(p["segment_s"], p["probes"], workload) for p in done}
    at_reference = [scaled[id(p)] for p in done if "trace" not in p]
    sources = {
        "wall_s": lambda: at_reference,
        "wall_s.raw": lambda: untraced,
        "setup_s": lambda: [calibrate.at_reference([p["setup_s"]], p["probes"][:1], "setup")
                            for p in setups],
        "setup_s.raw": lambda: [p["setup_s"] for p in setups],
        "peak_rss_mb": lambda: [p["peak_rss_mb"] for p in done if "trace" not in p],
        "import.numpy_s": lambda: [p["import_numpy_s"] for p in done],
        "import.ccrlab_s": lambda: [p["import_ccrlab_s"] for p in done],
        "trace.overhead_s": lambda: (
            [statistics.median(scaled[id(p)] for p in traced) - statistics.median(at_reference)]
            if traced and untraced else []),
    }
    out = {}
    for metric in wanted:
        name = metric["name"]
        values = sources[name]() if name in sources else [layer_value(name, p) for p in traced]
        if values:
            out[name] = values
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ccrlab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ccrlab source under {ROOT / 'src'}\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]
           if not METRIC_NAME.match(m["name"])]
    if bad:
        sys.stderr.write(f"perfbench: invalid metric names {bad}\n")
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    scratch_root = HERE / ".tmp"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        child = Child(args.workload, args.seed, scratch, time.monotonic() + RUN_LIMIT_S)
        warmup = child.run(setup_only=True)  # fills the page and bytecode caches; discarded
        payloads, setups = collect(args, child)

    attempted, failures, harness_ok = judge(args.workload, payloads)
    values = samples(args.workload, wanted + RAW_TIMES, payloads, setups)
    facts = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
             "blas_threads": BLAS_THREADS, **((warmup or {}).get("facts", {}))}
    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(payloads)} processes, "
          f"{attempted} operations attempted, {len(failures)} failed")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in values:
            child.errors.append(f"metric {name} not measured")
            continue
        print(describe(name, values[name], unit))
        metrics[name] = {"value": central(values[name]), "unit": unit}
    for metric in RAW_TIMES:
        if metric["name"] in values:
            print(describe(metric["name"], values[metric["name"]], metric["unit"]))
    if not harness_ok:
        child.errors.append("harness self-test failed or too few processes completed")
    for message in child.errors + failures:
        sys.stderr.write(f"perfbench: {message}\n")
    correct = not failures and harness_ok and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
