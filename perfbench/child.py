"""One timed benchmark process: set up, run one workload once, report.

    python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, checkout root, scratch directory, the
spawn time on the monotonic clock, and whether to trace or only set up.
The workload runs one operation after another. The host-speed probes of
calibrate.py run after set-up and then between timed segments of at
least PROBE_EVERY_S, outside the timed region. The last line of stdout
is a JSON object with the timings, the probes, the peak RSS and one
record per operation; the harness applies the oracles.
"""

import functools
import json
import re
import resource
import sys
import time
from pathlib import Path

import calibrate
import inputs

PROBE_EVERY_S = 0.25  # shortest timed segment between two probes


def _mark_after_calls(segments: "Segments") -> None:
    """Mark after every call of a public ccrlab function, so that long
    operations such as the one cli call of report_all are cut too. The
    functions are rebound outside-in, the way the tracer wraps them."""
    import tracing

    def marked(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                segments.mark()

        return call

    tracing.rebind_public_functions(marked)


class Segments:
    """The timed region, cut into segments at marks after each operation
    and after each call of a public ccrlab function.

    After each segment the host-speed probes run while the clock is
    stopped; a mark closer than PROBE_EVERY_S to the last probe only
    lets the segment run on, so cheap calls share a segment.
    """

    def __init__(self, probe_every_s: float, first_probe: dict):
        self.every = probe_every_s
        self.timed: list[float] = []
        self.probes = [first_probe]
        self.start = time.perf_counter()

    def mark(self, force: bool = False) -> None:
        elapsed = time.perf_counter() - self.start
        if force or elapsed >= self.every:
            self.timed.append(elapsed)
            self.probes.append(calibrate.probe())
            self.start = time.perf_counter()


def _steps_report_all(ccrlab, data, scratch):
    out = str(Path(scratch) / f"report_{data['cli_seed']}.json")

    def report():
        return ccrlab.cli.main(["all", "--seed", str(data["cli_seed"]), "--format", "json", "--out", out])

    return [("report.exit_code", report), ("report.path", lambda: out)]


def _steps_dense_reach(ccrlab, data, scratch):
    from ccrlab import interval, schrodinger, weyl

    t, s, xi = data["t"], data["s"], data["fock_state"]
    half = data["interval_length"] / 2.0
    steps = []
    for d in inputs.DENSE_DIMS:
        steps.append((f"weyl_residual.d{d}", lambda d=d: weyl.weyl_residual(t, s, d, xi=xi)))
        steps.append((f"shift_identity_residual.d{d}",
                      lambda d=d: weyl.shift_identity_residual(t, inputs.SHIFT_POWER, d, xi=xi)))
    for m in inputs.DENSE_GRID_M:
        steps.append((f"grid_oscillator_spectrum.m{m}", lambda m=m: schrodinger.grid_oscillator_spectrum(
            data["grid_l"], m, count=inputs.SPECTRUM_COUNT)))
        steps.append((f"interval_number_spectrum.m{m}", lambda m=m: interval.interval_number_spectrum(
            interval.IntervalRepSpec(-half, half, m), inputs.SPECTRUM_COUNT)))
    return steps


def _steps_exact_proofs(ccrlab, data, scratch):
    from ccrlab import symbolic

    steps = []
    for n in range(1, inputs.Q_POWER_HALF_MAX + 1):
        steps.append((f"normal_order.q^{2 * n}", lambda n=n: symbolic.normal_order(f"q^{2 * n}")))
    for n in range(1, inputs.COMMUTATOR_N_MAX + 1):
        steps.append((f"verify_identity.n{n}",
                      lambda n=n: symbolic.verify_identity(f"[p,q^{n}]", f"-{n}*i*q^{n - 1}")))
    for n in range(1, inputs.CONJUGATION_N_MAX + 1):
        steps.append((f"conjugation_series.n{n}",
                      lambda n=n: symbolic.conjugation_series(n, inputs.CONJUGATION_ORDER)))
    for n in range(inputs.FOCK_NORM_N_MAX + 1):
        steps.append((f"fock_norm_exact.n{n}", lambda n=n: symbolic.fock_norm_exact(n)))
    for k, word in enumerate(data["words"]):
        steps.append((f"word.{k}", lambda word=word: (symbolic.normal_order(word).to_matrix(inputs.WORD_DIM),
                                                      symbolic.expr_to_matrix(word, inputs.WORD_DIM))))
    return steps


_STEPS = {
    "report_all": _steps_report_all,
    "dense_reach": _steps_dense_reach,
    "exact_proofs": _steps_exact_proofs,
}


def _report_records(results) -> tuple[list, str]:
    """Per-check status records and the report text with its wall time
    masked, for the determinism gate."""
    values = dict(results)
    text = Path(values["report.path"]).read_text(encoding="utf-8")
    report = json.loads(text)
    records = [{"op": "report.exit_code", "values": [values["report.exit_code"]]},
               {"op": "report.check_count", "values": [len(report["checks"])]}]
    records += [{"op": c["name"], "values": [c["status"]]} for c in report["checks"]]
    masked = re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": null', text)
    return records, masked


def _measure(op: str, result) -> list:
    """Plain values an oracle can compare, computed outside the timed region."""
    import numpy as np

    kind = op.split(".")[0]
    if kind == "weyl_residual":
        return [result.residual]
    if kind == "shift_identity_residual":
        return [result]
    if kind in ("grid_oscillator_spectrum", "interval_number_spectrum"):
        return [float(v) for v in result]
    if kind == "normal_order":
        return [str(result.coeff(0, 0).as_rational())]
    if kind == "verify_identity":
        return [bool(result.equal)]
    if kind == "conjugation_series":
        return [bool(order.equal) for order in result]
    if kind == "fock_norm_exact":
        return [str(result)]
    if kind == "word":
        # both sides agree exactly on modes the word cannot push past the cut
        block = inputs.WORD_DIM - inputs.WORD_LENGTH
        normal, direct = (m[:block, :block] for m in result)
        scale = max(1.0, float(np.abs(direct).max()))
        return [float(np.abs(normal - direct).max()) / scale]
    raise ValueError(f"no measurement for {op!r}")


def _records(workload: str, results) -> tuple[list, str | None]:
    if workload == "report_all":
        return _report_records(results)
    records = []
    for op, result in results:
        try:
            records.append({"op": op, "values": _measure(op, result)})
        except Exception as exc:  # noqa: BLE001 - an unmeasurable result is a failed operation
            records.append({"op": op, "error": f"{type(exc).__name__}: {exc}"})
    if workload == "dense_reach":
        # the interval spectrum has no closed form: refining the grid must not move it
        by_op = {r["op"]: r.get("values") for r in records}
        coarse, fine = (by_op.get(f"interval_number_spectrum.m{m}") for m in inputs.DENSE_GRID_M)
        if coarse and fine and len(coarse) == len(fine):
            gap = max(abs(a - b) for a, b in zip(coarse, fine))
            records.append({"op": "interval_number_spectrum.refinement", "values": [gap]})
    return records, None


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import numpy as np

    t1 = time.perf_counter()
    import ccrlab
    import ccrlab.cli

    t2 = time.perf_counter()
    root_src = Path(spec["root"]) / "src"
    if Path(ccrlab.__file__).resolve().parent.parent != root_src.resolve():
        raise SystemExit(f"ccrlab imported from {ccrlab.__file__}, not from {root_src}")
    data = inputs.make_inputs(spec["workload"], spec["seed"])
    if "xi" in data:
        data["fock_state"] = ccrlab.FockState(np.array([complex(re, im) for re, im in data["xi"]]))
    ready = time.monotonic()
    payload = {
        "setup_s": ready - spec["spawned"],
        "import_numpy_s": t1 - t0,
        "import_ccrlab_s": t2 - t1,
        # host speed right after set-up
        "probes": [calibrate.probe()],
    }
    if spec["setup_only"]:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        payload["facts"] = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
        print(json.dumps(payload))
        return 0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    # a traced run is timed whole: probes inside it would land in spans
    segments = Segments(float("inf") if tracer else PROBE_EVERY_S, payload["probes"][0])
    if tracer is None:
        _mark_after_calls(segments)
    steps = _STEPS[spec["workload"]](ccrlab, data, spec["scratch"])
    results, error = [], None
    segments.start = time.perf_counter()
    for op, step in steps:
        try:
            results.append((op, step()))
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            results, error = [], f"{type(exc).__name__}: {exc}"
            break
        segments.mark()
    segments.mark(force=True)
    payload["segment_s"] = segments.timed
    payload["probes"] = segments.probes
    payload["wall_s"] = sum(segments.timed)
    payload["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        payload["trace"] = tracer.summary()
    payload["records"], payload["report_text"] = [], None
    if error is None:
        try:
            payload["records"], payload["report_text"] = _records(spec["workload"], results)
        except Exception as exc:  # noqa: BLE001 - unreadable output fails every operation
            error = f"{type(exc).__name__}: {exc}"
    payload["error"] = error
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
