"""The gesbn benchmark: one workload per run, metrics on the last line.

    python3 perfbench/run.py --workload sweep_small_m --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 runs the same ops
with spans around each call into the library and reports per-layer
metrics. On the workloads marked `calibrated`, times are given in seconds
of a reference machine: a fixed calibration kernel is timed between ops,
and each op's wall time is scaled by the kernel's reference time over its
time right after the op (see common.Calibrator); the run record keeps the
wall figures too. See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from common import (
    CAL_REF_S, OUT, SRC, THREAD_VARS, Calibrator, Failures, Tracer, machine_record,
    percentile, probe_import_s,
)

os.environ.update(THREAD_VARS)  # before numpy is imported
sys.path.insert(0, str(SRC))

SETUP_REPEATS = 3
WORKLOADS = ("sweep_large_m", "sweep_small_m", "learn_cold")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "success_rate": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "datagen.sample_ms": "ms",
    "datagen.records_per_s": "1/s",
    "datagen.params_ms": "ms",
    "oracle.margin_ms": "ms",
    "harness.classify_ms": "ms",
    "harness.self_ms": "ms",
    "scoring.local_us": "us",
    "scoring.load_ms": "ms",
    "search.search_ms": "ms",
    "search.steps": "count",
    "search.neighbor_sets": "count",
    "graphs.completions": "count",
    "graphs.class_enumerations": "count",
    "cli.import_ms": "ms",
    "cli.exit_ms": "ms",
    "cli.self_ms": "ms",
}

# span names of each per-layer time, mean ms per op
SPAN_MS = {
    "datagen.sample_ms": "datagen.sample",
    "datagen.params_ms": "datagen.params",
    "oracle.margin_ms": "oracle.margin",
    "harness.classify_ms": "harness.classify",
    "scoring.load_ms": "scoring.load",
    "search.search_ms": "search.search",
    "cli.import_ms": "cli.import",
    "cli.exit_ms": "cli.exit",
}
SELF_MS = {"harness.self_ms": "harness.replicate", "cli.self_ms": "cli.process"}
ROOT_SPANS = tuple(SELF_MS.values())


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the one whose speed
    the calibration kernel measures: the vCPUs of a shared VM can differ
    2x in speed at the same moment."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_library():
    """Import gesbn from this checkout's src, or exit without a result."""
    try:
        import gesbn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import gesbn from {SRC}: {exc}")
    if not os.path.abspath(gesbn.__file__).startswith(str(SRC) + os.sep):
        sys.exit(f"perfbench: gesbn came from {gesbn.__file__}, not {SRC}")


def make_workload(name):
    # imported here: both import gesbn, which import_library must find first
    import learn_cold
    import sweeps

    return {
        "sweep_large_m": sweeps.sweep_large_m,
        "sweep_small_m": sweeps.sweep_small_m,
        "learn_cold": learn_cold.LearnCold,
    }[name]()


def set_up(wl, seed, repeats=SETUP_REPEATS, cal=None):
    """Set up `repeats` times; each sample is a fresh import plus set-up.

    Returns (imports, samples, scales): wall seconds, and per repeat the
    factor to reference seconds from the kernels run just before and after
    it (1.0 without a calibrator)."""
    imports, samples, scales = [], [], []
    before = cal.burst() if cal else []
    for _ in range(repeats):
        imports.append(probe_import_s())
        start = time.perf_counter()
        wl.setup(seed)
        samples.append(imports[-1] + time.perf_counter() - start)
        after = cal.burst() if cal else []
        scales.append(CAL_REF_S / statistics.median(before + after) if cal else 1.0)
        before = after
    return imports, samples, scales


def run_ops(wl, seconds, tracer=None, cal=None):
    """Closed loop, one op at a time, ending on the first pass boundary
    after `seconds`, so every run does whole passes of the op cycle.
    Calibration kernels run between ops and are left out of `elapsed`.
    Returns (ops, rows, latencies, elapsed, failures)."""
    ops, rows, lat = [], [], []
    failures = Failures()
    paused = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        op = wl.op_at(k)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                row = wl.run(op)
            else:
                tracer.op = k
                row = wl.run_traced(op, tracer)
        except Exception as exc:  # a failed op is counted, never dropped
            row = None
            failures.add(k, f"{type(exc).__name__}: {exc}")
        lat.append(time.perf_counter() - t0)
        ops.append(op)
        rows.append(row)
        k += 1
        if cal is not None:
            paused += cal.between_ops(k)
        elapsed = time.perf_counter() - start - paused
        if k % wl.pass_len == 0 and elapsed >= seconds:
            return ops, rows, lat, elapsed, failures


def check_rows(wl, ops, rows, failures):
    for k, (op, row) in enumerate(zip(ops, rows)):
        if row is None:
            continue
        try:
            reasons = wl.check(op, row)
        except Exception as exc:  # a check that crashes fails its op
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        for reason in reasons:
            failures.add(k, reason)


def to_reference(lat, elapsed, scales):
    """Op latencies and elapsed time in seconds of the reference machine."""
    ref = [t * f for t, f in zip(lat, scales)]
    return ref, elapsed * sum(ref) / sum(lat)


def end_to_end(wl, ops, lat, elapsed, failures, setups):
    """The end-to-end metrics, and the sample counts behind the percentiles.

    Times are given in seconds of the reference machine (to_reference).
    op_ms_p90 goes to the run record only: the two workloads with fewer
    than 100 ops a run have under ten samples beyond it.
    """
    p50, n, beyond50 = percentile(lat, 50)
    p90, _, beyond90 = percentile(lat, 90)
    values = {
        "ops_per_s": len(ops) / elapsed,
        "op_ms_p50": p50 * 1000,
        "success_rate": 1 - len(failures) / len(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    samples = {
        "op_ms_p50": {"samples": n, "beyond": beyond50},
        "op_ms_p90": {"value": p90 * 1000, "samples": n, "beyond": beyond90},
        "setup_s": {"samples": len(setups)},
    }
    return values, samples


def wall_figures(ops, lat, elapsed, setups) -> dict:
    """The unscaled wall-clock counterparts of the end-to-end times."""
    return {
        "ops_per_s": len(ops) / elapsed,
        "op_ms_p50": percentile(lat, 50)[0] * 1000,
        "op_ms_p90": percentile(lat, 90)[0] * 1000,
        "setup_s": statistics.median(setups),
    }


def per_layer(wl, tracer, n_ops, imports, scales=None):
    """The per-layer metrics of a traced run, and its span times.

    Span times are scaled by their op's factor in `scales`; `imports`
    come already scaled."""
    times = tracer.self_times(scales)
    total = lambda name: times.get(name, (0.0, 0.0, 0))[0]
    own = lambda name: times.get(name, (0.0, 0.0, 0))[1]
    counts = wl.counters
    values = {key: total(name) * 1000 / n_ops for key, name in SPAN_MS.items()}
    values.update({key: own(name) * 1000 / n_ops for key, name in SELF_MS.items()})
    if "cli.import" not in times:
        # in-process workloads pay the import once, in set-up
        values["cli.import_ms"] = statistics.median(imports) * 1000
    sample_s = total("datagen.sample")
    values["datagen.records_per_s"] = counts.sampled / sample_s if sample_s else 0.0
    probe_s = total("scoring.probe")
    values["scoring.local_us"] = probe_s * 1e6 / counts.locals if counts.locals else 0.0
    # over the first pass only, so that it is exact for a seed
    first = [counts.steps[k] for k in range(wl.pass_len) if k in counts.steps]
    values["search.steps"] = sum(first) / len(first) if first else 0.0
    values.update({key: n / n_ops for key, n in counts.misses.items()})
    return values, times


def layer_report(times, n_ops) -> dict:
    """Per span name: total and self ms per op; coverage of the op spans."""
    rows = {
        name: {"total_ms_per_op": t * 1000 / n_ops, "self_ms_per_op": s * 1000 / n_ops,
               "calls": c}
        for name, (t, s, c) in sorted(times.items())
    }
    op_total = sum(times[r][0] for r in ROOT_SPANS if r in times)
    op_self = sum(times[r][1] for r in ROOT_SPANS if r in times)
    coverage = 1 - op_self / op_total if op_total else 0.0
    return {"spans": rows, "child_coverage": coverage}


def reproduce(wl, ops, rows, failures, cal=None) -> float:
    """Rerun every traced op untraced; outputs must match. Returns the
    seconds the untraced reruns took, for the tracing overhead; with a
    calibrator, in reference seconds, like the traced ops."""
    lat = []
    for k, (op, row) in enumerate(zip(ops, rows)):
        if row is None:
            continue
        t0 = time.perf_counter()
        try:
            ref = wl.run(op)
        except Exception as exc:  # counted like any failed op
            failures.add(k, f"untraced rerun: {type(exc).__name__}: {exc}")
            continue
        lat.append(time.perf_counter() - t0)
        if cal is not None:
            cal.between_ops(len(lat))
        if ref != row:
            failures.add(k, f"traced output {row!r} != untraced {ref!r}")
    if cal is None:
        return sum(lat)
    cal.burst(len(lat))
    return sum(t * f for t, f in zip(lat, cal.op_scales(len(lat))))


def measure(name, seed, seconds, trace):
    """One run: set-up, timed ops, checks. Returns (result, record)."""
    wl = make_workload(name)
    cal = Calibrator()
    imports, setups, setup_scales = set_up(wl, seed, cal=cal)
    tracer = Tracer() if trace else None
    ops, rows, lat, elapsed, failures = run_ops(wl, seconds, tracer, cal)
    if wl.calibrated:
        scales = cal.op_scales(len(ops))
    else:
        scales, setup_scales = [1.0] * len(ops), [1.0] * len(setups)
    check_rows(wl, ops, rows, failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(), "ops": len(ops), "elapsed_s": elapsed,
        "passes": len(ops) // wl.pass_len, "setup_samples_s": setups,
        "import_samples_s": imports, "latencies_ms": [t * 1000 for t in lat],
        "calibration": {"ref_s": CAL_REF_S, "applied": wl.calibrated,
                        "samples_s": cal.samples, "at": cal.at,
                        "op_scales": scales, "setup_scales": setup_scales},
        "quality": wl.quality(rows),
    }
    if trace:
        ref_imports = [t * f for t, f in zip(imports, setup_scales)]
        metrics, times = per_layer(wl, tracer, len(ops), ref_imports, scales)
        units = PER_LAYER
        traced_s = sum(times[r][0] for r in ROOT_SPANS if r in times)
        untraced_s = reproduce(
            wl, ops, rows, failures, Calibrator() if wl.calibrated else None)
        record["layers"] = layer_report(times, len(ops))
        record["tracing_overhead"] = traced_s / untraced_s - 1 if untraced_s else None
        record["spans"] = tracer.to_records()
    else:
        ref_lat, ref_elapsed = to_reference(lat, elapsed, scales)
        ref_setups = [t * f for t, f in zip(setups, setup_scales)]
        metrics, record["samples"] = end_to_end(
            wl, ops, ref_lat, ref_elapsed, failures, ref_setups)
        record["wall"] = wall_figures(ops, lat, elapsed, setups)
        units = END_TO_END
    record["metrics"] = metrics
    record["error_rate"] = len(failures) / len(ops)
    record["failures"] = {str(k): v for k, v in sorted(failures.reasons.items())}
    result = {
        "correct": len(failures) == 0,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, record


def print_report(record):
    """Human-readable run record; the JSON result follows on the last line."""
    m = record["machine"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"ops={record['ops']} passes={record['passes']} "
          f"elapsed={record['elapsed_s']:.3f}s")
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} commit={m['git_commit']} "
          f"src={m['source_digest']}")
    samples = record.get("samples", {})
    wall = record.get("wall", {})
    for key, value in record["metrics"].items():
        unit = (PER_LAYER if record["trace"] else END_TO_END)[key]
        extra = f"  {samples[key]}" if key in samples else ""
        extra += f"  (wall {wall[key]:.6g})" if key in wall else ""
        print(f"{key:28s} {value:14.6g} {unit}{extra}")
    if samples:
        p90 = samples["op_ms_p90"]
        print(f"{'op_ms_p90':28s} {p90['value']:14.6g} ms  (wall {wall['op_ms_p90']:.6g}; "
              f"record only: {p90['beyond']} of {p90['samples']} samples beyond)")
    q = record["quality"]
    if q:
        n = q["replicates"]
        print(f"{'incl_opt_frac':28s} {q['incl_opt'] / n:14.6g} frac  "
              f"({q['incl_opt']}/{n} replicates)")
        print(f"{'param_opt_frac':28s} {q['param_opt'] / n:14.6g} frac  "
              f"({q['param_opt']}/{n} replicates)")
    print(f"{'error_rate':28s} {record['error_rate']:14.6g} frac  "
          f"({len(record['failures'])}/{record['ops']} ops)")
    if record["trace"]:
        layers = record["layers"]
        print(f"# child layers cover {layers['child_coverage']:.1%} of op wall time; "
              f"tracing overhead {record['tracing_overhead']:+.1%}")
        for name, row in layers["spans"].items():
            print(f"#   {name:22s} total {row['total_ms_per_op']:10.3f} ms/op  "
                  f"self {row['self_ms_per_op']:10.3f} ms/op  calls {row['calls']}")
    for k, reasons in record["failures"].items():
        for reason in reasons:
            print(f"# FAILED op {k}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    import_library()
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
