#!/usr/bin/env python3
"""h5geo benchmark: seeded workloads through the library and CLI, every output checked.

Run from the repository root (no install needed; ``src/`` is put on the path):

    python3 perfbench/run.py --workload quadrature_dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs half the time untraced, then the same inputs traced, and reports the
per-layer metrics.  The human-readable report and the full record (environment,
input description, every metric with its unit) come first; the last line of
stdout is the summary object ``{"correct", "attempted", "failed", "metrics"}``.
All load is a closed loop from this one process: the next op starts when the
previous one returns.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from math import sqrt
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "radial_err": "abs",
    "max_err": "abs",
    "max_drift": "abs",
    "failed_frac": "ratio",
}
# the subset gated by BENCHMARK.json: steady from seed to seed and never 0
GATED = ("setup_s", "op_ms.p50", "op_ms.p90", "ops_per_s", "peak_rss_mb")

LAYERS = ("classify", "elliptic", "core", "quadrature", "scipy", "dynamics",
          "reduction", "heisenberg", "trace", "cli")
KERNEL_NAMES = ("carlson_rf", "am_sncndn", "ellint_e_core", "hyper_rhs", "full_rhs")

# Host CPU speed on a small shared VM drifts by 10-30 % over minutes, for every
# workload alike.  A fixed pure-Python kernel owned by the benchmark is timed
# after every op (outside the timed region), and each op's time is scaled by
# REFERENCE_S / (median kernel time around it): the op timings are milliseconds
# at the speed where the kernel takes REFERENCE_S.  The raw wall times are kept
# in the record as end_to_end_raw.
REFERENCE_S = 0.7e-3  # the kernel's typical time on a 2-vCPU x86-64 VM, Python 3.11
REFERENCE_WINDOW = 7  # ops on each side whose samples set an op's speed


def reference_kernel(n: int = 6000) -> float:
    x, y, z = 1.0, 2.0, 3.0
    for _ in range(n):
        lam = sqrt(x * y) + sqrt(y * z) + sqrt(z * x)
        x, y, z = 0.25 * (x + lam) + 0.5, 0.25 * (y + lam) + 0.25, 0.25 * (z + lam) + 0.125
    return x + y + z


def speed_sample() -> float:
    """Seconds the reference kernel takes right now."""
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def speed_factors(samples: list[float]) -> list[float]:
    """REFERENCE_S over the median sample in a window around each op."""
    w = REFERENCE_WINDOW
    return [REFERENCE_S / statistics.median(samples[max(0, i - w):i + w + 1])
            for i in range(len(samples))]


def _use_source_tree():
    if not (SRC / "h5geo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no h5geo sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def _remove_if_empty(path: Path):
    try:
        path.rmdir()
    except OSError:  # absent, or another run still works there
        pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import h5geo

    cpus = os.cpu_count() or 1
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": h5geo.BACKEND_NAME,
        "cpu_count": cpus,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        # h5geo sweep's own rule for its thread pool
        "sweep_pool_width": int(os.environ.get("H5GEO_THREADS", "0")) or min(8, cpus),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up time: fresh processes
# ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """In a fresh process: import h5geo and h5geo.cli, then run the first op."""
    t0 = perf_counter()
    import h5geo  # noqa: F401
    import h5geo.cli  # noqa: F401
    t1 = perf_counter()
    import workloads as wl

    w = wl.make_workload(workload, WORK_ROOT / f"probe-{os.getpid()}")
    try:
        prepared = w.prepare(next(wl.orbit_stream(workload, seed)))
        t2 = perf_counter()
        w.run(prepared)
        t3 = perf_counter()
    finally:
        w.close()
        _remove_if_empty(WORK_ROOT)
    return (t1 - t0) + (t3 - t2)


def measure_setup(workload: str, seed: int, reps: int) -> list[float]:
    """Set-up times of `reps` fresh processes (wall time: imports are not CPU-bound)."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT), env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# ---------------------------------------------------------------------------
# timed ops
# ---------------------------------------------------------------------------


def _run_one(w, prepared, tracer=None, op_id=0):
    """(output, error message, seconds) of one op; exceptions are op failures."""
    t0 = perf_counter()
    try:
        out = tracer.run_op(op_id, w.run, prepared) if tracer else w.run(prepared)
        err = None
    except Exception as exc:  # any exception is a failed op, reported below
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, perf_counter() - t0


def untraced_pass(w, stream, seconds, min_ops, max_wall):
    """Run ops until `seconds` of op time and `min_ops` ops; check each one."""
    import workloads as wl

    ops = []
    spent = 0.0
    start = perf_counter()
    while (spent < seconds or len(ops) < min_ops) and perf_counter() - start < max_wall:
        orbit = next(stream)
        out, err, dt = _run_one(w, w.prepare(orbit))
        speed = speed_sample()
        if err is None:
            chk = w.check(orbit, out)
            digest = w.digest(out)
        else:
            chk = wl.Check(entries=w.entries_per_op)
            for _ in range(w.entries_per_op):
                chk.fold([err], False)
            digest = None
        spent += dt
        ops.append({"orbit": orbit, "seconds": dt, "speed": speed, "check": chk, "digest": digest})
    for op, factor in zip(ops, speed_factors([op["speed"] for op in ops])):
        op["factor"] = factor
    return ops


def traced_pass(w, ops, tracer):
    """Rerun the untraced pass's inputs under the tracer; outputs must not change."""
    from tracer import nesting_errors, op_summary

    runs = []
    for i, op in enumerate(ops):
        out, err, dt = _run_one(w, w.prepare(op["orbit"]), tracer, i)
        summary = op_summary(tracer.spans)
        summary["nesting_errors"] = nesting_errors(tracer.spans)
        summary["seconds"] = dt
        summary["error"] = err
        summary["same_output"] = err is None and w.digest(out) == op["digest"]
        summary["bytes_written"] = w.bytes_written()
        runs.append(summary)
    return runs


def _quantile(xs, q):
    import numpy as np

    return float(np.percentile(np.asarray(xs), q))


def end_to_end(ops, setup, peak_rss_mb, normalized=True) -> dict:
    """The end-to-end metrics; op timings scaled to the reference speed unless raw."""
    times = [op["seconds"] * (op["factor"] if normalized else 1.0) for op in ops]
    checks = [op["check"] for op in ops]
    attempted = sum(c.entries for c in checks)
    max_errs = [c.max_err for c in checks if c.max_err is not None]
    vals = {
        "setup_s": statistics.median(setup) if setup else None,
        "op_ms.p50": 1e3 * _quantile(times, 50),
        "op_ms.p90": 1e3 * _quantile(times, 90),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": peak_rss_mb,
        "radial_err": max(c.radial_err for c in checks),
        "max_err": max(max_errs) if max_errs else None,
        "max_drift": max(c.max_drift for c in checks),
        "failed_frac": sum(c.failed_entries for c in checks) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in vals.items() if v is not None}


def per_layer(runs, counters, kernels, untraced_ops_per_s) -> dict:
    n = len(runs)
    calls = {k: 0 for k in LAYERS + ("quadrature.setup", "quadrature.radial",
                                     "quadrature.theta1", "quadrature.lift")}
    self_s = dict.fromkeys(calls, 0.0)
    names: dict[str, int] = {}
    incl: dict[str, float] = {}
    for r in runs:
        for k, v in r["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in r["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in r["names"].items():
            names[k] = names.get(k, 0) + v
        for k, v in r["inclusive_s"].items():
            incl[k] = incl.get(k, 0.0) + v
    nm = lambda *keys: sum(names.get(k, 0) for k in keys)  # noqa: E731
    acc = counters.get("dynamics.steps_accepted", 0.0)
    rej = counters.get("dynamics.steps_rejected", 0.0)
    samples = counters.get("quadrature.samples", 0.0)
    traced_ops_per_s = n / sum(r["seconds"] for r in runs)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count/op")
        m[f"{layer}.self_ms"] = (1e3 * self_s[layer], "ms/op")
    m["elliptic.invert_ratio.calls"] = (nm("quadrature.invert_ratio"), "count/op")
    m["core.hyper_rhs.calls"] = (nm("dynamics._hyper_rhs", "reduction._hyper_rhs_kernel"), "count/op")
    for sub in ("setup", "radial", "theta1", "lift"):
        m[f"quadrature.{sub}.self_ms"] = (1e3 * self_s[f"quadrature.{sub}"], "ms/op")
    m["quadrature.radial.calls"] = (calls["quadrature.radial"], "count/op")
    m["scipy.brentq.calls"] = (nm("quadrature.brentq", "dynamics.brentq"), "count/op")
    m["scipy.cumulative_simpson.calls"] = (nm("quadrature.cumulative_simpson"), "count/op")
    m["dynamics.steps_accepted"] = (acc, "count/op")
    m["dynamics.steps_rejected"] = (rej, "count/op")
    m["dynamics.rhs_calls"] = (nm("dynamics._hyper_rhs", "dynamics._full_rhs"), "count/op")
    m["cli.bytes_written"] = (sum(r["bytes_written"] for r in runs), "bytes/op")
    out = {k: {"value": v / n, "unit": u} for k, (v, u) in m.items()}
    # run-level ratios (0 where the workload does no such work)
    out["quadrature.radial.calls_per_sample"] = {
        "value": calls["quadrature.radial"] / samples if samples else 0.0, "unit": "count/sample"}
    out["dynamics.accept_ratio"] = {
        "value": acc / (acc + rej) if acc + rej else 0.0, "unit": "ratio"}
    ode_s = sum(incl.get(k, 0.0) for k in ("dynamics.integrate_reduced", "cli.integrate_reduced"))
    out["dynamics.us_per_step"] = {"value": 1e6 * ode_s / acc if acc else 0.0, "unit": "us"}
    for k in KERNEL_NAMES:
        out[f"core.{k}.ns_per_call"] = {"value": kernels[k], "unit": "ns"}
    out["tracing.overhead_frac"] = {
        "value": (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s, "unit": "ratio"}
    return out


def describe_inputs(w, ops) -> dict:
    import hashlib
    from collections import Counter

    import workloads as wl

    orbits = [op["orbit"] for op in ops]
    kinds = Counter(o.kind() for o in orbits)
    return {
        "ops": len(ops),
        "entries_per_op": w.entries_per_op,
        "tags": dict(sorted(Counter(o.tag for o in orbits).items())),
        "type_share": {k: kinds[k] / len(orbits) for k in ("I", "II")},
        "grid": w.describe(),
        "inputs_sha256": hashlib.sha256(wl.inputs_bytes(orbits)).hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, min_ops: int = 100,
        setup_reps: int = 5, sizes: dict | None = None, max_wall: float = 100.0,
        spans_out: Path | None = None) -> dict:
    """One benchmark run; returns the full record (summary under "summary")."""
    import resource

    import workloads as wl

    env = environment(seed)
    setup = None if trace else measure_setup(workload, seed, setup_reps)
    w = wl.make_workload(workload, WORK_ROOT / f"{workload}-{os.getpid()}", **(sizes or {}))
    problems: list[str] = []
    try:
        stream = wl.orbit_stream(workload, seed)
        _, err, _ = _run_one(w, w.prepare(next(stream)))  # the untimed first op, as in set-up
        if err is not None:
            problems.append(f"first op failed: {err}")
        if not trace:
            ops = untraced_pass(w, stream, seconds, min_ops, max_wall)
            layer = accounting = None
        else:
            from kernels import kernel_table
            from tracer import ROOT_LAYER as tracer_root
            from tracer import Tracer

            kernels = kernel_table(seed)
            ops = untraced_pass(w, stream, seconds / 2.0, min_ops, max_wall)
            untraced_rate = len(ops) / sum(op["seconds"] for op in ops)
            tr = Tracer()
            span_cost = tr.span_cost()
            runs = traced_pass(w, ops, tr)
            if spans_out is not None:
                tr.write_spans(spans_out)
            layer = per_layer(runs, tr.counters, kernels, untraced_rate)
            for i, r in enumerate(runs):
                if r["error"] or not r["same_output"]:
                    problems.append(f"traced op {i} differs from its untraced run: {r['error']}")
                problems += [f"traced op {i}: {m}" for m in r["nesting_errors"][:3]]
                # The layers' self times sum to the wall time (plus the pool
                # threads' overlap) less the bench layer's self time, which is
                # the op's time outside every layer span.  That must stay within
                # the tracing overhead of the op's spans.
                outside = r["self_s"].get(tracer_root, 0.0)
                if outside > r["spans"] * span_cost:
                    problems.append(
                        f"traced op {i}: {1e3 * outside:.3f} ms outside every layer span, "
                        f"more than the tracing overhead {1e3 * r['spans'] * span_cost:.3f} ms"
                    )
            accounting = {
                "wall_ms": sum(r["wall"] for r in runs),
                "thread_overlap_ms": sum(r["overlap"] for r in runs),
                "bench_self_ms": sum(r["self_s"].get(tracer_root, 0.0) for r in runs),
                "layers_self_ms": sum(v for r in runs for k, v in r["self_s"].items()
                                      if k != tracer_root),
                "tracing_overhead_ms": span_cost * sum(r["spans"] for r in runs),
            }
            accounting = {k: 1e3 * v / len(runs) for k, v in accounting.items()}
            rhs = layer["dynamics.rhs_calls"]["value"] * len(runs)
            if round(rhs) != round(tr.counters.get("dynamics.rhs_expected", 0.0)):
                problems.append("RHS calls differ from 6 (accepted + rejected) + 2")
    finally:
        w.close()
        _remove_if_empty(WORK_ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [op["check"] for op in ops]
    attempted = sum(c.entries for c in checks)
    hard_failed = sum(c.hard_failed for c in checks)
    e2e = end_to_end(ops, setup, peak_rss_mb)
    raw = end_to_end(ops, setup, peak_rss_mb, normalized=False)
    if trace:
        metrics = layer
    else:
        metrics = {k: e2e[k] for k in GATED}
    summary = {
        "correct": hard_failed == 0 and not problems,
        "attempted": attempted,
        "failed": hard_failed,
        "metrics": metrics,
    }
    return {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "inputs": describe_inputs(w, ops),
        "end_to_end_raw": {k: raw[k] for k in ("op_ms.p50", "op_ms.p90", "ops_per_s")},
        "speed": {
            "reference_s": REFERENCE_S,
            "kernel_s_median": statistics.median(op["speed"] for op in ops),
            "factor_median": statistics.median(op["factor"] for op in ops),
        },
        "setup_samples_s": setup,
        "op_ms": [[op["orbit"].tag, 1e3 * op["seconds"], op["factor"]] for op in ops],
        "end_to_end": e2e,
        "per_layer": layer,
        "trace_accounting_per_op": accounting,
        "failures": {
            "attempted": attempted,
            "hard": hard_failed,
            "accuracy_only": sum(c.accuracy_failed for c in checks),
            "chart_exits": sum(c.chart_exits for c in checks),
            "messages": [m for c in checks for m in c.hard][:20] + problems,
        },
        "summary": summary,
    }


def report(rec: dict) -> str:
    env, inp = rec["environment"], rec["inputs"]
    lines = [
        f"# h5geo benchmark  workload={rec['workload']} seed={env['seed']} "
        f"seconds={rec['seconds']} trace={rec['trace']}",
        "# env  " + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"),
        f"# inputs  ops={inp['ops']} x {inp['entries_per_op']} entries  tags={inp['tags']}  "
        f"type I/II={inp['type_share']['I']:.2f}/{inp['type_share']['II']:.2f}  "
        f"grid={inp['grid']}",
    ]
    f = rec["failures"]
    lines.append(f"# checks  attempted={f['attempted']} hard-failed={f['hard']} "
                 f"accuracy-only={f['accuracy_only']} chart-exits={f['chart_exits']}")
    lines += [f"#   {m}" for m in f["messages"]]
    acc = rec["trace_accounting_per_op"]
    if acc:
        lines.append("# traced op (ms): " + " ".join(f"{k}={v:.4g}" for k, v in acc.items()))
    for section, tag in (("end_to_end", ""), ("end_to_end_raw", " (raw wall time)"),
                         ("per_layer", "")):
        for k, v in (rec[section] or {}).items():
            lines.append(f"{k:<36} {v['value']:>16.6g} {v['unit']}{tag}")
    return "\n".join(lines)


def run_each(args) -> int:
    """--workload all: each workload in a fresh process, so peak_rss_mb is its own."""
    import workloads as wl

    records = []
    rec_dir = WORK_ROOT / f"all-{os.getpid()}"  # a child's clean-up leaves it in place
    for name in wl.WORKLOADS:
        rec_path = rec_dir / f"{name}.json"
        rec_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(rec_path)]
        try:
            proc = subprocess.run(cmd, cwd=str(ROOT), env=os.environ.copy())
            if proc.returncode != 0:
                return proc.returncode
            records.append(json.loads(rec_path.read_text()))
        finally:
            rec_path.unlink(missing_ok=True)
            _remove_if_empty(rec_dir)
            _remove_if_empty(WORK_ROOT)
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="h5geo benchmark")
    ap.add_argument("--workload", required=True,
                    help="a workload name, or all (each in its own process, one after another)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full record(s) to this JSON file")
    ap.add_argument("--spans", type=Path, help="with --trace 1 and one workload, write the kept raw spans (JSON lines)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_source_tree()
    if args.probe_setup:
        print(json.dumps({"setup_s": probe_setup(args.workload, args.seed)}))
        return 0
    import workloads as wl

    if args.workload == "all":
        if args.spans is not None:
            ap.error("--spans needs a single workload")
        return run_each(args)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(wl.WORKLOADS)}")
    rec = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_out=args.spans)
    print(report(rec))
    print(json.dumps(rec["summary"]), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
