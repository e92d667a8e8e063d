"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench

bench._use_source_tree()

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "quadrature_dense": {"t_end": 2.0, "samples": 5},
    "ode_ensemble": {"t_end": 2.0},
    "sweep_sparse": {"t_end": 2.0, "samples": 3},
}


def _tiny_run(name, trace):
    return bench.run(name, seed=3, seconds=0.0, trace=trace, min_ops=5, setup_reps=1,
                     sizes=TINY[name])


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_run_reports_every_metric(name):
    rec = _tiny_run(name, trace=False)
    summary = rec["summary"]
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 5 * rec["inputs"]["entries_per_op"]
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary["metrics"][m["name"]]["value"] > 0.0
    for key, unit in bench.END_TO_END_UNITS.items():
        if key == "max_err" and name == "ode_ensemble":
            continue  # the ODE is the oracle there
        assert rec["end_to_end"][key]["unit"] == unit
    inputs = rec["inputs"]
    assert inputs["ops"] == 5 and sum(inputs["tags"].values()) == 5
    assert rec["environment"]["backend"] in ("python", "cython")


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(name):
    summary = _tiny_run(name, trace=True)["summary"]
    assert summary["correct"]
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("column, shift, message", [
    (2, 1e-3, "angles off the oracle"),  # theta2, which no first integral sees
    (0, 1e-5, "r off the oracle"),  # r, still well inside the radii
])
def test_shifted_coordinate_is_a_hard_failure(column, shift, message):
    # a tag-a orbit on a grid fine enough that the clean output passes
    w = wl.QuadratureDense(t_end=2.0, samples=41)
    orbit = next(wl.orbit_stream("quadrature_dense", 5))
    trace, ambient = w.run(orbit)
    assert w.check(orbit, (trace, ambient)).failed_entries == 0
    trace.ys[:, column] += shift
    chk = w.check(orbit, (trace, ambient))
    assert chk.failed_entries == 1 and chk.hard_failed == 1
    assert any(m.startswith(message) for m in chk.hard)


def test_known_sparse_grid_angle_error_is_accuracy_only():
    # the README's example orbit (tag f) at 11 samples: validate prints
    # status=fail (3.1e-5), inside the Simpson budget of that grid
    c = wl.ConservedCharges(1.0, 0.5, 0.3, 0.2, 0.5)
    state = wl.state_from_charges(c, 1.2)
    orbit = wl.Orbit(wl.profile_from_charges(c).tag.value, c, state)
    w = wl.QuadratureDense(t_end=10.0, samples=11)
    chk = w.check(orbit, w.run(orbit))
    assert chk.max_err > wl.COORD_TOL
    assert chk.hard_failed == 0 and chk.accuracy_failed == 1


def test_corrupted_sweep_csv_counts_as_failure(tmp_path):
    w = wl.SweepSparse(tmp_path, t_end=2.0, samples=3)
    orbit = next(wl.orbit_stream("sweep_sparse", 5))
    out = w.run(w.prepare(orbit))
    clean = w.check(orbit, out)
    assert clean.hard_failed == 0
    path = w.out_dir / "run_0001.csv"
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#") or ln.startswith("t,")]
    rows = [ln.split(",") for ln in lines[len(head):]]
    for row in rows:
        row[3] = repr(float(row[3]) + 1e-3)  # theta2
    path.write_text("\n".join(head + [",".join(r) for r in rows]) + "\n")
    chk = w.check(orbit, out)
    assert chk.hard_failed == 1 and chk.failed_entries == max(clean.failed_entries, 1)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs(name):
    def first(seed, n=12):
        stream = wl.orbit_stream(name, seed)
        return wl.inputs_bytes([next(stream) for _ in range(n)])

    assert first(9) == first(9)
    assert first(9) != first(10)


def test_stratified_tags_are_confirmed_by_classify():
    stream = wl.orbit_stream("quadrature_dense", 4)
    orbits = [next(stream) for _ in range(10)]
    assert [o.tag for o in orbits] == list(wl.TAGS) * 2
    for o in orbits:
        assert wl.profile_from_charges(o.charges).tag.value == o.tag


def test_flag_values_round_trip_and_parse():
    for x in (-3.469446951953614e-18, 1e16, -1.2918523925889869, 0.0, 2.5e-5):
        s = wl.flag_value(x)
        assert float(s) == x and "e" not in s
    assert wl.exponent_negative(-3.5e-18) and not wl.exponent_negative(3.5e-18)


def test_speed_factors_follow_the_reference_kernel():
    slow = 2.0 * bench.REFERENCE_S
    assert bench.speed_factors([slow] * 20) == [0.5] * 20
    # a lone outlier does not move the windowed median
    samples = [bench.REFERENCE_S] * 20
    samples[10] = 10.0 * bench.REFERENCE_S
    assert bench.speed_factors(samples) == [1.0] * 20


def test_self_times_cover_wall_with_thread_overlap():
    # root [0, 10]; child a [1, 4] in the root's thread, child b [2, 6] in a
    # pool thread; grandchild [2, 3] under a
    spans = [
        (1, 0, "bench.op", "bench", 0.0, 10.0, 0, 1),
        (2, 1, "x.a", "cli", 1.0, 4.0, 0, 1),
        (3, 1, "x.b", "cli", 2.0, 6.0, 0, 2),
        (4, 2, "x.c", "core", 2.0, 3.0, 0, 1),
    ]
    assert tracer.self_times(spans) == {1: 5.0, 2: 2.0, 3: 4.0, 4: 1.0}
    s = tracer.op_summary(spans)
    assert s["wall"] == 10.0 and s["overlap"] == 2.0 and s["spans"] == 4
    assert tracer.nesting_errors(spans) == []
    # a child that outlives its parent, and one whose parent is missing
    bad = spans + [(5, 2, "x.d", "core", 3.5, 4.5, 0, 1), (6, 9, "x.e", "core", 5.0, 5.5, 0, 1)]
    assert len(tracer.nesting_errors(bad)) == 2


class _Untraced(wl.QuadratureDense):
    """A quadrature op that also does 20 ms of work outside every layer span."""

    def run(self, orbit):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.02:
            pass
        return super().run(orbit)


@pytest.mark.parametrize("name", ("quadrature_dense", "ode_ensemble", "sweep_sparse", "untraced"))
def test_traced_op_layers_account_for_wall(name, tmp_path):
    if name == "untraced":
        w = _Untraced(**TINY["quadrature_dense"])
        orbit = next(wl.orbit_stream("quadrature_dense", 2))
    else:
        w = wl.make_workload(name, tmp_path, **TINY[name])
        orbit = next(wl.orbit_stream(name, 2))
    t = tracer.Tracer()
    cost = t.span_cost()
    t.run_op(0, w.run, w.prepare(orbit))
    s = tracer.op_summary(t.spans)
    assert tracer.nesting_errors(t.spans) == []
    if name == "sweep_sparse":
        assert s["overlap"] >= 0.0
    else:
        assert s["overlap"] == 0.0  # one thread
    # time outside every layer span stays within the tracing overhead
    outside = s["self_s"]["bench"]
    assert (outside > s["spans"] * cost) == (name == "untraced")
    # nothing stays wrapped once the op is over
    assert not hasattr(wl.quadrature.geodesic_quadrature, "__wrapped__")
    assert not hasattr(wl.cli.main, "__wrapped__")
    w.close()


def test_compare_refuses_other_backend_or_cpus():
    rec = {"workload": "ode_ensemble", "seconds": 1, "trace": 0, "inputs": {"grid": {}},
           "end_to_end": {"ops_per_s": {"value": 10.0, "unit": "1/s"}},
           "environment": {"backend": "python", "cpu_count": 2, "affinity_cpus": 2,
                           "sweep_pool_width": 2, "seed": 1, "commit": None,
                           "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}}
    other = json.loads(json.dumps(rec))
    other["environment"]["cpu_count"] = 4
    with pytest.raises(compare.Refused):
        compare.summarize([rec, other])
    base = compare.summarize([rec])
    new = compare.summarize([other])
    with pytest.raises(compare.Refused):
        compare.diff(base, new, SPEC)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode_ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracing_leaves_outputs_unchanged():
    w = wl.QuadratureDense(t_end=2.0, samples=5)
    orbit = next(wl.orbit_stream("quadrature_dense", 8))
    plain = w.digest(w.run(orbit))
    assert w.digest(tracer.Tracer().run_op(0, w.run, orbit)) == plain
