"""Command-line interface: exit codes, determinism, schema, roundtrips."""

import contextlib
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

CLI = [sys.executable, "-m", "h5geo.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kw
    )


CHARGES_F = ["--c0", "1", "--c1", "0.5", "--c2", "0.3", "--c3", "0.2", "--c4", "0.5"]


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return list(csv.DictReader(lines))


def test_classify_text_and_json():
    r = run_cli("classify", *CHARGES_F)
    assert r.returncode == 0
    assert "case" in r.stdout and "f" in r.stdout
    r = run_cli("classify", *CHARGES_F, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["case"] == "f"
    assert doc["type"] == "I"
    assert doc["A"] == pytest.approx(0.75)


def test_classify_infeasible_exit_2():
    r = run_cli("classify", "--c0", "4", "--c1", "4")
    assert r.returncode == 2
    r2 = run_cli("classify", "--c0", "4", "--c1", "0.5")
    assert r2.returncode == 2  # also infeasible: A = -3 with negative discriminant


def test_trace_and_quadrature_agree():
    common = [*CHARGES_F, "--r0", "1.2", "--t-end", "4", "--samples", "41"]
    tr = run_cli("trace", *common)
    qu = run_cli("quadrature", *common)
    assert tr.returncode == 0 and qu.returncode == 0
    rows_t, rows_q = _rows(tr.stdout), _rows(qu.stdout)
    assert len(rows_t) == len(rows_q) == 41
    for a, b in zip(rows_t, rows_q):
        for key in ("r", "theta1", "theta2", "theta3"):
            assert abs(float(a[key]) - float(b[key])) < 1e-6
    # integrals are reported and constant
    i1 = [float(r["I1"]) for r in rows_t]
    assert max(i1) - min(i1) < 1e-8
    assert "branch" in rows_q[0]


def test_byte_determinism():
    args = ["quadrature", *CHARGES_F, "--r0", "1.2", "--t-end", "3", "--samples", "17"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_seventeen_digit_roundtrip():
    r = run_cli("trace", *CHARGES_F, "--r0", "1.2", "--t-end", "2", "--samples", "9")
    rows = _rows(r.stdout)
    for row in rows:
        for key, text in row.items():
            x = float(text)
            assert repr(x) == repr(float(f"{x:.17g}"))


def test_validate_pass():
    r = run_cli(
        "validate", *CHARGES_F, "--r0", "1.2", "--t-end", "4", "--samples", "41",
        "--tol", "1e-6",
    )
    assert r.returncode == 0
    assert "status=pass" in r.stdout.replace(" ", "").replace(":", "=").lower() or "pass" in r.stdout


def test_validate_fail_on_tiny_tolerance():
    r = run_cli(
        "validate", *CHARGES_F, "--r0", "1.2", "--t-end", "4", "--samples", "41",
        "--tol", "1e-18",
    )
    assert r.returncode == 1
    assert "fail" in r.stdout.lower()


def test_figures_tr(tmp_path):
    r = run_cli("figures", "--which", "fig-tr", "--out-dir", tmp_path)
    assert r.returncode == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "fig_tr_Am1.csv", "fig_tr_A0.csv", "fig_tr_A0p5.csv", "fig_tr_A2.csv"
    }
    for name in names:
        rows = _rows((tmp_path / name).read_text())
        t_vals = [float(row["t"]) for row in rows]
        assert all(b >= a for a, b in zip(t_vals, t_vals[1:]))  # monotone branch


def test_figures_example(tmp_path):
    r = run_cli("figures", "--which", "fig-example", "--out-dir", tmp_path)
    assert r.returncode == 0
    rows = _rows((tmp_path / "fig_example.csv").read_text())
    assert {"t", "r", "theta1"} <= set(rows[0])
    th1 = [float(row["theta1"]) for row in rows]
    assert max(th1) - min(th1) > 1e-3  # the example has genuine theta1 variation


def test_figures_unknown_tag():
    r = run_cli("figures", "--which", "no-such-figure")
    assert r.returncode == 2


def test_trace_chart_exit_exit_code():
    # inward motion on C_q = 0 charges exits the chart at r = 0; the state is
    # passed explicitly because charge input always picks the outgoing branch
    from h5geo.reduction import ConservedCharges, state_from_charges

    hs = state_from_charges(
        ConservedCharges(1.0, 0.0, 0.0, 0.0, 0.5), 1.0, sign_pr=-1
    )
    r = run_cli(
        "trace",
        "--r", hs.r, "--theta1", hs.th1, "--theta2", hs.th2, "--theta3", hs.th3,
        "--pr", hs.pr, "--ptheta1", hs.pth1, "--ptheta2", hs.pth2,
        "--ptheta3", hs.pth3, "--c0", hs.c0,
        "--t-end", "5", "--samples", "21",
    )
    assert r.returncode == 1
    assert "chart-exit" in (r.stdout + r.stderr)


def test_quadrature_infeasible_exit():
    r = run_cli(
        "quadrature", "--c0", "4", "--c1", "4", "--r0", "1.0",
        "--t-end", "1", "--samples", "5",
    )
    assert r.returncode in (1, 2)


def test_sweep(tmp_path):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "runs": [
            {"mode": "classify", "c0": 2.0, "c1": 0.5, "c2": 0.25, "c3": -0.25,
             "c4": 0.5},
            {"mode": "quadrature", "c0": 1.0, "c1": 0.5, "c2": 0.3, "c3": 0.2,
             "c4": 0.5, "r0": 1.2, "t_end": 2.0, "samples": 11},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    r = subprocess.run(
        CLI + ["sweep", "--config", str(cfg_path)],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert [e["exit_code"] for e in index["results"]] == [0, 0]
    assert (tmp_path / "out" / "run_0000.json").exists()
    assert (tmp_path / "out" / "run_0001.csv").exists()


def test_sweep_accepts_negative_exponent_values(tmp_path):
    """A run value such as -3.5e-18 reaches argparse as part of its flag token."""
    from h5geo import cli

    cfg = {
        "runs": [
            {"mode": "classify", "c0": 1.0, "c1": 0.5, "c2": 0.3, "c3": -3.5e-18},
            {"mode": "quadrature", "c0": 1.0, "c1": 0.5, "c2": 0.3, "c3": -3.5e-18,
             "r0": 1.2, "t_end": 1.0, "samples": 5},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    index = json.loads((out_dir / "index.json").read_text())
    assert [e["exit_code"] for e in index["results"]] == [0, 0]
    assert code == 0
    assert json.loads((out_dir / "run_0000.json").read_text())["case"] == "f"


def test_main_writes_to_the_current_stdout():
    """The output stream is resolved when a command runs, not when h5geo.cli is imported."""
    from h5geo import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["classify", *CHARGES_F])
    assert code == 0
    assert "case=f" in buf.getvalue()


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "h5geo" in r.stdout


def test_state_input_consistency_check():
    # full state given: charges are extracted and reported consistently
    r = run_cli(
        "trace", "--r", "1.2", "--theta1", "0.7", "--theta2", "0", "--theta3", "0",
        "--pr", "0.3", "--ptheta1", "0.2", "--ptheta2", "0.1", "--ptheta3", "-0.1",
        "--c0", "1.0", "--t-end", "1", "--samples", "5",
    )
    assert r.returncode == 0
    rows = _rows(r.stdout)
    assert abs(float(rows[0]["r"]) - 1.2) < 1e-12
