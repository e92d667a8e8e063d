"""Acceptance gate: the ten top-level criteria, one pass/fail line each.

Each test prints its verdict to the real stdout (bypassing capture) so the
lines appear in the pytest log, then asserts so a regression turns the suite
red.  The numbered criteria match the project acceptance list.
"""

import csv
import json
import subprocess
import sys
from math import pi, sqrt

import numpy as np
from scipy.integrate import quad

from conftest import CASE_CHARGES, CASE_PROFILES, case_state, random_hyper_state, tau_oracle
from h5geo.classify import TrajectoryKind, classify, profile_from_charges
from h5geo.dynamics import IntegratorConfig, drift_report, integrate_reduced, solve_dopri
from h5geo.elliptic import ellint_E, ellint_F, jacobi_am, jacobi_sncndn
from h5geo.heisenberg import (
    CotangentState,
    GroupElement,
    TangentVector,
    full_rhs,
    hamiltonian_full,
    horizontality_defect,
    sr_speed,
)
from h5geo.quadrature import (
    RadialSolution,
    geodesic_quadrature,
    reconstruct_ambient,
    theta23_variant_audit,
)
from h5geo.reduction import (
    ConservedCharges,
    HypersphericalState,
    charges_from_state,
    state_from_charges,
)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _verdict(capsys, n: int, ok: bool, detail: str):
    line = f"ACCEPTANCE CRITERION {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_elliptic_kernel(capsys, rng):
    worst_id = worst_inv = 0.0
    for _ in range(10_000):
        u = rng.uniform(-5.0, 5.0)
        k = rng.uniform(0.0, 0.999)
        t = jacobi_sncndn(u, k)
        worst_id = max(
            worst_id,
            abs(t.sn**2 + t.cn**2 - 1.0),
            abs(t.dn**2 + (k * t.sn) ** 2 - 1.0),
        )
        worst_inv = max(worst_inv, abs(ellint_F(jacobi_am(u, k), k) - u))
    worst_quad = 0.0
    for _ in range(1000):
        phi = rng.uniform(-pi / 2.0, pi / 2.0)
        k = rng.uniform(0.0, 0.999)
        f_ref, _ = quad(
            lambda s: 1.0 / sqrt(1.0 - (k * np.sin(s)) ** 2), 0.0, phi, limit=200
        )
        e_ref, _ = quad(
            lambda s: sqrt(1.0 - (k * np.sin(s)) ** 2), 0.0, phi, limit=200
        )
        worst_quad = max(
            worst_quad, abs(ellint_F(phi, k) - f_ref), abs(ellint_E(phi, k) - e_ref)
        )
    ok = worst_id < 1e-12 and worst_inv < 1e-11 and worst_quad < 1e-12
    _verdict(capsys, 1, ok,
        f"identities {worst_id:.2e} (<1e-12), F∘am inversion {worst_inv:.2e} "
        f"(<1e-11), quadrature oracle {worst_quad:.2e} (<1e-12)",
    )


def test_criterion_02_hamiltonian_ground_truth(capsys, rng):
    eps = 1e-6
    worst = 0.0
    lam5_exact = True
    for _ in range(1000):
        q = GroupElement(*rng.uniform(-2.0, 2.0, size=5))
        lam = tuple(rng.uniform(-2.0, 2.0, size=5))
        s = CotangentState(q, lam)
        rhs = full_rhs(s)
        lam5_exact &= rhs[9] == 0.0
        y = s.as_array()

        def ham(arr):
            st = CotangentState.from_array(arr)
            return hamiltonian_full(st.q, st.lam)

        grad = np.empty(10)
        for i in range(10):
            yp, ym = y.copy(), y.copy()
            yp[i] += eps
            ym[i] -= eps
            grad[i] = (ham(yp) - ham(ym)) / (2.0 * eps)
        expect = np.concatenate([grad[5:], -grad[:5]])
        scale = max(1.0, float(np.max(np.abs(expect))))
        worst = max(worst, float(np.max(np.abs(rhs - expect))) / scale)
    ok = worst < 1e-6 and lam5_exact
    _verdict(capsys, 2, ok,
        f"full_rhs vs finite differences {worst:.2e} relative (<1e-6), "
        f"dlam5/dt exactly zero: {lam5_exact}",
    )


def test_criterion_03_conservation(capsys, rng):
    worst = 0.0
    for _ in range(50):
        hs = random_hyper_state(rng)
        trace = integrate_reduced(hs, (0.0, 10.0))
        worst = max(worst, drift_report(trace).max_drift)
    ok = worst < 1e-8
    _verdict(capsys, 3, ok, f"max drift of the four integrals over [0,10] {worst:.2e} (<1e-8)")


def test_criterion_04_charge_inequalities(capsys, rng):
    worst_c1 = 0.0
    worst_cq = -1.0
    for _ in range(10_000):
        c = charges_from_state(random_hyper_state(rng))
        worst_c1 = min(worst_c1, c.c1)
        worst_cq = max(worst_cq, -(c.c1 + (c.c2 + c.c3) ** 2) / (2.0 * c.c4))
    # the C_q = 0 limb: c1 = 0 and c2 + c3 = 0 force B = 1 (checked on the
    # coefficient map itself; such charge vectors need c2 = c3 = 0 to be
    # realizable, but the corollary is about the coefficients)
    worst_b = 0.0
    for _ in range(10_000):
        c0 = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        c2 = rng.uniform(-1.0, 1.0)
        c4 = rng.uniform(0.1, 2.0)
        c = ConservedCharges(c0, 0.0, c2, -c2, c4)
        c_q = -(c.c1 + (c.c2 + c.c3) ** 2) / (2.0 * c.c4)
        assert abs(c_q) < 1e-12
        b = 1.0 - c.c1 / (2.0 * c.c4) + (c.c2 + c.c3) * c.c0 / (2.0 * c.c4)
        worst_b = max(worst_b, abs(b - 1.0))
    ok = worst_c1 >= 0.0 and worst_cq <= 0.0 and worst_b < 1e-10
    _verdict(capsys, 4, ok,
        f"min C1 {worst_c1:.2e} (>=0), max C_q {worst_cq:.2e} (<=0), "
        f"|B-1| on C_q=0 {worst_b:.2e} (<1e-10)",
    )


def test_criterion_05_classification_confinement(capsys, rng):
    worst = 0.0
    checked = 0
    for _ in range(200):
        hs = random_hyper_state(rng)
        c = charges_from_state(hs)
        p = profile_from_charges(c)
        traj = classify(p)
        trace = integrate_reduced(hs, (0.0, 20.0))
        r = trace.ys[:, 0]
        if traj.kind is TrajectoryKind.TYPE_I:
            worst = max(worst, float(traj.r0 - np.min(r)))
        else:
            worst = max(
                worst,
                float(traj.r1 - np.min(r)),
                float(np.max(r) - traj.r2),
            )
        checked += 1
    ok = worst < 1e-6 and checked == 200
    _verdict(capsys, 5, ok,
        f"{checked} trajectories, worst confinement violation {worst:.2e} (<1e-6)",
    )


def test_criterion_06_quadrature_vs_ode(capsys):
    worst = 0.0
    # charge-attainable tags against the reduced Hamiltonian oracle
    for tag in ("a", "b", "d", "f", "g"):
        hs = case_state(tag)
        c = charges_from_state(hs)
        p = profile_from_charges(c)
        traj = classify(p)
        sol = RadialSolution(p, hs.r, 1 if hs.pr >= 0 else -1, 0.0, c.c4)
        if traj.kind is TrajectoryKind.TYPE_II:
            t_end = 2.0 * sol.period
        else:
            t_end = 6.0
        t_eval = np.linspace(0.0, t_end, 301)
        trace = integrate_reduced(hs, (0.0, t_end), TIGHT, t_eval=t_eval)
        ana = np.array([sol.radius_of_time(float(t)) for t in trace.times])
        worst = max(worst, float(np.max(np.abs(ana - trace.ys[:, 0]))))
    # tags with no charge realization against the radial ODE oracle
    for tag in ("c", "e"):
        p = CASE_PROFILES[tag]
        traj = classify(p)
        r0 = traj.r0 + 0.1
        sol = RadialSolution(p, r0, 1, 0.0, 0.5)

        def f(t, y):
            r = y[0]
            fr = max(p.f(r), 0.0)
            return np.array([sqrt(fr) / (r * sqrt(1.0 + r * r))])

        res = solve_dopri(f, 0.0, np.array([r0]), 4.0, TIGHT, keep_dense=True)
        tt = np.linspace(0.0, 4.0, 201)
        ana = np.array([sol.radius_of_time(float(t)) for t in tt])
        worst = max(worst, float(np.max(np.abs(ana - res.dense(tt)[:, 0]))))
    # Type II analytic period vs the ODE return time
    hs = case_state("g")
    c = charges_from_state(hs)
    sol = RadialSolution(profile_from_charges(c), hs.r, 1, 0.0, c.c4)
    period = sol.period
    trace = integrate_reduced(
        hs, (0.0, 1.5 * period), IntegratorConfig(1e-12, 1e-14, dense_output=True)
    )
    from scipy.optimize import brentq

    g = lambda t: trace.dense(t)[0] - hs.r
    t_ret = brentq(g, 0.9 * period, 1.1 * period, xtol=1e-12)
    period_err = abs(t_ret - period)
    ok = worst < 1e-6 and period_err < 1e-6
    _verdict(capsys, 6, ok,
        f"analytic r(t) vs ODE over all seven tags {worst:.2e} (<1e-6), "
        f"Type II period error {period_err:.2e} (<1e-6)",
    )


def test_criterion_07_geodesic_validity(capsys):
    worst_defect = worst_speed = 0.0
    for tag in ("f", "g"):
        hs = case_state(tag)
        c = charges_from_state(hs)
        assert abs(c.c4 - 0.5) < 1e-12  # arc-length level: unit speed
        ana = geodesic_quadrature(c, hs, np.linspace(0.0, 6.0, 181))
        amb = reconstruct_ambient(ana, z0=0.0)
        for row in amb.ys:
            q = GroupElement(*row[:5])
            vel = full_rhs(CotangentState(q, tuple(row[5:10])))[:5]
            v = TangentVector(*vel)
            worst_defect = max(worst_defect, abs(horizontality_defect(q, v)))
            worst_speed = max(worst_speed, abs(sr_speed(q, v) - 1.0))
    ok = worst_defect < 1e-7 and worst_speed < 1e-7
    _verdict(capsys, 7, ok,
        f"horizontality defect {worst_defect:.2e} (<1e-7), "
        f"|speed - 1| {worst_speed:.2e} (<1e-7)",
    )


def test_criterion_08_figure_reproduction(capsys, tmp_path):
    from h5geo.classify import make_profile

    # t(r) curves for f = A r^4 + r^2
    out = subprocess.run(
        [sys.executable, "-m", "h5geo.cli", "figures", "--which", "fig-tr",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    profiles = {
        "fig_tr_Am1.csv": make_profile(-1.0, 1.0, 0.0),
        "fig_tr_A0.csv": make_profile(0.0, 1.0, 0.0),
        "fig_tr_A0p5.csv": make_profile(0.5, 1.0, 0.0),
        "fig_tr_A2.csv": make_profile(2.0, 1.0, 0.0),
    }
    worst_tr = 0.0
    for name, p in profiles.items():
        rows = [
            row for row in csv.DictReader(
                l for l in (tmp_path / name).read_text().splitlines()
                if l and not l.startswith("#")
            )
        ]
        t_vals = [float(row["t"]) for row in rows]
        assert all(b >= a for a, b in zip(t_vals, t_vals[1:]))
        for row in rows:
            r = float(row["r"])
            worst_tr = max(worst_tr, abs(float(row["t"]) - tau_oracle(p, r)))
    # the worked example: f = r^2/2 - 1/2 with genuine theta1 motion
    out = subprocess.run(
        [sys.executable, "-m", "h5geo.cli", "figures", "--which", "fig-example",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    rows = [
        row for row in csv.DictReader(
            l for l in (tmp_path / "fig_example.csv").read_text().splitlines()
            if l and not l.startswith("#")
        )
    ]
    c = CASE_CHARGES["a"]
    p = profile_from_charges(c)
    assert (p.a, p.b, p.c_q) == (0.0, 0.5, -0.5)
    hs = state_from_charges(c, 1.0 + 1e-13)
    t_eval = np.array([float(row["t"]) for row in rows])
    trace = integrate_reduced(hs, (0.0, float(t_eval[-1])), TIGHT, t_eval=t_eval)
    worst_ex = 0.0
    for i, row in enumerate(rows):
        worst_ex = max(
            worst_ex,
            abs(float(row["r"]) - trace.ys[i, 0]),
            abs(float(row["theta1"]) - trace.ys[i, 1]),
        )
    ok = worst_tr < 1e-8 and worst_ex < 1e-6
    _verdict(capsys, 8, ok,
        f"t(r) curves vs direct quadrature {worst_tr:.2e} (<1e-8), "
        f"worked example (r, theta1) vs ODE {worst_ex:.2e} (<1e-6)",
    )


def test_criterion_09_asymptotics(capsys):
    # Type I escape: theta1 freezes and theta2/theta3 straighten as r grows
    hs = case_state("f")
    trace = integrate_reduced(hs, (0.0, 140.0), t_eval=np.arange(0.0, 140.5, 0.5))
    r = trace.ys[:, 0]
    tail = r > 100.0
    assert np.any(tail)
    th1dot = np.abs(trace.ys[tail, 5]) / r[tail] ** 2  # dtheta1/dt = pth1 / r^2
    worst_th1dot = float(np.max(th1dot))
    worst_dd = 0.0
    for col in (2, 3):
        vals = trace.ys[:, col]
        idx = np.where(tail)[0]
        idx = idx[(idx >= 2) & (idx < len(vals))]
        # samples are 0.5 apart: second difference per unit time
        dd = np.abs(vals[idx] - 2.0 * vals[idx - 1] + vals[idx - 2]) / 0.25
        worst_dd = max(worst_dd, float(np.max(dd)))
    # C_q = 0 charges at very large radius: theta1 frozen, theta2/theta3 affine
    c = CASE_CHARGES["b"]
    hs0 = state_from_charges(c, 5000.0)
    t_eval = np.linspace(0.0, 20.0, 81)
    tr2 = integrate_reduced(hs0, (0.0, 20.0), TIGHT, t_eval=t_eval)
    th1_dev = float(np.max(np.abs(tr2.ys[:, 1] - tr2.ys[0, 1])))
    worst_affine = 0.0
    for col in (2, 3):
        vals = tr2.ys[:, col]
        coef = np.polyfit(tr2.times, vals, 1)
        worst_affine = max(
            worst_affine, float(np.max(np.abs(vals - np.polyval(coef, tr2.times))))
        )
    ok = (
        worst_th1dot < 1e-3
        and worst_dd < 1e-3
        and th1_dev < 1e-8
        and worst_affine < 1e-8
    )
    _verdict(capsys, 9, ok,
        f"escape: |dtheta1/dt| {worst_th1dot:.2e} (<1e-3), theta2/3 second "
        f"differences {worst_dd:.2e} (<1e-3); C_q=0 at r=5000: theta1 "
        f"deviation {th1_dev:.2e} (<1e-8), affine residual {worst_affine:.2e} (<1e-8)",
    )


def test_criterion_10_formula_conflict_audit(capsys, tmp_path):
    hs = case_state("g")
    c = charges_from_state(hs)
    t_eval = np.linspace(0.0, 10.0, 2001)
    trace = integrate_reduced(hs, (0.0, 10.0), TIGHT, t_eval=t_eval)
    audit = theta23_variant_audit(
        c, trace.times,
        trace.ys[:, 0], trace.ys[:, 1], trace.ys[:, 2], trace.ys[:, 3],
    )
    artifact = {
        "description": (
            "Sup-norm error of the three candidate theta2'/theta3' rate "
            "formulas integrated against the ODE oracle reference path"
        ),
        "charges": {"c0": c.c0, "c1": c.c1, "c2": c.c2, "c3": c.c3, "c4": c.c4},
        "time_span": [0.0, 10.0],
        "samples": int(t_eval.size),
        "results": audit,
        "conclusion": (
            "the charge-substituted form agrees with the dynamics; the other "
            "two printed variants do not"
        ),
    }
    path = tmp_path / "theta23_variant_audit.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    sub = max(audit["substituted"].values())
    others = min(min(audit["bare-c0"].values()), min(audit["no-c0"].values()))
    ok = sub < 1e-5 and others > 1e-2 and path.exists()
    _verdict(capsys, 10, ok,
        f"substituted variant error {sub:.2e}, best alternative {others:.2e}, "
        f"artifact written to {path}",
    )
