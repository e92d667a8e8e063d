"""Closed-form radial/angular quadrature against independent oracles."""

from math import fmod, inf, pi, sqrt

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import CASE_CHARGES, CASE_PROFILES, case_state, random_hyper_state, tau_oracle
from h5geo.classify import CaseTag, TrajectoryKind, classify, profile_from_charges
from h5geo.dynamics import IntegratorConfig, integrate_reduced, solve_dopri
from h5geo.elliptic import complete_E
from h5geo.errors import ChartSingularityError, DomainError
from h5geo.heisenberg import (
    GroupElement,
    TangentVector,
    full_rhs,
    horizontality_defect,
    sr_speed,
)
from h5geo.quadrature import (
    RadialSolution,
    geodesic_quadrature,
    reconstruct_ambient,
    rescaled_time,
    tau_of_radius,
    theta1_along,
    theta1_solution,
    theta23_along,
    theta23_variant_audit,
    time_of_radius,
)
from h5geo.reduction import charges_from_state, state_from_charges

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def _all_profiles():
    out = {}
    for tag, c in CASE_CHARGES.items():
        out[tag] = profile_from_charges(c)
    out.update(CASE_PROFILES)
    return out


@pytest.mark.parametrize("tag", ["a", "b", "c", "d", "e", "f", "g"])
def test_tau_matches_quadrature_oracle(tag):
    p = _all_profiles()[tag]
    traj = classify(p)
    if traj.kind is TrajectoryKind.TYPE_II:
        r_lo, r_hi = traj.r1, traj.r2
        radii = np.linspace(r_lo, r_hi, 11)[1:-1]
    else:
        r_lo = traj.r0
        radii = r_lo + np.array([0.05, 0.3, 1.0, 2.5])
    for r in radii:
        expect = tau_oracle(p, float(r))
        got = tau_of_radius(p, float(r))
        assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))


@pytest.mark.parametrize("tag", ["a", "b", "c", "d", "e", "f", "g"])
def test_tau_derivative(tag):
    """Central difference of tau reproduces r sqrt(1+r^2)/sqrt(f(r))."""
    p = _all_profiles()[tag]
    traj = classify(p)
    if traj.kind is TrajectoryKind.TYPE_II:
        pts = np.linspace(traj.r1, traj.r2, 7)[1:-1]
    else:
        pts = traj.r0 + np.array([0.2, 0.7, 1.5])
    eps = 1e-6
    for r in pts:
        fd = (tau_of_radius(p, r + eps) - tau_of_radius(p, r - eps)) / (2.0 * eps)
        expect = r * sqrt(1.0 + r * r) / sqrt(p.f(r))
        assert fd == pytest.approx(expect, rel=1e-6)


def test_tau_domain_error():
    p = profile_from_charges(CASE_CHARGES["f"])
    traj = classify(p)
    with pytest.raises(DomainError):
        tau_of_radius(p, traj.r0 * 0.5)


def test_time_of_radius_signs():
    p = profile_from_charges(CASE_CHARGES["f"])
    traj = classify(p)
    r = traj.r0 + 0.5
    up = time_of_radius(p, r, sign=1, t0=1.0)
    down = time_of_radius(p, r, sign=-1, t0=1.0)
    assert up > 1.0 > down
    assert up - 1.0 == pytest.approx(1.0 - down, abs=1e-13)


def _radial_ode_reference(p, r0, t_end, c4=0.5, n=201):
    """Independent 1-d ODE oracle for r(t) on an increasing branch."""
    sigma = sqrt(2.0 * c4)

    def f(t, y):
        r = y[0]
        fr = max(p.f(r), 0.0)
        return np.array([sigma * sqrt(fr) / (r * sqrt(1.0 + r * r))])

    t_eval = np.linspace(0.0, t_end, n)
    res = solve_dopri(f, 0.0, np.array([r0]), t_end, TIGHT, keep_dense=True)
    return t_eval, res.dense(t_eval)[:, 0]


@pytest.mark.parametrize("tag", ["c", "e"])
def test_radial_solution_profile_only_cases(tag):
    """Tags with no charge realization, checked against the radial ODE oracle."""
    p = CASE_PROFILES[tag]
    traj = classify(p)
    r0 = traj.r0 + 0.1
    sol = RadialSolution(p, r0, sign0=1, t0=0.0, c4=0.5)
    tt, rr = _radial_ode_reference(p, r0, 4.0)
    ana = np.array([sol.radius_of_time(t) for t in tt])
    assert np.max(np.abs(ana - rr)) < 1e-6


@pytest.mark.parametrize("tag", ["a", "b", "d", "f", "g"])
def test_radial_solution_vs_reduced_ode(tag):
    """Charge-attainable cases against the full reduced Hamiltonian oracle."""
    hs = case_state(tag)
    c = charges_from_state(hs)
    p = profile_from_charges(c)
    traj = classify(p)
    if traj.kind is TrajectoryKind.TYPE_II:
        sol = RadialSolution(p, hs.r, 1, 0.0, c.c4)
        t_end = 2.0 * sol.period  # two full radial periods
    else:
        t_end = 6.0
    t_eval = np.linspace(0.0, t_end, 301)
    trace = integrate_reduced(hs, (0.0, t_end), TIGHT, t_eval=t_eval)
    sol = RadialSolution(p, hs.r, 1 if hs.pr >= 0 else -1, 0.0, c.c4)
    worst_r = worst_pr = 0.0
    for i, t in enumerate(trace.times):
        worst_r = max(worst_r, abs(sol.radius_of_time(float(t)) - trace.ys[i, 0]))
        worst_pr = max(worst_pr, abs(sol.pr_of_time(float(t)) - trace.ys[i, 4]))
    assert worst_r < 1e-6
    assert worst_pr < 1e-5  # sqrt sensitivity near turning radii


def test_type_ii_period_matches_ode_return_time():
    hs = case_state("g")
    c = charges_from_state(hs)
    p = profile_from_charges(c)
    sol = RadialSolution(p, hs.r, 1, 0.0, c.c4)
    period = sol.period
    trace = integrate_reduced(
        hs, (0.0, 1.5 * period), IntegratorConfig(1e-12, 1e-14, dense_output=True)
    )
    # the radius and its momentum both return after one period
    y_t = trace.dense(period)
    assert abs(y_t[0] - hs.r) < 1e-6
    assert abs(y_t[4] - hs.pr) < 1e-6


def test_radial_solution_fold_and_range():
    hs = case_state("g")
    c = charges_from_state(hs)
    p = profile_from_charges(c)
    traj = classify(p)
    sol = RadialSolution(p, hs.r, 1, 0.0, c.c4)
    tt = np.linspace(-3.0, 3.0, 400)
    rr = sol(tt)
    assert np.all(rr >= traj.r1 - 1e-10)
    assert np.all(rr <= traj.r2 + 1e-10)
    # continuity through the folds
    assert np.max(np.abs(np.diff(rr))) < 0.1


def test_radial_chart_exit_at_r_zero():
    """C_q = 0 Type I reaches r = 0 at a finite backward time and raises beyond it."""
    c = CASE_CHARGES["b"]
    p = profile_from_charges(c)
    sol = RadialSolution(p, 1.0, sign0=1, t0=0.0, c4=c.c4)
    lo, hi = sol.exit_times
    assert lo is not None and lo < 0.0
    assert hi is None
    assert sol.radius_of_time(lo + 1e-9) < 1e-3
    with pytest.raises(ChartSingularityError):
        sol.radius_of_time(lo - 1.0)


def test_theta1_oscillator_against_ode():
    hs = case_state("g")
    c = charges_from_state(hs)
    t_end = 8.0
    t_eval = np.linspace(0.0, t_end, 201)
    trace = integrate_reduced(hs, (0.0, t_end), TIGHT, t_eval=t_eval)
    p = profile_from_charges(c)
    sol = RadialSolution(p, hs.r, 1 if hs.pr >= 0 else -1, 0.0, c.c4)
    th1, pth1 = theta1_along(
        c, trace.times, hs.th1, 1 if hs.pth1 >= 0 else -1, sol=sol
    )
    assert np.max(np.abs(th1 - trace.ys[:, 1])) < 1e-6
    assert np.max(np.abs(pth1 - trace.ys[:, 5])) < 1e-5


def test_theta1_constant_when_k_vanishes():
    c = CASE_CHARGES["b"]  # c1 = c2 = c3 = 0 -> K = 0
    osc = theta1_solution(c, pi / 4.0, 1)
    assert osc.constant
    assert osc.theta1(3.7) == pytest.approx(pi / 4.0, abs=1e-14)
    assert osc.pth1(3.7) == 0.0


def test_rescaled_time_against_ode():
    hs = case_state("f")
    c = charges_from_state(hs)
    p = profile_from_charges(c)
    sol = RadialSolution(p, hs.r, 1 if hs.pr >= 0 else -1, 0.0, c.c4)
    times = np.linspace(0.0, 5.0, 41)

    def f(t, y):
        return np.array([1.0 / sol.radius_of_time(float(t)) ** 2])

    res = solve_dopri(f, 0.0, np.array([0.0]), 5.0, TIGHT, keep_dense=True)
    expect = res.dense(times)[:, 0]
    got = rescaled_time(sol, times)
    assert np.max(np.abs(got - expect)) < 1e-9


def test_theta23_along_against_ode():
    hs = case_state("g")
    c = charges_from_state(hs)
    t_eval = np.linspace(0.0, 8.0, 201)
    trace = integrate_reduced(hs, (0.0, 8.0), TIGHT, t_eval=t_eval)
    p = profile_from_charges(c)
    sol = RadialSolution(p, hs.r, 1 if hs.pr >= 0 else -1, 0.0, c.c4)
    osc = theta1_solution(c, hs.th1, 1 if hs.pth1 >= 0 else -1)
    th2, th3 = theta23_along(c, trace.times, hs.th2, hs.th3, sol=sol, osc=osc)
    assert np.max(np.abs(th2 - trace.ys[:, 2])) < 1e-6
    assert np.max(np.abs(th3 - trace.ys[:, 3])) < 1e-6


def test_theta23_variant_audit_selects_substituted():
    hs = case_state("g")
    c = charges_from_state(hs)
    # the audit integrates on the caller's grid, so it must be fine enough for
    # composite Simpson to resolve the c0 = 4 angular rates
    t_eval = np.linspace(0.0, 10.0, 2001)
    trace = integrate_reduced(hs, (0.0, 10.0), TIGHT, t_eval=t_eval)
    audit = theta23_variant_audit(
        c,
        trace.times,
        trace.ys[:, 0],
        trace.ys[:, 1],
        trace.ys[:, 2],
        trace.ys[:, 3],
    )
    sub = max(audit["substituted"].values())
    others = min(
        min(audit["bare-c0"].values()), min(audit["no-c0"].values())
    )
    assert sub < 1e-5
    assert others > 1e-2
    assert others / max(sub, 1e-300) > 1e3


@pytest.mark.parametrize("tag", ["a", "d", "f", "g"])
def test_geodesic_quadrature_full_pipeline(tag):
    hs = case_state(tag)
    c = charges_from_state(hs)
    t_grid = np.linspace(0.0, 6.0, 121)
    ana = geodesic_quadrature(c, hs, t_grid)
    trace = integrate_reduced(hs, (0.0, 6.0), TIGHT, t_eval=ana.times)
    assert np.max(np.abs(ana.ys[:, :4] - trace.ys[:, :4])) < 1e-6
    # conserved charges are exactly constant along the analytic trace
    vals = ana.integral_values()
    assert np.max(np.abs(vals - vals[0])) < 1e-9


def test_geodesic_quadrature_rejects_mismatched_charges():
    hs = case_state("f")
    c = charges_from_state(hs)
    from h5geo.reduction import ConservedCharges

    bad = ConservedCharges(c.c0, c.c1 + 0.1, c.c2, c.c3, c.c4)
    with pytest.raises(DomainError):
        geodesic_quadrature(bad, hs, np.linspace(0.0, 1.0, 11))


def test_geodesic_quadrature_truncates_at_chart_exit():
    c = CASE_CHARGES["b"]
    # inward motion with C_q = 0 reaches r = 0 at a finite forward time; the
    # initial state is anchored at the first grid point
    hs = state_from_charges(c, 1.0, sign_pr=-1)
    assert hs.pr < 0.0
    t_grid = np.linspace(0.0, 5.0, 51)
    ana = geodesic_quadrature(c, hs, t_grid)
    assert ana.exit_reason == "chart-exit:r"
    assert ana.times[-1] < 5.0


def test_reconstruct_ambient_horizontality_and_speed():
    hs = case_state("g")
    c = charges_from_state(hs)
    t_grid = np.linspace(0.0, 6.0, 181)
    ana = geodesic_quadrature(c, hs, t_grid)
    amb = reconstruct_ambient(ana, z0=0.0)
    worst_defect = worst_speed = 0.0
    for row in amb.ys:
        q = GroupElement(*row[:5])
        from h5geo.heisenberg import CotangentState

        vel = full_rhs(CotangentState(q, tuple(row[5:10])))[:5]
        v = TangentVector(*vel)
        worst_defect = max(worst_defect, abs(horizontality_defect(q, v)))
        speed = sr_speed(q, v)
        worst_speed = max(worst_speed, abs(speed - sqrt(2.0 * c.c4)))
    assert worst_defect < 1e-7
    assert worst_speed < 1e-7


def test_reconstructed_z_matches_full_ode():
    hs = case_state("f")
    c = charges_from_state(hs)
    t_grid = np.linspace(0.0, 4.0, 161)
    ana = geodesic_quadrature(c, hs, t_grid)
    amb = reconstruct_ambient(ana, z0=0.0)
    from h5geo.dynamics import integrate_full
    from h5geo.heisenberg import CotangentState
    from h5geo.reduction import from_reduced, hyper_to_cart

    full0 = from_reduced(hyper_to_cart(hs), z=0.0)
    ref = integrate_full(full0, (0.0, 4.0), TIGHT, t_eval=t_grid)
    assert np.max(np.abs(amb.ys - ref.ys)) < 1e-6


# ---------------------------------------------------------------------------
# the array radial solve against the former scalar inversion
# ---------------------------------------------------------------------------

_BRENTQ_KW = dict(xtol=1e-13, rtol=8.9e-16)


def _scalar_radius(sol, t):
    """Oracle: fold one time and invert tau(r) by brentq on r, one sample at a time.

    This is the inversion the radial layer used before the array solve, run
    on the same amplitude-form tau (through tau_of_radius).
    """
    p = sol.profile
    psi = sol.psi0 + sol.sigma * (t - sol.t0)
    if sol.r_hi < inf:
        m = fmod(psi, 2.0 * sol.tau_hi)
        if m < 0.0:
            m += 2.0 * sol.tau_hi
        if m > sol.tau_hi:
            m = 2.0 * sol.tau_hi - m
    else:
        m = abs(psi)
    if m <= 0.0:
        return sol.r_lo
    if sol.r_hi < inf:
        if m >= sol.tau_hi:
            return sol.r_hi
        lo, hi = sol.r_lo, sol.r_hi
    else:
        lo, hi = sol.r_lo, max(2.0 * sol.r_lo, 1.0)
        while tau_of_radius(p, hi) < m:
            lo, hi = hi, 2.0 * hi
    return brentq(lambda r: tau_of_radius(p, r) - m, lo, hi, **_BRENTQ_KW)


def _radial_setup(tag, sign=1):
    """(profile, r0, c4) for every tag; c and e have no charge realization."""
    if tag in CASE_PROFILES:
        p = CASE_PROFILES[tag]
        return p, classify(p).r0 + 0.1, 0.5
    hs = case_state(tag, sign_pr=sign)
    c = charges_from_state(hs)
    return profile_from_charges(c), hs.r, c.c4


def _assert_matches_oracle(sol, times, r):
    ref = np.array([_scalar_radius(sol, float(t)) for t in times])
    assert np.all(np.abs(r - ref) <= 1e-12 * np.maximum(1.0, ref))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("tag", ["a", "b", "c", "d", "e", "f", "g"])
def test_array_radius_matches_scalar_oracle(tag, sign):
    """Type II over 3+ periods either way; Type I out to r >= 1e3 and through its fold."""
    p, r0, c4 = _radial_setup(tag, sign)
    sol = RadialSolution(p, r0, sign, 0.0, c4)
    if sol.traj.kind is TrajectoryKind.TYPE_II:
        t_end = 3.5 * sol.period
    else:  # until r = 2e3 on the outward branch
        t_end = (tau_of_radius(p, 2e3) + tau_of_radius(p, r0)) / sol.sigma
    lo, hi = sol.exit_times
    t_lo = lo + 1e-3 if lo is not None else -t_end
    t_hi = hi - 1e-3 if hi is not None else t_end
    times = np.concatenate([np.linspace(t_lo, t_hi, 300), [0.0]])
    r = sol.radius_of_time(times)
    assert r.shape == times.shape
    if sol.traj.kind is TrajectoryKind.TYPE_I and hi is None:
        assert r.max() >= 1e3
    _assert_matches_oracle(sol, times, r)
    assert abs(r[-1] - r0) <= 1e-12 * max(1.0, r0)
    # the scalar call is the one-sample array call
    assert sol.radius_of_time(float(times[7])) == r[7]
    assert isinstance(sol.radius_of_time(float(times[7])), float)


def test_array_radius_at_chart_exit_truncation():
    """geodesic_quadrature truncates an inward C_q = 0 orbit at r = 0; r matches the oracle."""
    c = CASE_CHARGES["b"]
    hs = state_from_charges(c, 1.0, sign_pr=-1)
    ana = geodesic_quadrature(c, hs, np.linspace(0.0, 5.0, 51))
    assert ana.exit_reason == "chart-exit:r"
    sol = RadialSolution(profile_from_charges(c), hs.r, -1, 0.0, c.c4)
    assert ana.times[-1] < sol.exit_times[1]
    _assert_matches_oracle(sol, ana.times, ana.ys[:, 0])
    assert ana.ys[-1, 0] < 0.1


@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("tag", ["b", "f", "g"])
def test_geodesic_quadrature_on_one_and_two_samples(tag, samples):
    hs = case_state(tag)
    c = charges_from_state(hs)
    grid = np.linspace(0.3, 1.7, samples)
    # the initial state is anchored at the first grid time
    ana = geodesic_quadrature(c, hs, grid)
    assert ana.ys.shape == (samples, 8)
    assert ana.ys[0, 0] == pytest.approx(hs.r, abs=1e-12)
    assert ana.ys[0, 4] == pytest.approx(hs.pr, abs=1e-9)
    assert tuple(ana.ys[0, 1:4]) == pytest.approx((hs.th1, hs.th2, hs.th3), abs=1e-12)
    sol = RadialSolution(profile_from_charges(c), hs.r, 1 if hs.pr >= 0 else -1, 0.3, c.c4)
    _assert_matches_oracle(sol, grid, ana.ys[:, 0])
    assert np.array_equal(sol.radius_of_time(grid), ana.ys[:, 0])


def _tau_mpmath(p, r):
    """tau(r) = integral of x sqrt(1+x^2)/sqrt(f(x)) from r_lo, by mpmath quadrature.

    The roots of f come from the profile's coefficients at 30 digits; a simple
    root at r_lo is regularized by x = r_lo + u^2, with f factored so that no
    cancellation occurs near it.
    """
    with mp.workdps(30):
        a, b, cq = mp.mpf(p.a), mp.mpf(p.b), mp.mpf(p.c_q)
        r = mp.mpf(r)
        if p.tag in (CaseTag.B_SUB_UNIT_A_C_ZERO, CaseTag.C_SUPER_UNIT_A_C_ZERO):
            return mp.quad(lambda x: mp.sqrt(1 + x * x) / mp.sqrt(a * x * x + b), [0, r])
        if p.tag is CaseTag.A_ZERO:
            s_lo = -cq / b
            rest = lambda x: b  # noqa: E731
        else:
            sq = mp.sqrt(b * b - 4 * a * cq)
            roots = sorted([(-b - sq) / (2 * a), (-b + sq) / (2 * a)])
            # r_lo^2 is the larger root outside (Type I), the smaller inside (tag g)
            s_lo, s_other = roots if p.tag is CaseTag.G_NEGATIVE_A else roots[::-1]
            rest = lambda x: a * (x * x - s_other)  # noqa: E731
        rho = mp.sqrt(s_lo)

        def integrand(u):
            x = rho + u * u
            return 2 * x * mp.sqrt(1 + x * x) / mp.sqrt((2 * rho + u * u) * rest(x))

        return mp.quad(integrand, [0, mp.sqrt(r - rho)])


@pytest.mark.parametrize("tag", ["a", "b", "c", "d", "e", "f", "g"])
def test_amplitude_tau_matches_mpmath(tag):
    p = _all_profiles()[tag]
    traj = classify(p)
    if traj.kind is TrajectoryKind.TYPE_II:
        radii = np.linspace(traj.r1, traj.r2, 9)[1:-1]
    else:
        radii = traj.r0 + np.array([0.05, 0.3, 1.0, 2.5, 40.0, 1e3])
    for r in radii:
        expect = _tau_mpmath(p, float(r))
        got = tau_of_radius(p, float(r))
        assert abs(got - float(expect)) <= 1e-13 * abs(float(expect))


def _period_mpmath(p, c4):
    """2 pref E(k)/sigma for tag g at 30 digits, from the profile's roots."""
    with mp.workdps(30):
        b2 = mp.mpf(p.beta_sq)
        al2 = mp.mpf(p.alpha) ** 2
        pref = mp.sqrt((b2 + 1) / -mp.mpf(p.a))
        return float(2 * pref * mp.ellipe((b2 - al2) / (b2 + 1)) / mp.sqrt(2 * mp.mpf(c4)))


def test_type_ii_period_matches_complete_integral():
    rng = np.random.default_rng(11)
    charge_sets = [CASE_CHARGES["g"]]
    while len(charge_sets) < 8:
        c = charges_from_state(random_hyper_state(rng, c0=rng.uniform(2.2, 4.0)))
        p = profile_from_charges(c)
        if p.tag is CaseTag.G_NEGATIVE_A:
            charge_sets.append(c)
    for c in charge_sets:
        p = profile_from_charges(c)
        traj = classify(p)
        sol = RadialSolution(p, 0.5 * (traj.r1 + traj.r2), 1, 0.0, c.c4)
        expect = _period_mpmath(p, c.c4)
        assert abs(sol.period - expect) <= 1e-13 * expect
