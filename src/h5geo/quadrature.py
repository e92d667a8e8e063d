"""Closed-form solution pipeline: r(t) by elliptic quadrature, theta angles, ambient lift.

The radial map t(r) is assembled per case tag from an antiderivative tau(r)
with tau'(r) = r sqrt(1+r^2)/sqrt(f(r)), normalized so tau(r_lo) = 0 at the
inner admissible radius; physical time is t = t0 +- (tau(r) - tau(r0))/sigma
with sigma = sqrt(2 C4).  Every case formula below was re-derived by
differentiation against tau'; where the derivation disagrees with the printed
source (moduli of cases b, c, e, g) the derived form is used and the
discrepancy is documented in the project notes.

tau is written in amplitude form: as a function of a coordinate x of the
monotone branch that is 0 at r_lo, with r(x) and x(r) algebraic.  x is the
Jacobi amplitude phi on the Type II branch (tag g), w = tan(phi) or cot(phi)
on the Type I elliptic branches (tags b, c, e, f) and an elementary
substitution for tags a and d.  For the elliptic tags tau is a combination of
F(phi, k), E(phi, k) and elementary functions of phi; F and E share one
Carlson R_F and one R_D (DLMF 19.25.5, 19.25.9), so no Jacobi function is
ever evaluated.  The turning radii map to exactly x = 0 and phi = pi/2, so
tau_hi and the radial period come from complete integrals.

RadialSolution folds a whole array of times into [0, tau_hi] at once and
solves tau(x) = target for every sample in one vectorised Newton iteration
kept inside a shrinking bracket; dtau/dx is positive and bounded on each
branch, so the iteration converges in a handful of steps.  p_r follows from
the solved r in closed form.

theta1 admits an exact solution: v = sin^2(theta1) satisfies a quadratic
oscillator in the rescaled time s(t) = integral dt/r^2, so
v = v1 + (v2 - v1) sin^2(phi0 + sqrt(K) s) with K = C1 + (C2+C3)^2 and
v1 <= v2 the roots of Q(v) = -K v^2 + (K - C2^2 + C3^2) v - C3^2.  s(t),
theta2 and theta3 are composite Simpson quadratures on the caller's grid
refined 8-fold, shared by geodesic_quadrature, rescaled_time and
theta23_along.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, copysign, inf, pi, sin, sqrt
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.special import elliprd, elliprf

# The radial layer no longer calls brentq or the elliptic helpers below; they
# stay bound here because perfbench/tracer.py wraps these module attributes.
from scipy.optimize import brentq  # noqa: F401

from .classify import (
    CaseTag,
    QuarticProfile,
    TrajectoryKind,
    case_tag,
    classify,
    profile_from_charges,
)
from .elliptic import invert_ratio, jacobi_E, jacobi_sncndn  # noqa: F401
from .errors import (
    ChartSingularityError,
    DomainError,
    FeasibilityError,
    InvariantError,
)
from .heisenberg import full_rhs
from .reduction import (
    ConservedCharges,
    HypersphericalState,
    charges_from_state,
    from_reduced,
    hyper_to_cart,
)
from .trace import AmbientTrace, GeodesicTrace

_CHARGE_MATCH_TOL = 1e-9
_NEWTON_MAX = 60  # bisection alone reaches one ulp of pi/2 in 53 steps
_NEWTON_TOL = 1e-9  # last Newton step size (relative to max(1, x)) before the final step


# ---------------------------------------------------------------------------
# antiderivatives tau in amplitude form, one per case tag
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TauForm:
    """tau on one monotone branch in a coordinate x that is 0 at r_lo.

    `tau(x)` returns (tau, dtau/dx) for an array x; `radius` and `coord` map
    x to r and back.  `x_hi` is the coordinate of r_hi (pi/2 on a Type II
    branch, inf on a Type I one) and `slope_min` a positive lower bound of
    dtau/dx, which brackets the solve on an unbounded branch.
    """

    tau: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    radius: Callable[[np.ndarray], np.ndarray]
    coord: Callable[[np.ndarray], np.ndarray]
    x_hi: float
    slope_min: float


def _carlson_fe(s, c2, d2, k2):
    """F(phi, k) and E(phi, k) from sin phi, cos^2 phi and Delta^2 = 1 - k^2 sin^2 phi."""
    f = s * elliprf(c2, d2, 1.0)
    return f, f - k2 / 3.0 * s ** 3 * elliprd(c2, d2, 1.0)


def _exterior(al: float, lam: float):
    """(radius, coord) of a Type I branch parametrized by r^2 = al^2 + lam w^2."""
    al2 = al * al

    def radius(w):
        return np.sqrt(al2 + lam * w * w)

    def coord(r):
        return np.sqrt(np.maximum((r - al) * (r + al), 0.0) / lam)

    return radius, coord


def _tan_amplitude(w):
    """sin phi and cos^2 phi for w = tan phi, without cancellation for large w."""
    c2 = 1.0 / (1.0 + w * w)
    return w * np.sqrt(c2), c2


def _tau_case_a(p: QuarticProfile) -> _TauForm:
    # A = 0: r^2 = a + (1+a) sinh^2 psi with a = alpha^2; x = w = sinh psi
    al = p.alpha
    scale = (1.0 + al * al) / sqrt(p.b)

    def tau(w):
        q = np.sqrt(1.0 + w * w)
        return 0.5 * scale * (w * q + np.arcsinh(w)), scale * q

    return _TauForm(tau, *_exterior(al, 1.0 + al * al), inf, scale)


def _tau_tan(al: float, kc2: float, k2: float, pref: float) -> _TauForm:
    """tau = pref (k'^2 F - E + dn tan phi) with w = tan phi, r^2 = al^2 + (al^2+1) w^2."""

    def tau(w):
        s, c2 = _tan_amplitude(w)
        d2 = (1.0 + kc2 * w * w) * c2
        f, e = _carlson_fe(s, c2, d2, k2)
        dn = np.sqrt(d2)
        return pref * (kc2 * f - e + dn * w), pref * kc2 / dn

    return _TauForm(tau, *_exterior(al, al * al + 1.0), inf, pref * kc2)


def _tau_case_b(p: QuarticProfile) -> _TauForm:
    # 0 < A < 1, C_q = 0: tau = F + (dn sc - E)/A with sc = tan phi = r, k^2 = 1 - A
    return _tau_tan(0.0, p.a, 1.0 - p.a, 1.0 / p.a)


def _tau_case_c(p: QuarticProfile) -> _TauForm:
    # A > 1, C_q = 0: tau = (F + dn sc - E)/sqrt(A) with tan phi = sqrt(A) r, k^2 = 1 - 1/A
    a = p.a
    sqa = sqrt(a)
    kc2 = 1.0 / a

    def tau(w):
        s, c2 = _tan_amplitude(w)
        d2 = (1.0 + kc2 * w * w) * c2
        f, e = _carlson_fe(s, c2, d2, 1.0 - kc2)
        dn = np.sqrt(d2)
        return (f + dn * w - e) / sqa, dn / sqa

    return _TauForm(tau, *_exterior(0.0, kc2), inf, kc2)


def _tau_case_d(p: QuarticProfile) -> _TauForm:
    # beta^2 = 1: tau = sqrt((r^2 - alpha^2)/A) is linear in w
    al = p.alpha
    slope = sqrt((al * al + 1.0) / p.a)

    def tau(w):
        return slope * w, np.full_like(w, slope)

    return _TauForm(tau, *_exterior(al, al * al + 1.0), inf, slope)


def _tau_case_e(p: QuarticProfile) -> _TauForm:
    # A > 0, C_q < 0, beta^2 < 1: ns u = sqrt((r^2+1)/(alpha^2+1)), so w = cot phi,
    # k^2 = (1 - beta^2)/(alpha^2 + 1).  tau = pref (dn cs - F + E) - its value at
    # phi = pi/2; the addition theorem (tan phi tan psi = 1/k') turns K - F(phi)
    # and E(k) - E(phi) into terms of psi, which leaves a sum of positive terms:
    # tau = pref (w sqrt(1+w^2)/sqrt(k'^2+w^2) + k^2/3 sin^3 psi R_D(cos^2 psi, dn^2 psi, 1))
    al = p.alpha
    al2p1 = al * al + 1.0
    k2 = (1.0 - p.beta_sq) / al2p1
    kc2 = (al * al + p.beta_sq) / al2p1
    pref = sqrt(al2p1 / p.a)

    def tau(w):
        w2 = w * w
        g = kc2 + w2
        ratio = np.sqrt((1.0 + w2) / g)
        s_psi = w / np.sqrt(g)
        rd = elliprd(kc2 / g, kc2 * (1.0 + w2) / g, 1.0)
        return pref * (w * ratio + k2 / 3.0 * s_psi ** 3 * rd), pref * ratio

    return _TauForm(tau, *_exterior(al, al2p1), inf, pref)


def _tau_case_f(p: QuarticProfile) -> _TauForm:
    # A > 0, C_q < 0, beta^2 > 1: nc u = sqrt((r^2+1)/(alpha^2+1)), so w = tan phi,
    # k'^2 = (alpha^2+1)/(alpha^2+beta^2); tau = pref (k'^2 F - E + dn sc)
    al = p.alpha
    denom = al * al + p.beta_sq
    return _tau_tan(al, (al * al + 1.0) / denom, (p.beta_sq - 1.0) / denom, sqrt(denom / p.a))


def _tau_case_g(p: QuarticProfile) -> _TauForm:
    # A < 0, four real roots: nd u = sqrt((r^2+1)/(alpha^2+1)), x = phi in [0, pi/2],
    # k^2 = (beta^2 - alpha^2)/(beta^2 + 1); tau = pref (E - k^2 sn cd)
    al = p.alpha
    al2 = al * al
    b2p1 = p.beta_sq + 1.0
    r_hi = sqrt(p.beta_sq)
    k2 = (p.beta_sq - al2) / b2p1
    kc2 = (al2 + 1.0) / b2p1
    pref = sqrt(b2p1 / -p.a)

    def tau(phi):
        s, c = np.sin(phi), np.cos(phi)
        d2 = kc2 + k2 * c * c
        _, e = _carlson_fe(s, c * c, d2, k2)
        return pref * (e - k2 * s * c / np.sqrt(d2)), pref * kc2 / d2 ** 1.5

    def radius(phi):
        s = np.sin(phi)
        c = np.cos(phi)
        return np.sqrt((al2 + k2 * s * s) / (kc2 + k2 * c * c))

    def coord(r):
        sn = np.maximum((r - al) * (r + al), 0.0) * b2p1
        cn = np.maximum((r_hi - r) * (r_hi + r), 0.0) * (al2 + 1.0)
        return np.arctan2(np.sqrt(sn), np.sqrt(cn))

    return _TauForm(tau, radius, coord, 0.5 * pi, pref * kc2)


_TAU_BUILDERS = {
    CaseTag.A_ZERO: _tau_case_a,
    CaseTag.B_SUB_UNIT_A_C_ZERO: _tau_case_b,
    CaseTag.C_SUPER_UNIT_A_C_ZERO: _tau_case_c,
    CaseTag.D_BETA_ONE: _tau_case_d,
    CaseTag.E_BETA_SQ_LT_1: _tau_case_e,
    CaseTag.F_BETA_SQ_GT_1: _tau_case_f,
    CaseTag.G_NEGATIVE_A: _tau_case_g,
}


def _admissible_range(p: QuarticProfile) -> tuple[float, float]:
    traj = classify(p)
    if traj.kind is TrajectoryKind.TYPE_II:
        return traj.r1, traj.r2
    return traj.r0, inf


def _tau_at(form: _TauForm, r: float) -> float:
    return float(form.tau(form.coord(np.array([r], dtype=float)))[0][0])


def tau_of_radius(p: QuarticProfile, r: float) -> float:
    """Normalized antiderivative of r sqrt(1+r^2)/sqrt(f): increasing, 0 at r_lo."""
    form = _TAU_BUILDERS[case_tag(p)](p)
    r_lo, r_hi = _admissible_range(p)
    if not r_lo <= r <= r_hi:
        raise DomainError(
            f"radius {r!r} outside the admissible region [{r_lo!r}, {r_hi!r}]"
        )
    return _tau_at(form, r)


def time_of_radius(
    p: QuarticProfile, r: float, sign: int = 1, t0: float = 0.0, c4: float = 0.5
) -> float:
    """Closed-form t(r) on one monotone branch; sign is the sign of dr/dt."""
    sigma = sqrt(2.0 * c4)
    return t0 + (1.0 if sign >= 0 else -1.0) * tau_of_radius(p, r) / sigma


def _solve_tau(form: _TauForm, target: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
    """x with form.tau(x) = target for targets in (0, tau_hi), all at once.

    Newton steps that would leave the bracket [0, x_hi], shrunk by the sign of
    every residual, are replaced by bisection.  A sample whose step falls below
    _NEWTON_TOL takes that last step and leaves the iteration: quadratic
    convergence leaves an error far below one ulp after it, and each sample's
    result does not depend on the other samples solved with it.
    """
    x_out = np.empty_like(target)
    todo = np.arange(target.size)
    lo = np.zeros_like(target)
    hi = x_hi
    _, slope0 = form.tau(lo[:1])
    # start on the side of the root where Newton's iterates then move monotonically
    x = np.minimum(target / slope0[0], hi)
    for _ in range(_NEWTON_MAX):
        val, slope = form.tau(x)
        res = val - target
        lo = np.where(res < 0.0, x, lo)
        hi = np.where(res > 0.0, x, hi)
        x_new = x - res / slope
        done = np.abs(x_new - x) <= _NEWTON_TOL * np.maximum(1.0, x)
        if done.any():
            x_out[todo[done]] = x_new[done]
            more = ~done
            todo, target, lo, hi, x, x_new = (
                v[more] for v in (todo, target, lo, hi, x, x_new)
            )
            if todo.size == 0:
                return x_out
        x = np.where((x_new > lo) & (x_new < hi), x_new, 0.5 * (lo + hi))
    x_out[todo] = x
    return x_out


class RadialSolution:
    """r(t) and p_r(t) anchored at (t0, r0, sign of dr/dt), with branch stitching.

    The phase psi = psi0 + sigma (t - t0) tracks the normalized antiderivative;
    r(t) folds at turning radii (simple roots of f with r > 0).  Reaching the
    chart boundary r = 0 (possible when f(0) = 0) ends the covered time span;
    `exit_times` gives the boundary times (None for no exit on that side).
    `radius_of_time` and `pr_of_time` take a scalar or an array of times.
    """

    def __init__(
        self,
        profile: QuarticProfile,
        r0: float,
        sign0: int = 1,
        t0: float = 0.0,
        c4: float = 0.5,
    ):
        self.profile = profile
        self.tag = case_tag(profile)
        self.traj = classify(profile)
        self.t0 = float(t0)
        self.sigma = sqrt(2.0 * c4)
        self.r_lo, self.r_hi = _admissible_range(profile)
        if not self.r_lo <= r0 <= self.r_hi:
            raise DomainError(
                f"r0 = {r0!r} outside the admissible region [{self.r_lo!r}, {self.r_hi!r}]"
            )
        self._form = _TAU_BUILDERS[self.tag](profile)
        self.type_ii = self.traj.kind is TrajectoryKind.TYPE_II
        self.tau_hi = _tau_at(self._form, self.r_hi) if self.type_ii else inf
        self.fold_lo = self.r_lo > 0.0  # r_lo = 0 is a chart exit, not a turning point
        s0 = 1 if sign0 >= 0 else -1
        tau0 = _tau_at(self._form, r0)
        if self.type_ii:
            # phase runs over [0, 2 tau_hi) per period, descending branch mirrored
            self.psi0 = tau0 if s0 > 0 else 2.0 * self.tau_hi - tau0
        else:
            self.psi0 = s0 * tau0
        self.exit_times = self._exit_times()

    @property
    def period(self) -> float:
        """Radial period of a Type II solution (requires both turning radii > 0)."""
        if not self.type_ii or not self.fold_lo:
            raise DomainError("period is defined only for Type II with r1 > 0")
        return 2.0 * self.tau_hi / self.sigma

    def _exit_times(self) -> tuple[float | None, float | None]:
        if self.fold_lo:
            return (None, None)
        # the boundary r = 0 sits at psi = 0 (and psi = 2 tau_hi for Type II)
        t_cross = self.t0 - self.psi0 / self.sigma
        if self.type_ii:
            # psi0 is folded into [0, 2 tau_hi], so the crossings bracket t0
            t_hi = self.t0 + (2.0 * self.tau_hi - self.psi0) / self.sigma
            return (t_cross, t_hi)
        # Type I: outward motion (psi0 >= 0) exited in the past, inward motion
        # (psi0 < 0) will exit in the future
        return (t_cross, None) if self.psi0 >= 0.0 else (None, t_cross)

    def _fold(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map times to (tau values in [0, tau_hi], signs of dr/dt)."""
        lo, hi = self.exit_times
        if (lo is not None and np.any(t < lo - 1e-12)) or (
            hi is not None and np.any(t > hi + 1e-12)
        ):
            raise ChartSingularityError(
                f"a time in [{t.min()!r}, {t.max()!r}] is outside the covered span "
                f"(chart exit at r = 0 between times {lo!r} and {hi!r})"
            )
        psi = self.psi0 + self.sigma * (t - self.t0)
        if not self.type_ii:
            return np.abs(psi), np.copysign(1.0, psi)
        two = 2.0 * self.tau_hi
        m = np.fmod(psi, two)
        m = np.where(m < 0.0, m + two, m)
        rising = m <= self.tau_hi
        return np.where(rising, m, two - m), np.where(rising, 1.0, -1.0)

    def _invert_tau(self, target: np.ndarray) -> np.ndarray:
        r = np.full_like(target, self.r_lo)
        inner = (target > 0.0) & (target < self.tau_hi)
        if self.type_ii:
            r[target >= self.tau_hi] = self.r_hi
        if np.any(inner):
            tg = target[inner]
            if self.type_ii:
                x_hi = np.full_like(tg, self._form.x_hi)
            else:
                x_hi = tg / self._form.slope_min
            r[inner] = self._form.radius(_solve_tau(self._form, tg, x_hi))
        return np.clip(r, self.r_lo, self.r_hi)

    def radius_of_time(self, t):
        tt = np.asarray(t, dtype=float)
        m, _ = self._fold(np.atleast_1d(tt))
        r = self._invert_tau(m)
        return float(r[0]) if tt.ndim == 0 else r.reshape(tt.shape)

    def pr_of_time(self, t, r=None):
        """p_r at the times t; pass r = radius_of_time(t) to reuse a solved radius."""
        tt = np.asarray(t, dtype=float)
        m, sgn = self._fold(np.atleast_1d(tt))
        r = self._invert_tau(m) if r is None else np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r <= 0.0):
            raise ChartSingularityError("p_r is undefined at the chart boundary r = 0")
        fr = np.maximum(self.profile.f(r), 0.0)
        pr = sgn * self.sigma * np.sqrt(fr) / (r * np.sqrt(1.0 + r * r))
        return float(pr[0]) if tt.ndim == 0 else pr.reshape(tt.shape)

    def __call__(self, t):
        return self.radius_of_time(t)


def radius_of_time(sol: RadialSolution, t: float) -> float:
    return sol.radius_of_time(t)


# ---------------------------------------------------------------------------
# exact theta1 oscillator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theta1Solution:
    """v = sin^2(theta1) as an exact oscillator in the rescaled time s.

    The methods take a scalar or an array of s.
    """

    v1: float
    v2: float
    omega: float  # sqrt(K)
    phi0: float
    constant: bool = False  # then v1 = v2 and omega = phi0 = 0, so v(s) = v1

    def v(self, s):
        sn = np.sin(self.phi0 + self.omega * np.asarray(s, dtype=float))
        return self.v1 + (self.v2 - self.v1) * sn * sn

    def theta1(self, s):
        return np.arcsin(np.sqrt(np.clip(self.v(s), 0.0, 1.0)))

    def pth1(self, s):
        """p_theta1 = d(theta1)/ds = +-sqrt((v-v1)(v2-v) K / (v(1-v))), sign of dv/ds.

        The ratios are paired so that a root of Q at the chart boundary (v1 = 0
        or v2 = 1) cancels instead of dividing by zero.
        """
        s = np.asarray(s, dtype=float)
        if self.constant:
            return (0.0 * s)[()]
        phi = self.phi0 + self.omega * s
        v = self.v(s)
        one_mv = 1.0 - v
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(v > 1e-300, (v - self.v1) / v, 1.0 if self.v1 == 0.0 else 0.0)
            t2 = np.where(
                one_mv > 1e-300, (self.v2 - v) / one_mv, 1.0 if self.v2 == 1.0 else 0.0
            )
        mag = self.omega * np.sqrt(np.maximum(t1 * t2, 0.0))
        s2 = np.sin(2.0 * phi)
        return np.where(s2 != 0.0, np.copysign(mag, s2), mag)[()]


def theta1_solution(c: ConservedCharges, th1_0: float, sign1: int = 1) -> Theta1Solution:
    """Fit the oscillator to the initial angle and the sign of p_theta1."""
    k_big = c.c1 + (c.c2 + c.c3) ** 2
    if k_big < -1e-12:
        raise InvariantError(f"K = C1 + (C2+C3)^2 = {k_big!r} < 0")
    v0 = sin(th1_0) ** 2
    if k_big <= 1e-14:
        return Theta1Solution(v0, v0, 0.0, 0.0, constant=True)
    # Q(v) = -K v^2 + (K - C2^2 + C3^2) v - C3^2, roots v1 <= v2 in [0, 1]
    bq = k_big - c.c2 * c.c2 + c.c3 * c.c3
    cq = c.c3 * c.c3
    disc = bq * bq - 4.0 * k_big * cq
    if disc < 0.0:
        if disc < -1e-10 * max(bq * bq, 1.0):
            raise FeasibilityError("theta1 oscillator has no real turning values")
        disc = 0.0
    sq = sqrt(disc)
    # roots of K v^2 - bq v + cq by the cancellation-free formula
    q = 0.5 * (bq + copysign(sq, bq)) if bq != 0.0 else 0.5 * sq
    if q == 0.0:
        v1 = v2 = 0.0
    else:
        v1, v2 = sorted((q / k_big, cq / q))
    v1 = min(max(v1, 0.0), 1.0)
    v2 = min(max(v2, 0.0), 1.0)
    if v2 - v1 < 1e-14:
        return Theta1Solution(v0, v0, 0.0, 0.0, constant=True)
    ratio = (v0 - v1) / (v2 - v1)
    if not -1e-9 <= ratio <= 1.0 + 1e-9:
        raise FeasibilityError(
            f"initial theta1 = {th1_0!r} is outside the oscillator range "
            f"[asin sqrt {v1!r}, asin sqrt {v2!r}]"
        )
    phi0 = asin(sqrt(min(max(ratio, 0.0), 1.0)))
    if sign1 < 0:
        phi0 = -phi0  # descending start: sin(2 phi0) < 0
    return Theta1Solution(v1, v2, sqrt(k_big), phi0)


# ---------------------------------------------------------------------------
# angle quadratures
# ---------------------------------------------------------------------------


def _refine_grid(times: np.ndarray, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """Split every interval into `refine` parts; also return indices of the originals."""
    if times.size == 1:
        return times.copy(), np.array([0])
    # the points np.linspace(times[i], times[i + 1], refine + 1)[1:] gives, for all i
    step = np.diff(times) / refine
    tails = times[:-1, None] + np.arange(1, refine + 1) * step[:, None]
    tails[:, -1] = times[1:]
    fine = np.concatenate([times[:1], tails.ravel()])
    return fine, np.arange(0, fine.size, refine)


def _refined_quadrature(
    sol: RadialSolution,
    times: np.ndarray,
    refine: int = 8,
    c: ConservedCharges | None = None,
    osc: Theta1Solution | None = None,
):
    """r, s and the theta2/theta3 increments from times[0], sampled on the grid.

    r is solved on the grid refined `refine`-fold, where composite Simpson
    integrates 1/r^2 to the rescaled time s and, given the charges and the
    theta1 oscillator, the theta2/theta3 rates; r(t) is smooth through turning
    points, so the rule converges at full order.  Without (c, osc) the angle
    increments are None.
    """
    if times.size == 1:
        zero = np.zeros(1)
        return sol.radius_of_time(times), zero, zero, zero
    fine, idx = _refine_grid(times, refine)
    r = sol.radius_of_time(fine)
    s = cumulative_simpson(1.0 / r ** 2, x=fine, initial=0.0)
    if osc is None:
        return r[idx], s[idx], None, None
    d2, d3 = _theta23_rates(c, r, osc.v(s))
    th2 = cumulative_simpson(d2, x=fine, initial=0.0)
    th3 = cumulative_simpson(d3, x=fine, initial=0.0)
    return r[idx], s[idx], th2[idx], th3[idx]


def rescaled_time(
    sol: RadialSolution, times: np.ndarray, refine: int = 8
) -> np.ndarray:
    """s(t) = integral dt'/r(t')^2 from times[0], sampled on the grid.

    Computed by composite Simpson on the grid refined `refine`-fold.
    """
    return _refined_quadrature(sol, np.asarray(times, dtype=float), refine)[1]


def theta1_along(
    c: ConservedCharges,
    times: np.ndarray,
    th1_0: float,
    sign1: int = 1,
    s_vals: np.ndarray | None = None,
    sol: RadialSolution | None = None,
    r_path: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta1, p_theta1) sampled on the grid, via the exact oscillator.

    The rescaled time may be given directly (s_vals), computed from a radial
    solution (sol), or approximated from a sampled radius path (r_path).
    """
    times = np.asarray(times, dtype=float)
    if s_vals is None:
        if sol is not None:
            s_vals = rescaled_time(sol, times)
        elif r_path is not None:
            s_vals = cumulative_simpson(
                1.0 / np.asarray(r_path, dtype=float) ** 2, x=times, initial=0.0
            )
        else:
            raise DomainError("theta1_along needs one of s_vals, sol, r_path")
    osc = theta1_solution(c, th1_0, sign1)
    return osc.theta1(s_vals), osc.pth1(s_vals)


def _theta23_rates(c: ConservedCharges, r, v):
    """(d theta2/dt, d theta3/dt) from the conserved charges, for scalars or arrays.

    This is the charge-substituted form of the reduced Hamilton equations:
    theta2' = C2/(r^2 cos^2 th1) - (C2 + C3 + C0/2)/(1 + r^2), symmetrically
    for theta3 (see theta23_variant_audit for the printed alternatives).
    """
    r2 = r * r
    common = (c.c2 + c.c3 + 0.5 * c.c0) / (1.0 + r2)
    d2 = c.c2 / (r2 * (1.0 - v)) - common
    d3 = c.c3 / (r2 * v) - common
    return d2, d3


def theta23_along(
    c: ConservedCharges,
    times: np.ndarray,
    th2_0: float,
    th3_0: float,
    sol: RadialSolution | None = None,
    osc: Theta1Solution | None = None,
    r_path: np.ndarray | None = None,
    th1_path: np.ndarray | None = None,
    refine: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta2, theta3) sampled on the grid by quadrature of the charge rates.

    Either the analytic objects (sol, osc) or sampled paths (r_path, th1_path)
    must be supplied; the analytic route uses composite Simpson on a refined
    grid, the sampled route composite Simpson on the given grid.
    """
    times = np.asarray(times, dtype=float)
    if sol is not None and osc is not None:
        _, _, th2, th3 = _refined_quadrature(sol, times, refine, c, osc)
        return th2_0 + th2, th3_0 + th3
    if r_path is None or th1_path is None:
        raise DomainError("theta23_along needs (sol, osc) or (r_path, th1_path)")
    v_path = np.sin(np.asarray(th1_path, dtype=float)) ** 2
    d2, d3 = _theta23_rates(c, np.asarray(r_path, dtype=float), v_path)
    th2 = cumulative_simpson(d2, x=times, initial=0.0)
    th3 = cumulative_simpson(d3, x=times, initial=0.0)
    return th2_0 + th2, th3_0 + th3


def theta23_variant_audit(
    c: ConservedCharges,
    times: np.ndarray,
    r_path: np.ndarray,
    th1_path: np.ndarray,
    th2_path: np.ndarray,
    th3_path: np.ndarray,
) -> dict[str, dict[str, float]]:
    """Sup-norm error of the three printed theta2'/theta3' variants vs a reference path.

    variants (theta2 shown; theta3 is symmetric in C3, sin^2):
      bare-c0:        C2/(r^2 cos^2 th1) - (C2+C3)/(1+r^2) - C0
      no-c0:          C2/(r^2 cos^2 th1) - (C2+C3)/(1+r^2)
      substituted:    C2/(r^2 cos^2 th1) - (C2+C3+C0/2)/(1+r^2)
    The reference path normally comes from the ODE oracle.
    """
    times = np.asarray(times, dtype=float)
    r = np.asarray(r_path, dtype=float)
    v = np.sin(np.asarray(th1_path, dtype=float)) ** 2
    r2 = r * r
    base2 = c.c2 / (r2 * (1.0 - v))
    base3 = c.c3 / (r2 * v)
    psum = (c.c2 + c.c3) / (1.0 + r2)
    variants = {
        "bare-c0": (base2 - psum - c.c0, base3 - psum - c.c0),
        "no-c0": (base2 - psum, base3 - psum),
        "substituted": (
            base2 - psum - 0.5 * c.c0 / (1.0 + r2),
            base3 - psum - 0.5 * c.c0 / (1.0 + r2),
        ),
    }
    out = {}
    for name, (d2, d3) in variants.items():
        th2 = th2_path[0] + cumulative_simpson(d2, x=times, initial=0.0)
        th3 = th3_path[0] + cumulative_simpson(d3, x=times, initial=0.0)
        out[name] = {
            "theta2_sup_err": float(np.max(np.abs(th2 - th2_path))),
            "theta3_sup_err": float(np.max(np.abs(th3 - th3_path))),
        }
    return out


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def geodesic_quadrature(
    c: ConservedCharges, init: HypersphericalState, t_grid
) -> GeodesicTrace:
    """Analytic trace on the caller's grid: r(t), theta1, theta2, theta3 + momenta."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise DomainError("t_grid must be a nonempty 1-d increasing array")
    extracted = charges_from_state(init)
    mismatch = max(
        abs(extracted.c0 - c.c0),
        abs(extracted.c1 - c.c1),
        abs(extracted.c2 - c.c2),
        abs(extracted.c3 - c.c3),
        abs(extracted.c4 - c.c4),
    )
    if mismatch > _CHARGE_MATCH_TOL:
        raise DomainError(
            f"initial state disagrees with the charges (max deviation {mismatch!r})"
        )

    profile = profile_from_charges(c)
    sign0 = 1 if init.pr >= 0.0 else -1
    sol = RadialSolution(profile, init.r, sign0, t0=float(t_grid[0]), c4=c.c4)

    # truncate the grid at a chart exit (r -> 0) if one occurs inside it
    exit_reason = None
    lo, hi = sol.exit_times
    keep = np.ones(t_grid.size, dtype=bool)
    if hi is not None:
        keep &= t_grid < hi - 1e-12
    if lo is not None:
        keep &= t_grid > lo + 1e-12
    if not np.all(keep):
        exit_reason = "chart-exit:r"
    times = t_grid[keep]
    if times.size == 0:
        raise ChartSingularityError("no grid time lies inside the covered span")

    sign1 = 1 if init.pth1 >= 0.0 else -1
    osc = theta1_solution(c, init.th1, sign1)
    r_vals, s_vals, th2, th3 = _refined_quadrature(sol, times, 8, c, osc)
    th2 = init.th2 + th2
    th3 = init.th3 + th3
    pr_vals = sol.pr_of_time(times, r=r_vals)
    th1 = osc.theta1(s_vals)
    pth1 = osc.pth1(s_vals)
    v = np.sin(th1) ** 2
    half_moment = 0.5 * c.c0 * r_vals * r_vals
    pth2 = c.c2 - half_moment * (1.0 - v)
    pth3 = c.c3 - half_moment * v
    ys = np.column_stack([r_vals, th1, th2, th3, pr_vals, pth1, pth2, pth3])
    return GeodesicTrace(
        times,
        ys,
        c.c0,
        diagnostics={
            "pipeline": "quadrature",
            "case": sol.tag.value,
            "trajectory": sol.traj,
            "charges": c,
        },
        exit_reason=exit_reason,
        branch_signs=np.sign(pr_vals),
    )


def reconstruct_ambient(trace: GeodesicTrace, z0: float = 0.0) -> AmbientTrace:
    """Lift a reduced trace to the group: positions, multipliers, and z by quadrature."""
    n = trace.times.size
    reduced = [hyper_to_cart(trace.state(i)) for i in range(n)]
    zdots = np.empty(n)
    rows = np.empty((n, 10))
    for i, rc in enumerate(reduced):
        full = from_reduced(rc, z=0.0)
        rows[i] = full.as_array()
        zdots[i] = full_rhs(full)[4]
    if n > 1:
        z_vals = z0 + cumulative_simpson(zdots, x=trace.times, initial=0.0)
    else:
        z_vals = np.array([z0])
    rows[:, 4] = z_vals
    return AmbientTrace(
        trace.times, rows, diagnostics=dict(trace.diagnostics, lifted=True)
    )
