"""Seeded inputs, timed operations and output checks of the three workloads.

Every input is an orbit: a case tag, its conserved charges and a reduced
initial state.  Orbits come from a lazy stream seeded by the benchmark's
``--seed``; the program under test only ever sees the generated values.

Checks run outside the timed region and reuse bounds the repository already
documents.  A check falls in one of two classes:

* hard: an exception, an exit code other than the one the benchmark's own
  oracle predicts, CLI output that does not round-trip the library result, r
  off the ODE oracle by more than validate's 1e-6 (in ode_ensemble: off the
  closed form by more than 1e-6 per RADIAL_SPAN of time), an angle off the
  oracle by more than its error budget (below), a first integral off its value
  at the input state by more than 1e-6, confinement to ``classify``'s radii
  broken by more than criterion 5's 1e-6, or horizontality / unit speed off by
  more than criterion 7's 1e-7;
* accuracy: any of the eight reduced coordinates off the ODE oracle by more
  than validate's 1e-6 (in ode_ensemble: r off the closed form).  The closed
  form integrates theta1..theta3 by Simpson on the caller's grid, so this class
  records the known sample-grid angle error; it is counted in ``failed_frac``
  but not in the hard-failure count.

The angle budget is ANGLE_BUDGET times the error composite Simpson makes when
it integrates the oracle's own angle rates on the caller's grid refined
ANGLE_REFINE-fold (the refinement the closed form uses), with validate's 1e-6
as its floor.  It measures how hard an orbit's angles are to integrate on that
grid, independently of the program: the known Simpson error stays inside it,
while an angle shifted by 1e-3 leaves it on every orbit whose angles Simpson
integrates to better than 5e-6: about 70 % of the orbits on quadrature_dense's
51-sample grid and 16 % on sweep_sparse's 11-sample grid (250 seeded orbits
each), so a run of either holds dozens of ops that catch such a shift.  The momenta are tied to r and theta1 by the
first integrals, which are checked against the input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from decimal import Decimal
from math import sqrt
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_simpson

import h5geo
from h5geo import cli, dynamics, quadrature
from h5geo._core import hyper_rhs
from h5geo.classify import TrajectoryKind, classify, profile_from_charges
from h5geo.dynamics import IntegratorConfig
from h5geo.heisenberg import CotangentState, TangentVector, full_rhs, horizontality_defect, sr_speed
from h5geo.quadrature import RadialSolution
from h5geo.reduction import (
    ConservedCharges,
    HypersphericalState,
    charges_from_state,
    integrals,
    state_from_charges,
)

# validate's oracle settings; the dense interpolant feeds the angle budget
ORACLE = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, dense_output=True)
COORD_TOL = 1e-6  # validate's default --tol
ANGLE_REFINE = 8  # subintervals per grid interval in the angle budget's Simpson rule
# Multiple of that Simpson error an angle may be off by.  Over 4,600 seeded
# orbits on the 51- and 11-sample grids the closed form's angle error reached
# 22 times it (the Simpson error of the rescaled time feeds all three angles),
# and about once it on most orbits.
ANGLE_BUDGET = 200.0
# r off the closed form grows linearly in t (the radial period is off by ~1e-8
# relative on some tag-g orbits), so ode_ensemble's span of 20 allows
# validate's 1e-6 per RADIAL_SPAN of time
RADIAL_SPAN = 10.0
CONFINE_TOL = 1e-6  # acceptance criterion 5
LIFT_TOL = 1e-7  # acceptance criterion 7
TAGS = ("a", "b", "d", "f", "g")  # the charge-attainable case tags
WORKLOADS = ("quadrature_dense", "ode_ensemble", "sweep_sparse")
_DISPATCH = cli._dispatch  # the untraced original, whose default stream the sweep op swaps


@dataclass(frozen=True)
class Orbit:
    tag: str
    charges: ConservedCharges
    state: HypersphericalState

    def to_json(self) -> dict:
        c, s = self.charges, self.state
        return {
            "tag": self.tag,
            "charges": [c.c0, c.c1, c.c2, c.c3, c.c4],
            "state": [*s.as_array().tolist(), s.c0],
        }

    def kind(self) -> str:
        return classify(profile_from_charges(self.charges)).kind.value


# ---------------------------------------------------------------------------
# seeded orbit generation
# ---------------------------------------------------------------------------


class Points:
    """Low-discrepancy points in [0, 1)^10, one per draw, from a seeded generator.

    A Kronecker sequence frac(shift + n alpha) with Roberts' R_d steps
    (alpha_i = phi_d^-i, phi_d the real root of x^(d+1) = x + 1) under a random
    shift: every seed covers the input box evenly from the first few dozen
    draws, so the mix of cheap and costly orbits, and with it the timing
    quantiles, varies little from one seed to the next.
    """

    DIM = 10

    def __init__(self, rng):
        phi = 2.0
        for _ in range(60):  # fixed-point iteration for x = (1 + x)^(1/(d+1))
            phi = (1.0 + phi) ** (1.0 / (self.DIM + 1))
        self._alpha = phi ** -np.arange(1, self.DIM + 1)
        self._x = rng.random(self.DIM)

    def next(self) -> np.ndarray:
        self._x = (self._x + self._alpha) % 1.0
        return self._x


def _lerp(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _sign(u: float) -> float:
    return -1.0 if u < 0.5 else 1.0


def random_chart_state(u) -> HypersphericalState:
    """An open-chart state, uniform on the box acceptance criterion 5 draws from."""
    return HypersphericalState(
        r=_lerp(u[2], 0.5, 2.0),
        th1=_lerp(u[3], 0.3, 1.2),
        th2=_lerp(u[4], -np.pi, np.pi),
        th3=_lerp(u[5], -np.pi, np.pi),
        pr=_lerp(u[6], -1.5, 1.5),
        pth1=_lerp(u[7], -1.5, 1.5),
        pth2=_lerp(u[8], -1.5, 1.5),
        pth3=_lerp(u[9], -1.5, 1.5),
        c0=_lerp(u[0], 0.5, 2.5) * _sign(u[1]),
    )


def _theta1_floor(c2: float, c3: float) -> float:
    # smallest c1 with a real theta1 oscillation: max over theta1 of
    # c2^2/cos^2 + c3^2/sin^2 is (|c2| + |c3|)^2
    return (abs(c2) + abs(c3)) ** 2 - (c2 + c3) ** 2


def _manifold_charges(tag: str, u) -> ConservedCharges | None:
    """Arc-length charges on the defining manifold of tag a, b or d (None: redraw).

    Random chart states only reach tags f and g, so a (A = 0), b (C_q = 0)
    and d (beta^2 = 1) are drawn from their defining charge relations.
    """
    sign = _sign(u[0])
    if tag == "a":  # A = 1 - c0^2/4 = 0
        c2, c3 = _lerp(u[1], -0.5, 0.5), _lerp(u[2], -0.5, 0.5)
        c = ConservedCharges(2.0 * sign, _theta1_floor(c2, c3) + _lerp(u[3], 0.05, 0.5), c2, c3, 0.5)
        return c if 1.0 - c.c1 + (c.c2 + c.c3) * c.c0 > 0.1 else None  # B > 0
    if tag == "b":  # C_q = 0 forces c1 = 0 and, for a real theta1, c2 = c3 = 0
        return ConservedCharges(sign * _lerp(u[1], 0.3, 1.8), 0.0, 0.0, 0.0, 0.5)
    if tag == "d":  # beta^2 = 1 is c2 + c3 = -c0/2
        c0 = sign * _lerp(u[1], 0.3, 1.8)
        c2 = _lerp(u[2], -0.5, 0.5)
        c3 = -0.5 * c0 - c2
        return ConservedCharges(c0, _theta1_floor(c2, c3) + _lerp(u[3], 0.05, 0.5), c2, c3, 0.5)
    raise ValueError(f"tag {tag!r} has no manifold generator")


def _draw_orbit(tag: str, points: Points) -> Orbit:
    while True:  # rejection sampling
        u = points.next()
        if tag in ("f", "g"):
            s = random_chart_state(u)
            c = charges_from_state(s)
            if profile_from_charges(c).tag.value == tag:
                return Orbit(tag, c, s)
            continue
        c = _manifold_charges(tag, u)
        if c is not None:
            break
    traj = classify(profile_from_charges(c))
    r_lo = traj.r0 if traj.kind is TrajectoryKind.TYPE_I else traj.r1
    # r_lo = 0 (tag b) is a chart exit, so start outward there
    sign_pr = 1 if r_lo == 0.0 else int(_sign(u[5]))
    s = state_from_charges(c, r_lo + _lerp(u[4], 0.1, 1.0), sign_pr, int(_sign(u[6])))
    # the cyclic angles leave the charges unchanged
    s = replace(s, th2=_lerp(u[7], -np.pi, np.pi), th3=_lerp(u[8], -np.pi, np.pi))
    if profile_from_charges(c).tag.value != tag:
        raise RuntimeError(f"generator produced tag {profile_from_charges(c).tag.value}, not {tag}")
    return Orbit(tag, c, s)


def orbit_stream(workload: str, seed: int):
    """Endless seeded orbit sequence of a workload; same seed, same orbits."""
    key = [seed, WORKLOADS.index(workload)]
    if workload == "ode_ensemble":
        points = Points(np.random.default_rng(key))
        while True:
            s = random_chart_state(points.next())
            c = charges_from_state(s)
            yield Orbit(profile_from_charges(c).tag.value, c, s)
    sources = [Points(np.random.default_rng(key + [i])) for i in range(len(TAGS))]
    i = 0
    while True:  # stratified: the five tags in turn, each from its own points
        yield _draw_orbit(TAGS[i % len(TAGS)], sources[i % len(TAGS)])
        i += 1


def inputs_bytes(orbits) -> bytes:
    return b"".join(
        json.dumps(o.to_json(), sort_keys=True).encode() + b"\n" for o in orbits
    )


# ---------------------------------------------------------------------------
# per-op check results
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """Outcome of the checks on one op (or one sweep job)."""

    entries: int = 1
    hard: list[str] = field(default_factory=list)  # messages of the hard checks
    hard_failed: int = 0  # entries failing a hard check
    accuracy_failed: int = 0  # entries failing only the 1e-6 coordinate check
    failed_entries: int = 0  # entries failing any check
    radial_err: float = 0.0
    max_err: float | None = None
    max_drift: float = 0.0
    chart_exits: int = 0

    def fold(self, entry_hard: list[str], entry_accuracy: bool):
        self.hard.extend(entry_hard)
        self.hard_failed += bool(entry_hard)
        if entry_hard or entry_accuracy:
            self.failed_entries += 1
        if entry_accuracy and not entry_hard:
            self.accuracy_failed += 1


def _radii(c: ConservedCharges) -> tuple[float, float]:
    traj = classify(profile_from_charges(c))
    if traj.kind is TrajectoryKind.TYPE_II:
        return traj.r1, traj.r2
    return traj.r0, np.inf


def _confinement(c, r: np.ndarray) -> float:
    lo, hi = _radii(c)
    return max(float(lo - np.min(r)), float(np.max(r) - hi), 0.0)


def _drift(iv: np.ndarray) -> float:
    return float(np.max(np.abs(iv - iv[0]))) if len(iv) else 0.0


def _check_integrals(iv: np.ndarray, s: HypersphericalState, hard: list[str], what: str = ""):
    """Hard message if a first integral along a trace is off its value at the input state."""
    err = float(np.max(np.abs(iv - np.array(integrals(s))))) if len(iv) else 0.0
    if not err <= COORD_TOL:
        hard.append(f"{what}integrals off the input's by {err:.3e}")


def _lift_defects(ambient_rows: np.ndarray, c4: float) -> tuple[float, float]:
    """Max horizontality defect and max |speed - sqrt(2 c4)| along a lifted curve."""
    defect = speed = 0.0
    for row in ambient_rows:
        full = CotangentState.from_array(row)
        vel = TangentVector(*full_rhs(full)[:5])
        defect = max(defect, abs(horizontality_defect(full.q, vel)))
        speed = max(speed, abs(sr_speed(full.q, vel, tol=np.inf) - sqrt(2.0 * c4)))
    return defect, speed


def _oracle(orbit: Orbit, t_end: float, grid: np.ndarray):
    return h5geo.integrate_reduced(orbit.state, (0.0, t_end), ORACLE, t_eval=grid)


def simpson_angle_error(num) -> float:
    """Error of composite Simpson on the oracle's own angle rates (see ANGLE_BUDGET).

    The rates come from the reduced Hamilton equations at the oracle's dense
    states on the grid ``num.times`` refined ANGLE_REFINE-fold; the result is
    the largest deviation of the integrated angles from the oracle's angles.
    """
    grid = num.times
    if grid.size < 2:
        return 0.0
    fine = np.concatenate(
        [np.linspace(a, b, ANGLE_REFINE + 1)[:-1] for a, b in zip(grid[:-1], grid[1:])]
        + [grid[-1:]]
    )
    ys = num.dense(fine)
    rates = np.array([hyper_rhs(*y, num.c0)[1:4] for y in ys])
    angles = ys[0, 1:4] + cumulative_simpson(rates, x=fine, axis=0, initial=0.0)
    return float(np.max(np.abs(angles - ys[:, 1:4])))


def _compare(ana_times, ana_ys, num) -> tuple[float, float, list[str]]:
    """(r error, max error over the 8 coordinates, hard messages) against the oracle."""
    n = min(len(ana_times), num.times.size)
    hard = []
    if n == 0:
        return np.inf, np.inf, ["no common samples with the oracle"]
    if not np.array_equal(ana_times[:n], num.times[:n]):
        hard.append("sample times differ from the oracle grid")
    dev = np.abs(ana_ys[:n] - num.ys[:n])
    radial = float(np.max(dev[:, 0]))
    if not radial <= COORD_TOL:
        hard.append(f"r off the oracle by {radial:.3e}")
    angle = float(np.max(dev[:, 1:4]))
    budget = max(COORD_TOL, ANGLE_BUDGET * simpson_angle_error(num))
    if not angle <= budget:
        hard.append(f"angles off the oracle by {angle:.3e}, budget {budget:.3e}")
    return radial, float(np.max(dev)), hard


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: prepare an orbit (untimed), run it (timed), check it (untimed)."""

    name = ""
    entries_per_op = 1

    def describe(self) -> dict:
        raise NotImplementedError

    def prepare(self, orbit: Orbit):
        return orbit

    def run(self, prepared):
        raise NotImplementedError

    def digest(self, output) -> str:
        """Fingerprint of an op's output, to compare a traced rerun with the first run."""
        raise NotImplementedError

    def check(self, orbit: Orbit, output) -> Check:
        raise NotImplementedError

    def bytes_written(self) -> int:
        """Bytes of files the last op wrote."""
        return 0

    def close(self):
        pass


class QuadratureDense(Workload):
    """geodesic_quadrature followed by reconstruct_ambient on a dense grid."""

    name = "quadrature_dense"

    def __init__(self, t_end: float = 10.0, samples: int = 51):
        self.t_end = t_end
        self.grid = np.linspace(0.0, t_end, samples)

    def describe(self):
        return {"t_end": self.t_end, "samples": int(self.grid.size)}

    def run(self, orbit):
        trace = quadrature.geodesic_quadrature(orbit.charges, orbit.state, self.grid)
        return trace, quadrature.reconstruct_ambient(trace)

    def digest(self, output):
        trace, ambient = output
        return hashlib.sha256(trace.ys.tobytes() + ambient.ys.tobytes()).hexdigest()

    def check(self, orbit, output):
        trace, ambient = output
        chk = Check(max_err=0.0)
        num = _oracle(orbit, self.t_end, self.grid)
        chk.radial_err, chk.max_err, hard = _compare(trace.times, trace.ys, num)
        iv = trace.integral_values()
        chk.max_drift = _drift(iv)
        _check_integrals(iv, orbit.state, hard)
        confine = _confinement(orbit.charges, trace.ys[:, 0])
        if not confine <= CONFINE_TOL:
            hard.append(f"confinement violated by {confine:.3e}")
        defect, speed = _lift_defects(ambient.ys, orbit.charges.c4)
        if not (defect <= LIFT_TOL and speed <= LIFT_TOL):
            hard.append(f"lift defect {defect:.3e}, speed deviation {speed:.3e}")
        chk.chart_exits = int(trace.exit_reason is not None)
        chk.fold(hard, chk.max_err > COORD_TOL)
        return chk


class OdeEnsemble(Workload):
    """One integrate_reduced at the oracle defaults over [0, t_end], no t_eval."""

    name = "ode_ensemble"

    def __init__(self, t_end: float = 20.0, radial_points: int = 11):
        self.t_end = t_end
        self.radial_points = radial_points

    def describe(self):
        return {"t_end": self.t_end, "samples": "integrator steps"}

    def run(self, orbit):
        return dynamics.integrate_reduced(orbit.state, (0.0, self.t_end))

    def digest(self, trace):
        return hashlib.sha256(trace.times.tobytes() + trace.ys.tobytes()).hexdigest()

    def check(self, orbit, trace):
        chk = Check()
        hard = []
        iv = trace.integral_values()
        chk.max_drift = _drift(iv)
        _check_integrals(iv, orbit.state, hard)
        confine = _confinement(orbit.charges, trace.ys[:, 0])
        if not confine <= CONFINE_TOL:
            hard.append(f"confinement violated by {confine:.3e}")
        chk.chart_exits = int(trace.exit_reason is not None)
        if trace.exit_reason is None:
            # closed-form r(t) at a few step times: the radial cross-check
            s = orbit.state
            sol = RadialSolution(
                profile_from_charges(orbit.charges), s.r, 1 if s.pr >= 0.0 else -1,
                0.0, orbit.charges.c4,
            )
            idx = np.linspace(0, trace.times.size - 1, self.radial_points).astype(int)
            t = trace.times[idx]
            r_dev = np.abs([sol.radius_of_time(float(x)) for x in t] - trace.ys[idx, 0])
            chk.radial_err = float(np.max(r_dev))
            scaled = float(np.max(r_dev / np.maximum(1.0, t / RADIAL_SPAN)))
            if not scaled <= COORD_TOL:
                hard.append(f"r off the closed form by {scaled:.3e} per {RADIAL_SPAN:g} of time")
        chk.fold(hard, chk.radial_err > COORD_TOL)
        return chk


def flag_value(x: float) -> str:
    """Exact positional decimal for a sweep flag value.

    argparse takes a token such as ``-3.5e-18`` for an option name, so a sweep
    entry whose charge is a tiny negative rounding residue exits 2 as an
    invalid configuration.  Positional digits parse back to the same double.
    """
    return format(Decimal(repr(float(x))), "f")


def exponent_negative(x: float) -> bool:
    """Whether repr(x) is a negative value in exponent form, which argparse rejects."""
    return bool(x < 0.0) and "e" in repr(float(x))


def _state_values(s: HypersphericalState) -> dict:
    return dict(
        r=s.r, theta1=s.th1, theta2=s.th2, theta3=s.th3,
        pr=s.pr, ptheta1=s.pth1, ptheta2=s.pth2, ptheta3=s.pth3, c0=s.c0,
    )


def _read_csv(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def _read_keyvals(path: Path) -> dict:
    out = {}
    for ln in path.read_text().splitlines():
        if "=" in ln and not ln.startswith("#"):
            k, v = ln.split("=", 1)
            out[k] = v
    return out


class SweepSparse(Workload):
    """One ``h5geo sweep`` job, in-process through ``h5geo.cli.main``.

    A job is one orbit as four entries (classify, quadrature, trace, validate)
    on a sparse grid with default flags, so validate's --tol is 1e-6.
    """

    name = "sweep_sparse"
    entries_per_op = 4

    def __init__(self, work_dir: Path, t_end: float = 10.0, samples: int = 11):
        self.t_end = t_end
        self.samples = samples
        self.grid = np.linspace(0.0, t_end, samples)  # the CLI's own _t_grid
        self.work_dir = Path(work_dir)
        self.config = self.work_dir / "sweep.json"
        self.out_dir = self.work_dir / "sweep_out"
        self.exponent_negatives = 0  # config values that need positional digits

    def describe(self):
        return {"t_end": self.t_end, "samples": self.samples, "entries_per_job": 4,
                "exponent_negative_values": self.exponent_negatives}

    def prepare(self, orbit):
        c = charges_from_state(orbit.state)
        charge_values = dict(c0=c.c0, c1=c.c1, c2=c.c2, c3=c.c3, c4=c.c4)
        state_values = _state_values(orbit.state)
        self.exponent_negatives += int(sum(
            exponent_negative(v) for v in (*charge_values.values(), *state_values.values())
        ))
        as_flags = lambda vals: {k: flag_value(v) for k, v in vals.items()}  # noqa: E731
        orbit_flags = dict(as_flags(state_values), t_end=self.t_end, samples=self.samples)
        runs = [
            dict(mode="classify", **as_flags(charge_values)),
            dict(mode="quadrature", **orbit_flags),
            dict(mode="trace", **orbit_flags),
            dict(mode="validate", **orbit_flags),
        ]
        # fresh files each job: rewriting an existing file makes ext4 flush it
        # on close, which costs tens of milliseconds of disk I/O
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        self.config.write_text(json.dumps({"runs": runs}))
        return ["sweep", "--config", str(self.config), "--out-dir", str(self.out_dir)]

    def run(self, argv):
        # the CLI binds its output stream as a default argument when it is
        # imported, so redirect_stdout cannot reach it; swap that default
        out, err = io.StringIO(), io.StringIO()
        defaults = _DISPATCH.__defaults__
        _DISPATCH.__defaults__ = (out,)
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            _DISPATCH.__defaults__ = defaults
        return code, out.getvalue(), err.getvalue()

    def output_files(self) -> list[Path]:
        return sorted(self.out_dir.iterdir()) if self.out_dir.exists() else []

    def digest(self, output):
        h = hashlib.sha256(repr(output).encode())
        for p in self.output_files():
            h.update(p.name.encode() + p.read_bytes())
        return h.hexdigest()

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.output_files())

    def check(self, orbit, output):
        code, stdout, _ = output
        chk = Check(entries=4, max_err=0.0)
        index_path = self.out_dir / "index.json"
        try:
            index = json.loads(index_path.read_text())
            codes = {r["mode"]: r["exit_code"] for r in index["results"]}
        except (OSError, ValueError, KeyError) as exc:
            for _ in range(4):
                chk.fold([f"no readable sweep index: {exc}"], False)
            return chk
        c = charges_from_state(orbit.state)
        ana = h5geo.geodesic_quadrature(c, orbit.state, self.grid)
        num = _oracle(orbit, self.t_end, self.grid)
        expected = {}
        entries = (
            ("classify", "run_0000.json", self._check_classify),
            ("quadrature", "run_0001.csv", self._check_quadrature),
            ("trace", "run_0002.csv", self._check_trace),
            ("validate", "run_0003.csv", self._check_validate),
        )
        for mode, fname, fn in entries:
            hard: list[str] = []
            try:
                want_code, accuracy = fn(self.out_dir / fname, orbit, c, ana, num, chk, hard)
            except (OSError, ValueError, KeyError) as exc:
                hard.append(f"{mode} output unreadable: {exc}")
                want_code, accuracy = 0, False
            expected[mode] = want_code
            if codes.get(mode) != want_code:
                hard.append(f"{mode} exited {codes.get(mode)!r}, expected {want_code}")
            if mode == "validate":  # job-level outcomes ride on the last entry
                want_sweep = 0 if all(v == 0 for v in expected.values()) else 1
                if code != want_sweep:
                    hard.append(f"sweep exited {code!r}, expected {want_sweep}")
                if stdout != f"{index_path}\n":
                    hard.append("sweep stdout is not the index path")
            chk.fold(hard, accuracy)
        return chk

    @staticmethod
    def _check_classify(path, orbit, c, ana, num, chk, hard):
        """The JSON report must equal the library classification."""
        profile = profile_from_charges(c)
        traj = classify(profile)
        report = json.loads(path.read_text())
        want = {"A": profile.a, "B": profile.b, "C_q": profile.c_q,
                "roots": list(profile.radial_roots()), "case": profile.tag.value,
                "type": traj.kind.value}
        want.update({"r0": traj.r0} if traj.kind is TrajectoryKind.TYPE_I
                    else {"r1": traj.r1, "r2": traj.r2})
        if report != want:
            hard.append("classify report differs from the library")
        if report.get("case") != orbit.tag:
            hard.append(f"classify reports case {report.get('case')!r}, not {orbit.tag!r}")
        return 0, False

    @staticmethod
    def _check_quadrature(path, orbit, c, ana, num, chk, hard):
        """The CSV must round-trip the library trace, which must match the oracle."""
        rows = _read_csv(path)
        if rows.shape != (ana.times.size, 15) or not (
            np.array_equal(rows[:, 0], ana.times) and np.array_equal(rows[:, 1:9], ana.ys)
        ):
            hard.append("quadrature CSV does not round-trip the library trace")
            return 0, False
        radial, worst, cmp_hard = _compare(rows[:, 0], rows[:, 1:9], num)
        hard += cmp_hard
        chk.radial_err, chk.max_err = radial, worst
        chk.max_drift = max(chk.max_drift, _drift(rows[:, 9:13]))
        _check_integrals(rows[:, 9:13], orbit.state, hard)
        confine = _confinement(c, rows[:, 1])
        if not confine <= CONFINE_TOL:
            hard.append(f"confinement violated by {confine:.3e}")
        chk.chart_exits += int(ana.exit_reason is not None)
        return (1 if ana.exit_reason is not None else 0), worst > COORD_TOL

    @staticmethod
    def _check_trace(path, orbit, c, ana, num, chk, hard):
        """The CLI runs the oracle's own integration, so it must match it exactly."""
        rows = _read_csv(path)
        if rows.shape != (num.times.size, 14) or not (
            np.array_equal(rows[:, 0], num.times) and np.array_equal(rows[:, 1:9], num.ys)
        ):
            hard.append("trace CSV does not match the ODE oracle")
        else:
            chk.max_drift = max(chk.max_drift, _drift(rows[:, 9:13]))
            _check_integrals(rows[:, 9:13], orbit.state, hard, "trace ")
        return (1 if num.exit_reason is not None else 0), False

    @staticmethod
    def _check_validate(path, orbit, c, ana, num, chk, hard):
        """The discrepancy must be the benchmark's, the verdict must follow from the
        four values, and the lift must be horizontal at unit speed."""
        vals = _read_keyvals(path)
        coord = float(vals["max_coord_discrepancy"])
        drift = float(vals["integral_drift"])
        defect = float(vals["horizontality_defect"])
        speed = float(vals["speed_deviation"])
        n = min(ana.times.size, num.times.size)
        want_coord = float(np.max(np.abs(ana.ys[:n] - num.ys[:n])))
        if coord != want_coord:
            hard.append(f"validate discrepancy {coord!r} is not the oracle's {want_coord!r}")
        if not (defect <= LIFT_TOL and speed <= LIFT_TOL):
            hard.append(f"lift defect {defect:.3e}, speed deviation {speed:.3e}")
        ok = max(coord, drift, defect, speed) <= COORD_TOL
        if vals["status"] != ("pass" if ok else "fail"):
            hard.append(f"validate status {vals['status']!r} contradicts its values")
        return (0 if ok else 1), coord > COORD_TOL

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


def make_workload(name: str, work_dir: Path, **sizes) -> Workload:
    if name == "quadrature_dense":
        return QuadratureDense(**sizes)
    if name == "ode_ensemble":
        return OdeEnsemble(**sizes)
    if name == "sweep_sparse":
        return SweepSparse(work_dir, **sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
