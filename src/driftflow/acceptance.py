"""Every check of the paper's claims, with one tolerance table and one pass rule.

``VERIFY_TOLERANCES`` is the single table of check tolerances.  The run
checks ``check_bounds``, ``check_functionals``, ``check_commutator`` and
``check_bochner`` each return the dict that ``driftflow run`` records under
``verifications`` in its manifest, with a ``passed`` flag.  The ten criteria
behind ``driftflow verify`` call the same checks or read the same table, and
re-derive their expected values from closed forms or from the brute-force
oracles.  ``run_all`` prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .comparison import (
    blowup_horizon,
    eigenvalue_bound,
    logistic_envelope,
)
from .errors import HorizonError
from .flow import FlowTrajectory, RunRequest, commutator_residual, functional_residuals, run_flow
from .geometry import (
    gaussian_line,
    product_family,
    round_circle_family,
    scaled_gaussian_family,
    weighted_circle,
)
from .oracles import dense_spectrum, integrate_equality_ode
from .spectral import assemble_forms, bochner_sides, lowest_eigenpairs
from .splitting import SplittingCertificate, SplittingHypothesisFailure, detect_splitting

__all__ = [
    "CriterionResult", "run_all", "CRITERIA",
    "VERIFY_TOLERANCES", "check_bounds", "check_functionals", "check_commutator", "check_bochner",
]

LOG2 = math.log(2.0)

VERIFY_TOLERANCES = {
    "bounds_slack": 1e-6,
    "functionals_rel": 1e-4,
    "energy_violation_rel": 1e-8,
    "volume_drift_rel": 1e-6,
    "mean_zero": 1e-9,
    "commutator_rel": 1e-5,
    "bochner_rel": 1e-8,
}


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  C{self.cid:02d} {self.name} [{self.seconds:.2f}s] :: {self.detail}"


def _sharp_curve(lam0: float, s: np.ndarray) -> np.ndarray:
    es = np.exp(s)
    return lam0 / (2.0 * lam0 * (1.0 - es) + es)


def _lambda_series(traj, j: int = 1) -> np.ndarray:
    return np.array([sp.eigenvalues[j] for sp in traj.spectra])


def _tol(key: str) -> str:
    """A tolerance from the table as detail lines print it, e.g. ``1e-6``."""
    mantissa, exponent = f"{VERIFY_TOLERANCES[key]:e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}"


def check_bounds(traj: FlowTrajectory) -> dict:
    """Largest excess of lambda_j over its comparison bound, j = 1..k."""
    slack = VERIFY_TOLERANCES["bounds_slack"]
    worst = -math.inf
    for j in range(1, traj.bounds.shape[1] + 1):
        lam_j = _lambda_series(traj, j)
        finite = np.isfinite(traj.bounds[:, j - 1])
        if not np.any(finite):
            continue
        worst = max(worst, float(np.max(lam_j[finite] - traj.bounds[finite, j - 1])))
    return {"passed": worst <= slack, "max_excess": worst, "slack": slack}


def check_functionals(traj: FlowTrajectory) -> dict:
    """Evolution identities J' = J - 2D, I' = I - 2E and E' <= 0, plus the
    volume and the scalars' zero means, along the tracked scalars."""
    if not traj.series:
        return {"passed": True, "note": "no tracked scalars"}
    rep = functional_residuals(traj)
    vol_drift = float(np.max(np.abs(traj.volumes / traj.volumes[0] - 1.0)))
    means = max(
        abs(traj.states[m].manifold.integrate(traj.scalar_values[m, i]))
        for m in range(len(traj.times))
        for i in range(traj.scalar_values.shape[1])
    )
    passed = (
        rep.max_rel_J <= VERIFY_TOLERANCES["functionals_rel"]
        and rep.max_rel_I <= VERIFY_TOLERANCES["functionals_rel"]
        and rep.energy_violation <= VERIFY_TOLERANCES["energy_violation_rel"] * rep.energy_scale
        and vol_drift <= VERIFY_TOLERANCES["volume_drift_rel"]
        and means <= VERIFY_TOLERANCES["mean_zero"]
    )
    return {
        "passed": bool(passed),
        "max_rel_J": rep.max_rel_J,
        "max_rel_I": rep.max_rel_I,
        "max_rel_E": rep.max_rel_E,
        "max_rel_F": rep.max_rel_F,
        "energy_violation": rep.energy_violation,
        "volume_drift": vol_drift,
        "max_scalar_mean": means,
    }


def check_commutator(traj: FlowTrajectory) -> dict:
    """Worst commutator residual over the interior outputs (at least 3 outputs)."""
    worst = float(np.max(traj.residual_commutator[1:-1]))
    return {"passed": worst <= VERIFY_TOLERANCES["commutator_rel"], "max_rel": worst}


def check_bochner(dm, seed: int) -> dict:
    """Drift Bochner identity on five seeded smooth fields over ``dm``."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        u = np.zeros(dm.shape)
        for i, ax in enumerate(dm.axes):
            if ax.kind == "circle":
                prof = np.zeros(ax.size)
                for kk in range(1, 6):
                    prof += (2 * rng.random() - 1) * np.cos(kk * ax.nodes)
                    prof += (2 * rng.random() - 1) * np.sin(kk * ax.nodes)
            else:
                coef = 2 * rng.random(min(5, ax.size)) - 1
                prof = sum(c * ax.nodes**p for p, c in enumerate(coef))
            u = u + dm.axis_profile(i, prof)
        lhs, rhs = bochner_sides(u, dm)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return {"passed": worst <= VERIFY_TOLERANCES["bochner_rel"], "max_rel": worst}


def criterion_1_sharpness() -> CriterionResult:
    start = time.perf_counter()
    errs = {}
    ok = True
    for backend, tol in (("analytic", 1e-8), ("galerkin", 1e-6)):
        req = RunRequest(
            family=scaled_gaussian_family(2.0, 1),
            horizon=LOG2,
            dt=1e-3,
            cadence=10,
            k=1,
            backend=backend,
            track_scalars=False,
        )
        traj = run_flow(req)
        s = traj.times - traj.times[0]
        lam = _lambda_series(traj)
        rel = float(np.max(np.abs(lam / _sharp_curve(0.25, s) - 1.0)))
        errs[backend] = rel
        ok = ok and rel <= tol
    seconds = time.perf_counter() - start
    ok = ok and seconds < 5.0
    detail = f"rel err analytic {errs['analytic']:.2e} (tol 1e-8), galerkin {errs['galerkin']:.2e} (tol 1e-6)"
    return CriterionResult(1, "sharp eigenvalue curve of the rescaled Gaussian", ok, detail, seconds)


def criterion_2_eternal() -> CriterionResult:
    start = time.perf_counter()
    req = RunRequest(
        family=scaled_gaussian_family(2.0, 1),
        horizon=5.0,
        dt=1e-3,
        cadence=50,
        k=1,
        track_scalars=False,
    )
    traj = run_flow(req)
    lam = _lambda_series(traj)
    margin = float(np.min(0.5 - lam))
    ok = bool(np.all(lam < 0.5) and margin >= 1e-3)
    return CriterionResult(
        2,
        "eternal run stays strictly below 1/2",
        ok,
        f"min margin {margin:.4g} over horizon 5 (need >= 1e-3)",
        time.perf_counter() - start,
    )


def criterion_3_bound_compliance() -> CriterionResult:
    start = time.perf_counter()
    scenarios = [
        ("gauss_u0.5", scaled_gaussian_family(0.5, 1), 0.6, 2),
        ("gauss_u1", scaled_gaussian_family(1.0, 1), 1.0, 2),
        ("gauss_u2", scaled_gaussian_family(2.0, 1), 1.0, 2),
        ("circle_a0.25", round_circle_family(0.25), 0.5, 2),
        ("circle_a1", round_circle_family(1.0), 0.5, 2),
        ("circle_a4", round_circle_family(4.0), 0.5, 2),
        (
            "product",
            product_family([scaled_gaussian_family(1.0, 1), round_circle_family(4.0)]),
            0.5,
            3,
        ),
    ]
    worst = -math.inf
    strict_margin = math.inf
    circle1_err = 0.0
    ok = True
    for name, family, horizon, k in scenarios:
        req = RunRequest(family=family, horizon=horizon, dt=1e-3, cadence=10, k=k, track_scalars=False)
        traj = run_flow(req)
        bounds = check_bounds(traj)
        worst = max(worst, bounds["max_excess"])
        ok = ok and bounds["passed"]
        if name == "circle_a1":
            s = traj.times - traj.times[0]
            lam1 = _lambda_series(traj, 1)
            circle1_err = float(np.max(np.abs(lam1 - np.exp(-s))))
            interior = s > 0
            strict_margin = float(np.min(traj.bounds[interior, 0] - lam1[interior]))
            ok = ok and circle1_err <= 1e-8 and strict_margin > 0.0
    seconds = time.perf_counter() - start
    ok = ok and seconds < 30.0
    detail = (
        f"max bound excess {worst:.2e} (slack {_tol('bounds_slack')}); "
        f"circle_a1: |lambda_1 - e^-t| = {circle1_err:.2e}, strict margin {strict_margin:.4g}"
    )
    return CriterionResult(3, "eigenvalue bound compliance on all scenarios", ok, detail, seconds)


def criterion_4_evolution_identities() -> CriterionResult:
    start = time.perf_counter()
    req = RunRequest(family=round_circle_family(1.0), horizon=0.3, dt=1e-3, cadence=1, k=2)
    c = check_functionals(run_flow(req))
    detail = (
        f"rel J' {c['max_rel_J']:.2e}, rel I' {c['max_rel_I']:.2e} (tol {_tol('functionals_rel')}); "
        f"E' violation {c['energy_violation']:.2e}; volume drift {c['volume_drift']:.2e}; "
        f"mean {c['max_scalar_mean']:.2e}"
    )
    return CriterionResult(4, "evolution identities on a circle run", c["passed"], detail, time.perf_counter() - start)


def criterion_5_bochner() -> CriterionResult:
    start = time.perf_counter()
    n = 256
    theta = 2.0 * math.pi * np.arange(n) / n
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        f = np.zeros(n)
        for kk in range(1, 4):
            f += (2 * rng.random() - 1) * 0.5 * np.cos(kk * theta)
            f += (2 * rng.random() - 1) * 0.5 * np.sin(kk * theta)
        u = np.zeros(n)
        for kk in range(1, 6):
            u += (2 * rng.random() - 1) * np.cos(kk * theta)
            u += (2 * rng.random() - 1) * np.sin(kk * theta)
        dm = weighted_circle(n, a=1.0, f=lambda th, f=f: np.interp(th, theta, f, period=2 * math.pi))
        lhs, rhs = bochner_sides(u, dm)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    seconds = time.perf_counter() - start
    ok = worst <= VERIFY_TOLERANCES["bochner_rel"] and seconds < 5.0
    return CriterionResult(
        5,
        "drift Bochner identity on random weighted circles",
        bool(ok),
        f"worst rel residual {worst:.2e} over 20 seeded fields (tol {_tol('bochner_rel')})",
        seconds,
    )


def criterion_6_commutator() -> CriterionResult:
    start = time.perf_counter()
    req_s = RunRequest(
        family=scaled_gaussian_family(1.0, 1), horizon=0.1, dt=1e-3, cadence=1, k=1, track_scalars=False
    )
    traj_s = run_flow(req_s)
    x = traj_s.states[0].manifold.axes[0].nodes.copy()
    res_static = commutator_residual(x, traj_s, len(traj_s.times) // 2)

    req_c = RunRequest(family=round_circle_family(1.0), horizon=0.1, dt=1e-3, cadence=1, k=1, track_scalars=False)
    traj_c = run_flow(req_c)
    u = np.cos(traj_c.states[0].manifold.axes[0].nodes)
    res_circle = max(
        commutator_residual(u, traj_c, idx) for idx in (1, len(traj_c.times) // 2, len(traj_c.times) - 2)
    )
    ok = res_static <= 1e-12 and res_circle <= VERIFY_TOLERANCES["commutator_rel"]
    detail = f"static {res_static:.2e} (tol 1e-12), circle {res_circle:.2e} (tol {_tol('commutator_rel')})"
    return CriterionResult(6, "commutator of d/dt with the drift Laplacian", bool(ok), detail, time.perf_counter() - start)


def criterion_7_comparison_suite() -> CriterionResult:
    start = time.perf_counter()
    worst_agree = 0.0
    cases = []
    for lam0 in (0.05, 0.25, 0.49, 0.5):
        cases += [(lam0, s, 1e-4) for s in (0.1, 0.7, 2.0, 5.0)]
    for lam0 in (0.6, 1.0, 2.0):
        hor = blowup_horizon(lam0)
        cases += [(lam0, 0.3 * hor, 2e-5), (lam0, 0.8 * hor, 2e-5)]
    for lam0, s, dt in cases:
        ref = integrate_equality_ode(lam0, s, dt=dt)
        val = eigenvalue_bound(lam0, s)
        worst_agree = max(worst_agree, abs(val - ref) / max(abs(ref), 1.0))
    ok = worst_agree <= 1e-10

    worst_semi = 0.0
    for lam0 in (0.05, 0.3, 0.5, 0.8, 1.5):
        hor = blowup_horizon(lam0)
        total = 0.5 * min(hor, 4.0)
        for frac in (0.25, 0.5, 0.75):
            s1 = frac * total
            two_step = eigenvalue_bound(eigenvalue_bound(lam0, s1), total - s1)
            one_step = eigenvalue_bound(lam0, total)
            worst_semi = max(worst_semi, abs(two_step - one_step))
    ok = ok and worst_semi <= 1e-12

    ok = ok and abs(blowup_horizon(1.0) - LOG2) <= 1e-12
    ok = ok and all(logistic_envelope(1.0, s) == 1.0 for s in (0.0, 0.5, 3.0, 10.0))

    # 100 seeded damped logistic solutions must stay below the envelope.
    rng = np.random.default_rng(0)
    worst_env = -math.inf
    dt = 1e-3
    nsteps = 3000
    for _ in range(100):
        h0 = rng.random()
        c0, c1 = rng.random(), rng.random()
        omega, phase = 1.0 + 4.0 * rng.random(), 2.0 * math.pi * rng.random()

        def r(t):
            return c0 + c1 * 0.5 * (1.0 + math.sin(omega * t + phase))

        h = h0
        t = 0.0
        for step in range(nsteps):
            k1 = h * (h - 1.0) - r(t)
            k2 = (h + 0.5 * dt * k1) * (h + 0.5 * dt * k1 - 1.0) - r(t + 0.5 * dt)
            k3 = (h + 0.5 * dt * k2) * (h + 0.5 * dt * k2 - 1.0) - r(t + 0.5 * dt)
            k4 = (h + dt * k3) * (h + dt * k3 - 1.0) - r(t + dt)
            h = h + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
            if h < 0.0:
                break  # envelope is vacuous once h leaves the nonnegative regime
            if step % 10 == 9:
                worst_env = max(worst_env, h - logistic_envelope(h0, t))
    ok = ok and worst_env <= 1e-9
    detail = (
        f"bound vs RK4 {worst_agree:.2e} (tol 1e-10); semigroup {worst_semi:.2e} (tol 1e-12); "
        f"envelope excess {worst_env:.2e} (tol 1e-9)"
    )
    return CriterionResult(7, "comparison suite for differential inequalities", bool(ok), detail, time.perf_counter() - start)


def criterion_8_gram_derivative() -> CriterionResult:
    start = time.perf_counter()
    req = RunRequest(family=scaled_gaussian_family(2.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
    traj = run_flow(req)
    a11 = traj.mixing[:, 0, 0]
    deriv = traj.time_derivative(a11)[0]
    err_moving = abs(deriv - (-0.25))

    req_s = RunRequest(family=scaled_gaussian_family(1.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
    traj_s = run_flow(req_s)
    deriv_s = traj_s.time_derivative(traj_s.mixing[:, 0, 0])[0]

    ok = err_moving <= 1e-4 and abs(deriv_s) <= 1e-10
    detail = f"a11'(0) = {deriv:.8f} (want -1/4 within 1e-4); static {deriv_s:.2e} (tol 1e-10)"
    return CriterionResult(8, "Gram-Schmidt diagonal drift rate", bool(ok), detail, time.perf_counter() - start)


def criterion_9_splitting() -> CriterionResult:
    start = time.perf_counter()
    fam = product_family([scaled_gaussian_family(1.0, 1), round_circle_family(0.25)])
    req = RunRequest(family=fam, horizon=0.2, dt=1e-3, cadence=20, k=3, track_scalars=False)
    traj = run_flow(req)
    cert = detect_splitting(traj, traj.times[0], traj.times[-1])
    ok = isinstance(cert, SplittingCertificate) and cert.valid
    detail_parts = []
    if isinstance(cert, SplittingCertificate):
        ok = (
            ok
            and abs(cert.lambda_cluster_t0 - 0.5) <= 1e-8
            and cert.eigenvalue_window_deviation <= 1e-8
            and float(np.max(cert.hessian_energies)) <= 1e-10
            and cert.gradient_norm_deviation <= 1e-8
            and cert.weight_residual <= 1e-8
        )
        detail_parts.append(
            f"cert k={cert.k} valid={cert.valid}, hess {float(np.max(cert.hessian_energies)):.1e}, "
            f"grad {cert.gradient_norm_deviation:.1e}, f-res {cert.weight_residual:.1e}"
        )
    else:
        detail_parts.append(f"no certificate: {cert.message}")

    for name, family in (("gauss_u2", scaled_gaussian_family(2.0, 1)), ("circle_a4", round_circle_family(4.0))):
        t = run_flow(RunRequest(family=family, horizon=0.1, dt=1e-3, cadence=10, k=2, track_scalars=False))
        outcome = detect_splitting(t, t.times[0], t.times[-1])
        good = isinstance(outcome, SplittingHypothesisFailure)
        ok = ok and good
        detail_parts.append(f"{name}: {'failure report' if good else 'unexpected certificate'}")
    return CriterionResult(9, "splitting certificate and negative controls", bool(ok), "; ".join(detail_parts), time.perf_counter() - start)


def criterion_10_spectral_correctness() -> CriterionResult:
    start = time.perf_counter()
    ok = True
    gauss_exact = True
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        dm = gaussian_line(a, order=8)
        res = lowest_eigenpairs(assemble_forms(dm), 6)
        expected = np.arange(7) / (2.0 * a)
        gauss_exact = gauss_exact and np.array_equal(res.eigenvalues, expected)
    ok = ok and gauss_exact

    worst_circle = 0.0
    for a in (0.25, 1.0, 4.0):
        dm = weighted_circle(64, a=a)
        forms = assemble_forms(dm)
        res = lowest_eigenpairs(forms, 6)
        expected = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]) / a
        worst_circle = max(worst_circle, float(np.max(np.abs(res.eigenvalues - expected))))
        dense = dense_spectrum(forms)[:7]
        worst_circle = max(worst_circle, float(np.max(np.abs(res.eigenvalues - dense))))
    ok = ok and worst_circle <= 1e-10
    detail = f"gaussian multiples exact: {gauss_exact}; circle worst dev {worst_circle:.2e} (tol 1e-10)"
    return CriterionResult(10, "spectra on analytic backends", bool(ok), detail, time.perf_counter() - start)


CRITERIA = [
    criterion_1_sharpness,
    criterion_2_eternal,
    criterion_3_bound_compliance,
    criterion_4_evolution_identities,
    criterion_5_bochner,
    criterion_6_commutator,
    criterion_7_comparison_suite,
    criterion_8_gram_derivative,
    criterion_9_splitting,
    criterion_10_spectral_correctness,
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results
