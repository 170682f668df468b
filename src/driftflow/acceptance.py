"""Every check of the paper's claims as (value, tol) records, with one tolerance table and one pass rule.

A ``Check`` is one decision: it passes exactly when ``value <= tol``, so a
NaN value fails, and ``margin = tol - value`` is its headroom.  A strict
``value < limit`` is the record ``tol = math.nextafter(limit, -math.inf)``;
an exact equality is ``value = max |difference|`` with ``tol = 0``.  ``failed`` is the
one pass rule over named groups of records: a group fails when it is empty
or holds a failing record.  ``driftflow run --strict``, ``sweep``, ``report``
and ``verify`` all decide with it.

``VERIFY_TOLERANCES`` is the single table of check tolerances, the splitting
certificate's for both backends included.  The run checks ``check_bounds``,
``check_functionals``, ``check_commutator``, ``check_bochner`` and
``check_splitting`` return lists of records, which ``driftflow run`` writes
under ``verifications`` in its manifest, an infinite or NaN number as the
string ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``.  The ten criteria behind
``driftflow verify`` call the same checks or read the same table, re-derive
their expected values from closed forms or from the brute-force oracles, and
return their records.  Each is declared once by ``_criterion``, which
registers it in ``CRITERIA``, times it, adds the strict ``seconds`` record
of the criteria with a time limit, and builds its ``CriterionResult``, whose
PASS/FAIL line ``run_all`` prints.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .axes import along
from .comparison import (
    blowup_horizon,
    eigenvalue_bound,
    logistic_envelope,
)
from .flow import FlowTrajectory, RunRequest, _sub_stacks, commutator_residual, functional_residuals, run_flow
from .geometry import (
    evaluate_family,
    gaussian_line,
    product_family,
    round_circle_family,
    scaled_gaussian_family,
    weighted_circle,
)
from .oracles import dense_spectrum, equality_ode_extrapolated, modal_propagator
from .spectral import assemble_forms, bochner_sides, lowest_eigenpairs
from .splitting import SplittingCertificate, SplittingHypothesisFailure, detect_splitting

__all__ = [
    "Check", "failed", "CriterionResult", "run_all", "CRITERIA",
    "VERIFY_TOLERANCES", "splitting_tolerances",
    "check_bounds", "check_functionals", "check_commutator", "check_bochner", "check_splitting",
]

LOG2 = math.log(2.0)

VERIFY_TOLERANCES = {
    "bounds_slack": 1e-6,
    "functionals_rel": 1e-4,
    "energy_violation_rel": 1e-8,
    "volume_drift_rel": 1e-6,
    # |int u| over sqrt(I volume), its Cauchy-Schwarz bound.  At f0 = -50 that
    # scale is about 1.8e11, and the round-off of the absolute mean read 1.8e-4.
    "mean_zero": 1e-9,
    # Scalars against the exact modal propagator, relative to max |P u(0)|.  Galerkin
    # runs read 9.9e-15 on C04, 8.2e-14 on a Gaussian x circle product, 1.1e-14 on an
    # n = 3 Gaussian and 5.8e-14 on a stiff circle (a0 = 0.25, 64 nodes), whose modes
    # the integrating factor takes exactly where RK4 stages would not be stable.
    "propagator_rel": 1e-10,
    "commutator_rel": 1e-5,
    "bochner_rel": 1e-8,
    # The splitting certificate per backend; its eigenvalue tolerance is also
    # the window around 1/2 in which detect_splitting looks for the cluster.
    "splitting_eigenvalue_analytic": 1e-8,
    "splitting_hessian_energy_analytic": 1e-10,
    "splitting_gradient_analytic": 1e-8,
    "splitting_weight_decomposition_analytic": 1e-8,
    "splitting_metric_block_analytic": 1e-8,
    "splitting_factor_equations_analytic": 1e-8,
    "splitting_eigenvalue_galerkin": 1e-5,
    "splitting_hessian_energy_galerkin": 1e-6,
    "splitting_gradient_galerkin": 1e-6,
    "splitting_weight_decomposition_galerkin": 1e-6,
    "splitting_metric_block_galerkin": 1e-6,
    "splitting_factor_equations_galerkin": 1e-6,
}

# Each record of a splitting certificate after "1 - k": its name, the certificate
# residual it reads (the largest entry of a list) and its tolerance's field.
_SPLITTING_CHECKS = (
    ("eigenvalue window", "eigenvalue_window_deviation", "eigenvalue"),
    ("hessian energy", "hessian_energies", "hessian_energy"),
    ("gradient gram", "gradient_gram_deviation", "gradient"),
    ("gradient norm", "gradient_norm_deviation", "gradient"),
    ("weight decomposition", "weight_decomposition", "weight_decomposition"),
    ("metric block", "metric_block", "metric_block"),
    ("factor equation 1", "factor_equation_1", "factor_equations"),
    ("factor equation 2", "factor_equation_2", "factor_equations"),
)


@dataclass(frozen=True)
class Check:
    """One decision: ``value`` against ``tol``; it passes exactly when value <= tol."""

    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)

    @property
    def margin(self) -> float:
        return self.tol - self.value

    def __str__(self) -> str:
        return f"{self.name} {self.value:.3e} {'<=' if self.passed else 'NOT <='} {self.tol:.3e}"

    def to_json_dict(self) -> dict:
        """The record as JSON; a non-finite number is the string ``float`` reads back, as JSON has no token for it."""
        return {"name": self.name, "value": _json_float(self.value), "tol": _json_float(self.tol),
                "margin": _json_float(self.margin), "passed": self.passed}


def _json_float(x: float):
    x = float(x)
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def failed(groups: dict) -> list:
    """The one pass rule: names of the groups of checks that are empty or hold a failing record."""
    return [name for name, checks in groups.items() if not checks or not all(c.passed for c in checks)]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    checks: list
    seconds: float

    @property
    def passed(self) -> bool:
        return not failed({self.cid: self.checks})

    @property
    def detail(self) -> str:
        return "; ".join(str(c) for c in self.checks)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  C{self.cid:02d} {self.name} [{self.seconds:.2f}s] :: {self.detail}"

    def to_json_dict(self) -> dict:
        """The criterion's entry of ``acceptance_report.json``."""
        checks = [c.to_json_dict() for c in self.checks]
        return {"id": self.cid, "name": self.name, "passed": self.passed, "detail": self.detail,
                "seconds": self.seconds, "checks": checks}


def _sharp_curve(lam0: float, s: np.ndarray) -> np.ndarray:
    es = np.exp(s)
    return lam0 / (2.0 * lam0 * (1.0 - es) + es)


def check_bounds(traj: FlowTrajectory) -> list:
    """Largest excess of lambda_j over its comparison bound, j = 1..k, where
    the bound is finite."""
    finite = np.isfinite(traj.bounds)
    worst = float(np.max(traj.eigenvalues[:, 1:][finite] - traj.bounds[finite], initial=-math.inf))
    return [Check("max bound excess", worst, VERIFY_TOLERANCES["bounds_slack"])]


def check_functionals(traj: FlowTrajectory) -> list:
    """The weighted volume, and with tracked scalars the evolution identities
    J' = J - 2D and I' = I - 2E at each output's own rates (``series["dJ"]``),
    E' <= 0 between outputs, the scalars' zero means relative
    to their Cauchy-Schwarz bound |int u| <= sqrt(I volume), and their
    distance from the exact ``modal_propagator`` at every output, relative
    to the propagated batch, one propagator call per sub-stack of
    consecutive outputs sized for their scalars."""
    vol_drift = float(np.max(np.abs(traj.volumes / traj.volumes[0] - 1.0)))
    volume = Check("volume drift", vol_drift, VERIFY_TOLERANCES["volume_drift_rel"])
    if not traj.series:
        return [volume]
    rep = functional_residuals(traj.series)
    integrals = np.stack([traj.manifolds.integrate(u) for u in traj.scalar_values.swapaxes(0, 1)], axis=1)
    means = float(np.max(np.abs(integrals) / np.sqrt(traj.series["I"] * traj.volumes[:, None])))
    family, values = traj.request.family, traj.scalar_values
    states = [evaluate_family(family, t) for t in traj.times]
    deviations = np.empty(len(values))
    for sub in _sub_stacks(len(values), traj.manifolds.size, values.shape[1]):
        exact = modal_propagator(values[0], states[0], states[sub])
        # an output whose propagated scalars are all zero reads inf (or NaN) and fails, with no warning on stderr
        with np.errstate(divide="ignore", invalid="ignore"):
            deviations[sub] = _row_max(np.abs(values[sub] - exact)) / _row_max(np.abs(exact))
    return [
        Check("rel J'", rep.max_rel_J, VERIFY_TOLERANCES["functionals_rel"]),
        Check("rel I'", rep.max_rel_I, VERIFY_TOLERANCES["functionals_rel"]),
        Check("E' violation", rep.energy_violation, VERIFY_TOLERANCES["energy_violation_rel"] * rep.energy_scale),
        volume,
        Check("scalar mean", means, VERIFY_TOLERANCES["mean_zero"]),
        Check("scalar propagator", float(np.max(deviations)), VERIFY_TOLERANCES["propagator_rel"]),
    ]


def _row_max(x: np.ndarray) -> np.ndarray:
    """The largest entry of each output of a stack."""
    return np.max(x.reshape(len(x), -1), axis=1)


def check_commutator(traj: FlowTrajectory) -> list:
    """Worst commutator residual over the outputs."""
    worst = float(np.max(traj.residual_commutator))
    return [Check("commutator", worst, VERIFY_TOLERANCES["commutator_rel"])]


def check_bochner(dm, seed: int) -> list:
    """Drift Bochner identity on five seeded smooth fields over ``dm``."""
    rng = np.random.default_rng(seed)
    residuals = []
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
            u = u + along(prof, i, dm.dimension)
        residuals.append(_bochner_residual(u, dm))
    return [Check("bochner rel", float(np.max(residuals)), VERIFY_TOLERANCES["bochner_rel"])]


def _bochner_residual(u, dm) -> float:
    """|lhs - rhs| of the drift Bochner identity for ``u`` over its scale
    max(|lhs|, |rhs|, D/2), D the Dirichlet energy of ``u``: where phi
    vanishes, both sides are zero and D/2 keeps round-off from being divided
    by itself.  The floor 1e-300 only keeps a constant field at 0."""
    lhs, rhs, dirichlet = bochner_sides(u, dm)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 0.5 * dirichlet, 1e-300)


def splitting_tolerances(backend: str) -> dict:
    """The splitting certificate's tolerances on one backend, by field."""
    return {field: VERIFY_TOLERANCES[f"splitting_{field}_{backend}"] for _, _, field in _SPLITTING_CHECKS}


def check_splitting(outcome, backend: str) -> list:
    """Records of a splitting certificate at the backend's tolerances.

    A hypothesis failure is its one failing record, at the window that
    ``detect_splitting`` used.
    """
    if isinstance(outcome, SplittingHypothesisFailure):
        return [Check(*outcome.record)]
    tol = splitting_tolerances(backend)
    return [Check("1 - k", 1.0 - outcome.k, 0.0)] + [
        Check(name, float(np.max(outcome.residuals[key], initial=0.0)), tol[field])
        for name, key, field in _SPLITTING_CHECKS
    ]


# The criteria behind ``driftflow verify``, in id order: each ``_criterion`` appends one.
# A list of zero-argument callables, whose entries a caller may replace in place.
CRITERIA = []


def _criterion(cid: int, name: str, seconds: float | None = None):
    """Register criterion ``cid``, whose body returns its checks, and bind its
    name to the call that times the body and builds its ``CriterionResult``.
    With a time limit ``seconds``, the strict record ``seconds < limit`` of
    the body's own time comes last."""

    def register(body):
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            checks = body()
            elapsed = time.perf_counter() - start
            if seconds is not None:
                checks.append(Check("seconds", elapsed, math.nextafter(seconds, -math.inf)))
            return CriterionResult(cid, name, checks, elapsed)

        CRITERIA.append(criterion)
        return criterion

    return register


@_criterion(1, "sharp eigenvalue curve of the rescaled Gaussian", seconds=5.0)
def criterion_1_sharpness() -> list:
    checks = []
    for backend, tol in (("analytic", 1e-8), ("galerkin", 1e-6)):
        req = RunRequest(family=scaled_gaussian_family(2.0, 1), horizon=LOG2, dt=1e-3, cadence=10, k=1,
                         backend=backend, track_scalars=False)
        traj = run_flow(req)
        s = traj.times - traj.times[0]
        lam = traj.eigenvalues[:, 1]
        checks.append(Check(f"rel err {backend}", float(np.max(np.abs(lam / _sharp_curve(0.25, s) - 1.0))), tol))
    return checks


@_criterion(2, "eternal run stays strictly below 1/2")
def criterion_2_eternal() -> list:
    req = RunRequest(family=scaled_gaussian_family(2.0, 1), horizon=5.0, dt=1e-3, cadence=50, k=1, track_scalars=False)
    lam = run_flow(req).eigenvalues[:, 1]
    # lambda_1 stays at least 1e-3 below 1/2 over the whole horizon of 5
    return [Check("max lambda_1 - 1/2", float(np.max(lam - 0.5)), -1e-3)]


@_criterion(3, "eigenvalue bound compliance on all scenarios", seconds=30.0)
def criterion_3_bound_compliance() -> list:
    scenarios = [
        ("gauss_u0.5", scaled_gaussian_family(0.5, 1), 0.6, 2),
        ("gauss_u1", scaled_gaussian_family(1.0, 1), 1.0, 2),
        ("gauss_u2", scaled_gaussian_family(2.0, 1), 1.0, 2),
        ("circle_a0.25", round_circle_family(0.25), 0.5, 2),
        ("circle_a1", round_circle_family(1.0), 0.5, 2),
        ("circle_a4", round_circle_family(4.0), 0.5, 2),
        ("product", product_family([scaled_gaussian_family(1.0, 1), round_circle_family(4.0)]), 0.5, 3),
    ]
    excess = []
    checks = []
    for name, family, horizon, k in scenarios:
        req = RunRequest(family=family, horizon=horizon, dt=1e-3, cadence=10, k=k, track_scalars=False)
        traj = run_flow(req)
        excess.append(check_bounds(traj)[0].value)
        if name == "circle_a1":
            s = traj.times - traj.times[0]
            lam1 = traj.eigenvalues[:, 1]
            interior = s > 0
            checks += [
                Check("circle_a1 |lambda_1 - e^-t|", float(np.max(np.abs(lam1 - np.exp(-s)))), 1e-8),
                # strictly below the bound after t = 0
                Check(
                    "circle_a1 lambda_1 - bound_1",
                    float(np.max(lam1[interior] - traj.bounds[interior, 0])),
                    math.nextafter(0.0, -math.inf),
                ),
            ]
    return [Check("max bound excess", float(np.max(excess)), VERIFY_TOLERANCES["bounds_slack"]), *checks]


@_criterion(4, "evolution identities on a circle run")
def criterion_4_evolution_identities() -> list:
    req = RunRequest(family=round_circle_family(1.0), horizon=0.3, dt=1e-3, cadence=1, k=2)
    return check_functionals(run_flow(req))


@_criterion(5, "drift Bochner identity on random weighted circles", seconds=5.0)
def criterion_5_bochner() -> list:
    n = 256
    theta = 2.0 * math.pi * np.arange(n) / n
    rng = np.random.default_rng(0)
    residuals = []
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
        residuals.append(_bochner_residual(u, dm))
    return [Check("worst rel residual of 20 seeded fields", float(np.max(residuals)), VERIFY_TOLERANCES["bochner_rel"])]


@_criterion(6, "commutator of d/dt with the drift Laplacian")
def criterion_6_commutator() -> list:
    req_s = RunRequest(
        family=scaled_gaussian_family(1.0, 1), horizon=0.1, dt=1e-3, cadence=1, k=1, track_scalars=False
    )
    traj_s = run_flow(req_s)
    x = traj_s.manifolds[0].axes[0].nodes.copy()
    res_static = float(commutator_residual(x, traj_s.manifolds, [len(traj_s.times) // 2])[0])

    req_c = RunRequest(family=round_circle_family(1.0), horizon=0.1, dt=1e-3, cadence=1, k=1, track_scalars=False)
    traj_c = run_flow(req_c)
    u = np.cos(traj_c.manifolds[0].axes[0].nodes)
    res_circle = float(np.max(commutator_residual(u, traj_c.manifolds, range(len(traj_c.times)))))
    return [Check("static", res_static, 1e-12), Check("circle", res_circle, VERIFY_TOLERANCES["commutator_rel"])]


@_criterion(7, "comparison suite for differential inequalities")
def criterion_7_comparison_suite() -> list:
    worst_agree = 0.0
    cases = []
    for lam0 in (0.05, 0.25, 0.49, 0.5):
        cases += [(lam0, s) for s in (0.1, 0.7, 2.0, 5.0)]
    for lam0 in (0.6, 1.0, 2.0):
        hor = blowup_horizon(lam0)
        cases += [(lam0, 0.3 * hor), (lam0, 0.8 * hor)]
    for lam0, s in cases:
        ref = equality_ode_extrapolated(lam0, s)
        val = eigenvalue_bound(lam0, s)
        worst_agree = max(worst_agree, abs(val - ref) / max(abs(ref), 1.0))

    worst_semi = 0.0
    for lam0 in (0.05, 0.3, 0.5, 0.8, 1.5):
        hor = blowup_horizon(lam0)
        total = 0.5 * min(hor, 4.0)
        for frac in (0.25, 0.5, 0.75):
            s1 = frac * total
            two_step = eigenvalue_bound(eigenvalue_bound(lam0, s1), total - s1)
            one_step = eigenvalue_bound(lam0, total)
            worst_semi = max(worst_semi, abs(two_step - one_step))

    # 100 seeded damped logistic solutions must stay below the envelope.
    # The forcing r(t) = c0 + c1 0.5 (1 + sin(omega t + phase)) is written inline.
    rng = np.random.default_rng(0)
    worst_env = -math.inf
    dt = 1e-3
    half, sixth = dt / 2, dt / 6.0
    nsteps = 3000
    sin = math.sin
    for _ in range(100):
        h0 = rng.random()
        c0, c1 = rng.random(), rng.random()
        omega, phase = 1.0 + 4.0 * rng.random(), 2.0 * math.pi * rng.random()
        c1_half = c1 * 0.5
        h = h0
        t = 0.0
        r_start = c0 + c1_half * (1.0 + sin(omega * t + phase))
        for step in range(nsteps):
            # r at the step's midpoint once; r at its end is the next step's r at its start
            r_mid = c0 + c1_half * (1.0 + sin(omega * (t + half) + phase))
            r_end = c0 + c1_half * (1.0 + sin(omega * (t + dt) + phase))
            k1 = h * (h - 1.0) - r_start
            x = h + half * k1
            k2 = x * (x - 1.0) - r_mid
            x = h + half * k2
            k3 = x * (x - 1.0) - r_mid
            x = h + dt * k3
            k4 = x * (x - 1.0) - r_end
            h = h + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
            r_start = r_end
            if h < 0.0:
                break  # envelope is vacuous once h leaves the nonnegative regime
            if step % 10 == 9:
                worst_env = max(worst_env, h - logistic_envelope(h0, t))
    return [
        Check("bound vs RK4", worst_agree, 1e-10),
        Check("semigroup", worst_semi, 1e-12),
        Check("|blowup_horizon(1) - log 2|", abs(blowup_horizon(1.0) - LOG2), 1e-12),
        Check(
            "max |logistic_envelope(1, s) - 1|",
            float(np.max([abs(logistic_envelope(1.0, s) - 1.0) for s in (0.0, 0.5, 3.0, 10.0)])),
            0.0,
        ),
        Check("envelope excess", worst_env, 1e-9),
    ]


def _diagonal_rate(traj: FlowTrajectory) -> float:
    """a11'(0) of the Gram-Schmidt mixing: a11 = J11^{-1/2}, so a11' = -J11' J11^{-3/2} / 2."""
    J11, dJ11 = traj.series["J"][0, 0, 0], traj.series["dJ"][0, 0, 0]
    return float(-0.5 * dJ11 * J11**-1.5)


@_criterion(8, "Gram-Schmidt diagonal drift rate")
def criterion_8_gram_derivative() -> list:
    req = RunRequest(family=scaled_gaussian_family(2.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
    deriv = _diagonal_rate(run_flow(req))

    req_s = RunRequest(family=scaled_gaussian_family(1.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
    deriv_s = _diagonal_rate(run_flow(req_s))

    return [Check("|a11'(0) + 1/4|", abs(deriv - (-0.25)), 1e-4), Check("static |a11'(0)|", abs(deriv_s), 1e-10)]


@_criterion(9, "splitting certificate and negative controls")
def criterion_9_splitting() -> list:
    window = splitting_tolerances("galerkin")["eigenvalue"]
    fam = product_family([scaled_gaussian_family(1.0, 1), round_circle_family(0.25)])
    req = RunRequest(family=fam, horizon=0.2, dt=1e-3, cadence=20, k=3, track_scalars=False)
    traj = run_flow(req)
    cert = detect_splitting(traj, traj.times[0], traj.times[-1], window)
    # The exact product meets tighter tolerances than the backend's; the
    # window deviation also covers the cluster's own distance from 1/2 at t0.
    tight = {"eigenvalue window": 1e-8, "hessian energy": 1e-10, "gradient norm": 1e-8, "weight decomposition": 1e-8}
    checks = [replace(c, tol=min(c.tol, tight.get(c.name, c.tol))) for c in check_splitting(cert, "galerkin")]

    for name, family in (("gauss_u2", scaled_gaussian_family(2.0, 1)), ("circle_a4", round_circle_family(4.0))):
        t = run_flow(RunRequest(family=family, horizon=0.1, dt=1e-3, cadence=10, k=2, track_scalars=False))
        outcome = detect_splitting(t, t.times[0], t.times[-1], window)
        checks.append(Check(f"{name} certificates", float(isinstance(outcome, SplittingCertificate)), 0.0))
    return checks


@_criterion(10, "spectra on analytic backends")
def criterion_10_spectral_correctness() -> list:
    gauss_devs = []
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        dm = gaussian_line(a, order=8)
        res = lowest_eigenpairs(assemble_forms(dm), 6)
        gauss_devs.append(np.max(np.abs(res.eigenvalues - np.arange(7) / (2.0 * a))))

    worst_circle = 0.0
    for a in (0.25, 1.0, 4.0):
        dm = weighted_circle(64, a=a)
        forms = assemble_forms(dm)
        res = lowest_eigenpairs(forms, 6)
        expected = np.array([0.0, 1.0, 1.0, 4.0, 4.0, 9.0, 9.0]) / a
        worst_circle = max(worst_circle, float(np.max(np.abs(res.eigenvalues - expected))))
        dense = dense_spectrum(forms)[:7]
        worst_circle = max(worst_circle, float(np.max(np.abs(res.eigenvalues - dense))))
    return [
        Check("gaussian |lambda_j - j/(2a)|", float(np.max(gauss_devs)), 0.0),
        Check("circle worst dev", worst_circle, 1e-10),
    ]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results
