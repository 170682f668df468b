"""Scenario execution: run the flow, verify, and emit reproducible artifacts.

Every run writes a trajectory CSV, a bound-overlay CSV, a spectra JSON, and
a manifest that references every emitted file and records the config hash,
tolerances, and oracle reports.  CSV numeric content is formatted with 17
significant digits and newline endings, so re-running an identical config
reproduces the bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .comparison import eigenvalue_bound
from .config import ScenarioConfig
from .errors import HorizonError
from .flow import FlowTrajectory, functional_residuals, run_flow
from .oracles import OracleReport, integrate_equality_ode
from .spectral import bochner_sides
from .splitting import SplittingCertificate, detect_splitting

__all__ = ["execute", "RunResult", "VERIFY_TOLERANCES"]

VERIFY_TOLERANCES = {
    "bounds_slack": 1e-6,
    "functionals_rel": 1e-4,
    "energy_violation_rel": 1e-8,
    "volume_drift_rel": 1e-6,
    "mean_zero": 1e-9,
    "commutator_rel": 1e-5,
    "bochner_rel": 1e-8,
}


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass
class RunResult:
    config: ScenarioConfig
    trajectory: FlowTrajectory
    out_dir: str
    files: list
    verifications: dict

    @property
    def ok(self) -> bool:
        return all(v.get("passed", True) for v in self.verifications.values())


def _write_trajectory_csv(path: str, traj: FlowTrajectory, k: int) -> None:
    n_out = len(traj.times)
    lam = np.stack([sp.eigenvalues for sp in traj.spectra])
    cols = ["t"]
    cols += [f"lambda_{j}" for j in range(k + 1)]
    cols += [f"bound_{j}" for j in range(1, k + 1)]
    cols += ["volume"]
    ns = traj.scalar_values.shape[1] if traj.scalar_values is not None else 0
    cols += [f"E_{i}" for i in range(1, ns + 1)]
    cols += ["residual_IJ", "residual_commutator"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for m in range(n_out):
            row = [traj.times[m]]
            row += list(lam[m])
            row += list(traj.bounds[m])
            row.append(traj.volumes[m])
            if ns:
                row += list(traj.series["E"][m])
            row.append(traj.residual_ij[m])
            row.append(traj.residual_commutator[m])
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _write_bounds_csv(path: str, traj: FlowTrajectory, k: int) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("s," + ",".join(f"bound_{j}" for j in range(1, k + 1)) + "\n")
        s_values = traj.times - traj.times[0]
        for m, s in enumerate(s_values):
            fh.write(",".join(_fmt(x) for x in [s, *traj.bounds[m]]) + "\n")


def _verify_bounds(traj: FlowTrajectory, k: int) -> dict:
    slack = VERIFY_TOLERANCES["bounds_slack"]
    worst = -math.inf
    for j in range(1, k + 1):
        lam_j = np.array([sp.eigenvalues[j] for sp in traj.spectra])
        finite = np.isfinite(traj.bounds[:, j - 1])
        if not np.any(finite):
            continue
        worst = max(worst, float(np.max(lam_j[finite] - traj.bounds[finite, j - 1])))
    return {"passed": worst <= slack, "max_excess": worst, "slack": slack}


def _verify_functionals(traj: FlowTrajectory) -> dict:
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


def _verify_commutator(traj: FlowTrajectory) -> dict:
    if len(traj.times) < 3:
        return {"passed": True, "note": "too few outputs"}
    interior = traj.residual_commutator[1:-1]
    worst = float(np.max(interior))
    return {"passed": worst <= VERIFY_TOLERANCES["commutator_rel"], "max_rel": worst}


def _verify_bochner(traj: FlowTrajectory, seed: int) -> dict:
    dm = traj.states[0].manifold
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


def execute(config: ScenarioConfig, out_root: str | None = None) -> RunResult:
    """Run one scenario and write its artifacts under out_root/name."""
    out_root = out_root or config.out_dir or os.environ.get("DRIFTFLOW_OUT", "runs")
    out_dir = os.path.join(out_root, config.name)
    traj = run_flow(config.to_request())
    os.makedirs(out_dir, exist_ok=True)

    files = []

    traj_csv = os.path.join(out_dir, "trajectory.csv")
    _write_trajectory_csv(traj_csv, traj, config.k)
    files.append("trajectory.csv")

    bounds_csv = os.path.join(out_dir, "bounds.csv")
    _write_bounds_csv(bounds_csv, traj, config.k)
    files.append("bounds.csv")

    spectra_path = os.path.join(out_dir, "spectra.json")
    with open(spectra_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([sp.to_json_dict() for sp in traj.spectra], fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append("spectra.json")

    verifications = {}
    if config.check_bounds:
        verifications["bounds"] = _verify_bounds(traj, config.k)
    if config.check_functionals:
        verifications["functionals"] = _verify_functionals(traj)
    if config.check_commutator:
        verifications["commutator"] = _verify_commutator(traj)
    if config.check_bochner:
        verifications["bochner"] = _verify_bochner(traj, config.seed)

    certificate = None
    if config.check_splitting:
        t0 = config.splitting_t0 if config.splitting_t0 is not None else traj.times[0]
        t1 = config.splitting_t1 if config.splitting_t1 is not None else traj.times[-1]
        outcome = detect_splitting(traj, t0, t1)
        cert_path = os.path.join(out_dir, "certificate.json")
        if isinstance(outcome, SplittingCertificate):
            payload = outcome.to_json_dict()
            verifications["splitting"] = {"passed": outcome.valid, "k": outcome.k}
        else:
            payload = {
                "k": 0,
                "valid": False,
                "hypothesis_failure": {
                    "violated": outcome.violated,
                    "lambda_cluster_t0": outcome.lambda_cluster_t0,
                    "lambda_1_t1": outcome.lambda_1_t1,
                    "message": outcome.message,
                },
            }
            verifications["splitting"] = {"passed": False, "failure": outcome.violated}
        with open(cert_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        files.append("certificate.json")
        certificate = payload

    # Closed-form bound cross-checked against the equality-case RK4 oracle at
    # the run's own starting eigenvalues and final lag.
    oracle_reports = []
    lam0 = traj.spectra[0].eigenvalues
    s_final = float(traj.times[-1] - traj.times[0])
    for j in range(1, config.k + 1):
        lam = float(lam0[j])
        if lam <= 0:
            continue
        try:
            target = eigenvalue_bound(lam, s_final)
            reference = integrate_equality_ode(lam, s_final, dt=min(1e-4, s_final / 10 or 1e-4))
        except HorizonError as exc:
            oracle_reports.append(
                {"oracle": "integrate_equality_ode", "inputs": {"lambda0": lam, "s": s_final}, "skipped": str(exc)}
            )
            continue
        oracle_reports.append(
            OracleReport.compare(
                "integrate_equality_ode", {"lambda0": lam, "s": s_final}, [reference], [target]
            ).to_json_dict()
        )

    manifest = {
        "name": config.name,
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "driftflow_version": __version__,
        "tolerances": VERIFY_TOLERANCES,
        "files": sorted(files + ["manifest.json"]),
        "verifications": verifications,
        "oracle_reports": oracle_reports,
        "outputs": len(traj.times),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        config=config,
        trajectory=traj,
        out_dir=out_dir,
        files=manifest["files"],
        verifications=verifications,
    )
