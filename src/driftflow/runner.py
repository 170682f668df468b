"""Scenario execution: run the flow and its checks, then write reproducible artifacts.

The checks, their tolerance table and the pass rule live in ``acceptance``,
which ``driftflow verify`` also runs; this module only records their
results.  Every run writes a trajectory CSV, a bound-overlay CSV, a spectra
JSON, an optional splitting certificate, and a manifest that references
every emitted file and records the config hash, the tolerance table, each
check's (name, value, tol, margin, passed) records under ``verifications``,
and one oracle report per distinct starting eigenvalue.  Files are written
only after every check has run.  CSV numeric content is formatted
with 17 significant digits and newline endings, so re-running an identical
config reproduces the bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .acceptance import (
    VERIFY_TOLERANCES, check_bochner, check_bounds, check_commutator, check_functionals, check_splitting, failed,
    splitting_tolerances,
)
from .comparison import eigenvalue_bound
from .config import ScenarioConfig
from .errors import HorizonError
from .flow import FlowTrajectory, run_flow
from .oracles import OracleReport, equality_ode_extrapolated
from .splitting import detect_splitting

__all__ = ["execute", "RunResult"]


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    trajectory: FlowTrajectory
    out_dir: str
    files: list
    verifications: dict

    @property
    def failed(self) -> list:
        """Names of the checks that did not pass."""
        return failed(self.verifications)


def _write_trajectory_csv(path: str, traj: FlowTrajectory, k: int) -> None:
    n_out = len(traj.times)
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
            row += list(traj.eigenvalues[m])
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


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _splitting(config: ScenarioConfig, traj: FlowTrajectory) -> tuple[dict, list]:
    """The certificate payload and the records of the splitting check."""
    t0 = config.splitting_t0 if config.splitting_t0 is not None else traj.times[0]
    t1 = config.splitting_t1 if config.splitting_t1 is not None else traj.times[-1]
    tolerances = splitting_tolerances(config.backend)
    outcome = detect_splitting(traj, t0, t1, tolerances["eigenvalue"])
    checks = check_splitting(outcome, config.backend)
    payload = dict(outcome.to_json_dict(), valid=not failed({"splitting": checks}), tolerances=tolerances)
    return payload, checks


def _oracle_reports(traj: FlowTrajectory, k: int) -> list:
    """Closed-form bound cross-checked against the equality-case RK4 oracle,
    Richardson-extrapolated, at the run's own distinct starting eigenvalues
    and final lag."""
    reports = []
    seen = set()
    s_final = float(traj.times[-1] - traj.times[0])
    for lam in traj.eigenvalues[0, 1 : k + 1]:
        lam = float(lam)
        if lam <= 0 or lam in seen:
            continue
        seen.add(lam)
        inputs = {"lambda0": lam, "s": s_final}
        try:
            target = eigenvalue_bound(lam, s_final)
            reference = equality_ode_extrapolated(lam, s_final)
        except HorizonError as exc:
            reports.append({"oracle": "integrate_equality_ode", "inputs": inputs, "skipped": str(exc)})
            continue
        reports.append(
            OracleReport.compare("integrate_equality_ode", inputs, [reference], [target]).to_json_dict()
        )
    return reports


def execute(config: ScenarioConfig, out_root: str | None = None) -> RunResult:
    """Run one scenario, run its checks, then write its artifacts under out_root/name.

    Nothing is written until every check has run, so a check that raises
    leaves no run directory behind.
    """
    out_root = out_root or config.out_dir or os.environ.get("DRIFTFLOW_OUT", "runs")
    out_dir = os.path.join(out_root, config.name)
    traj = run_flow(config.to_request())

    verifications = {}
    if config.check_bounds:
        verifications["bounds"] = check_bounds(traj)
    if config.check_functionals:
        verifications["functionals"] = check_functionals(traj)
    if config.check_commutator:
        verifications["commutator"] = check_commutator(traj)
    if config.check_bochner:
        verifications["bochner"] = check_bochner(traj.manifolds[0], config.seed)
    certificate = None
    if config.check_splitting:
        certificate, verifications["splitting"] = _splitting(config, traj)
    oracle_reports = _oracle_reports(traj, config.k)

    files = ["bounds.csv", "manifest.json", "spectra.json", "trajectory.csv"]
    if certificate is not None:
        files = sorted(files + ["certificate.json"])
    manifest = {
        "name": config.name,
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "driftflow_version": __version__,
        "tolerances": VERIFY_TOLERANCES,
        "files": files,
        "verifications": {name: [c.to_json_dict() for c in checks] for name, checks in verifications.items()},
        "oracle_reports": oracle_reports,
        "outputs": len(traj.times),
    }

    os.makedirs(out_dir, exist_ok=True)
    _write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj, config.k)
    _write_bounds_csv(os.path.join(out_dir, "bounds.csv"), traj, config.k)
    rows = zip(traj.times.tolist(), traj.eigenvalues.tolist(), traj.eigen_residuals.tolist())
    spectra = [{"t": t, "eigenvalues": lam, "residuals": res, "normalization": "weighted-L2"} for t, lam, res in rows]
    _write_json(os.path.join(out_dir, "spectra.json"), spectra)
    if certificate is not None:
        _write_json(os.path.join(out_dir, "certificate.json"), certificate)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)

    return RunResult(config=config, trajectory=traj, out_dir=out_dir, files=files, verifications=verifications)
