"""Scenario execution: run the flow and its checks, then write reproducible artifacts.

The checks, their tolerance table and the pass rule live in ``acceptance``,
which ``driftflow verify`` also runs; this module only records their
results.  Every run writes a trajectory CSV, a bound-overlay CSV, a spectra
JSON, an optional splitting certificate, and a manifest that references
every emitted file and records the config hash, the tolerance table, each
check's (name, value, tol, margin, passed) records under ``verifications``,
and one oracle report per distinct starting eigenvalue; a non-finite
value, tol or margin is written as the string "Infinity", "-Infinity" or
"NaN", and every JSON text is dumped with ``allow_nan=False``, so no file
holds a bare token.  Files are written only after every check has run, and
only once every JSON text can be built.  Each artifact's text is built
whole before its file is opened and written in one call by ``_write_text``,
the one place a file is opened for writing (the CLI's
``sweep_manifest.json`` and ``acceptance_report.json`` included): the CSVs
and ``spectra.json`` by one ``%`` operation per block of ``_ROWS`` rows,
the other JSON files by one ``json.dumps``.  CSV values are ``%.17g`` and
``spectra.json`` is laid out as ``indent=2, sort_keys=True``, with newline
endings, so re-running an identical config reproduces the bytes.
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


# Rows filled per % operation.  A long run's text is built in blocks of this many rows, so that the
# Python floats of only one block are alive at a time: one % over every row of a long run would
# hold all of them, and the template and the text besides.
_ROWS = 1024


def _write_text(path: str, *pieces: str) -> None:
    """The one place an artifact file is opened: its text, built whole beforehand, in one call."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def _rows(table: np.ndarray, row: str, sep: str = "") -> list:
    """Each row of ``table`` filled into the %-template ``row``, joined by ``sep``; one piece per _ROWS rows."""
    pieces = []
    for start in range(0, len(table), _ROWS):
        block = table[start : start + _ROWS]
        pieces.append((sep if start else "") + sep.join([row] * len(block)) % tuple(block.ravel().tolist()))
    return pieces


def _write_csv(path: str, header: list, *columns) -> None:
    """The header line, then one line per row of the columns side by side, each value as %.17g."""
    table = np.column_stack(columns)
    _write_text(path, ",".join(header) + "\n", *_rows(table, ",".join(["%.17g"] * table.shape[1]) + "\n"))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_json(path: str, payload) -> None:
    _write_text(path, _json_text(payload))


def _spectra(times: np.ndarray, eigenvalues: np.ndarray, residuals: np.ndarray) -> list:
    """The pieces of ``_json_text`` of one {"t", "eigenvalues", "residuals", "normalization"} object per output.

    Each output fills a template laid out as ``indent=2, sort_keys=True``
    lays it out, with ``%r``: ``float.__repr__``, json's own float token.  A
    non-finite value raises ``ValueError``, as ``allow_nan=False`` does.
    """
    table = np.column_stack([eigenvalues, residuals, times])
    if not np.isfinite(table).all():
        raise ValueError("spectra hold a non-finite value, which JSON cannot represent")

    def numbers(width: int) -> str:
        return "[\n      " + ",\n      ".join(["%r"] * width) + "\n    ]"

    entry = ('  {\n    "eigenvalues": ' + numbers(eigenvalues.shape[1]) + ',\n    "normalization": "weighted-L2",'
             '\n    "residuals": ' + numbers(residuals.shape[1]) + ',\n    "t": %r\n  }')
    return ["[\n", *_rows(table, entry, ",\n"), "\n]\n"]


def _splitting(config: ScenarioConfig, traj: FlowTrajectory) -> tuple[dict, list]:
    """The certificate payload and the records of the splitting check."""
    tolerances = splitting_tolerances(config.backend)
    outcome = detect_splitting(traj, *config.splitting_window(), tolerances["eigenvalue"])
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

    bounds = [f"bound_{j}" for j in range(1, config.k + 1)]
    energies = traj.series.get("E", np.empty((len(traj.times), 0)))
    header = ["t", *(f"lambda_{j}" for j in range(config.k + 1)), *bounds, "volume",
              *(f"E_{i}" for i in range(1, energies.shape[1] + 1)), "residual_IJ", "residual_commutator"]
    # Every JSON text is built before the first file is written, so a non-finite value leaves no run directory
    # behind.  The spectra's pieces are dropped once written, so that no two large texts are alive at once.
    texts = {"manifest.json": _json_text(manifest)}
    if certificate is not None:
        texts["certificate.json"] = _json_text(certificate)
    spectra = _spectra(traj.times, traj.eigenvalues, traj.eigen_residuals)

    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "spectra.json"), *spectra)
    del spectra
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, traj.times, traj.eigenvalues, traj.bounds,
               traj.volumes, energies, traj.residual_ij, traj.residual_commutator)
    _write_csv(os.path.join(out_dir, "bounds.csv"), ["s", *bounds], traj.times - traj.times[0], traj.bounds)
    for name, text in texts.items():
        _write_text(os.path.join(out_dir, name), text)

    return RunResult(config=config, trajectory=traj, out_dir=out_dir, files=files, verifications=verifications)
