"""Numerical rigidity certificates for flat-direction splitting.

When the k-th eigenvalue sits at 1/2 at time t0 and the first eigenvalue is
still at least 1/2 at a later t1, the state must split off k flat directions
carrying a Gaussian weight.  The certificate records the measurable
consequences of that rigidity instead of reconstructing the complement
factor: vanishing Hessian energy of the direction fields, orthonormal
parallel gradients, the weight decomposition f = f_N + (1/4) sum u_i^2, and
the reduced factor equations.

This module only measures.  The caller passes the window around 1/2 in
which eigenvalues count as 1/2; ``acceptance.check_splitting`` turns a
certificate, or the hypothesis that blocked one, into (value, tol) records
at the tolerances of ``acceptance.VERIFY_TOLERANCES``.  ``detect_splitting``
builds each frozen certificate once, from the worst of its residuals at the
two outputs (``certificate_residuals``), each under its one name, its key in
``certificate.json``.  A run keeps only its eigenvalues, so the certificate
re-solves the one output at t0 for its direction fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .axes import along
from .errors import UsageError
from .flow import FlowTrajectory, output_index
from .geometry import DiscreteWeightedManifold
from .spectral import _derivatives, _hessian_energies, assemble_forms, gradient_inner, lowest_eigenpairs, partials

__all__ = [
    "SplittingCertificate",
    "SplittingHypothesisFailure",
    "detect_splitting",
    "certificate_residuals",
]


@dataclass(frozen=True)
class SplittingHypothesisFailure:
    """Names the hypothesis that blocked certificate construction, with the
    failing record (name, value, tol) of that hypothesis."""

    violated: str
    lambda_cluster_t0: float
    lambda_1_t1: float
    message: str
    record: tuple

    def __bool__(self) -> bool:
        return False

    def to_json_dict(self) -> dict:
        failure = {key: getattr(self, key) for key in ("violated", "lambda_cluster_t0", "lambda_1_t1", "message")}
        return {"k": 0, "hypothesis_failure": failure}


@dataclass(frozen=True)
class SplittingCertificate:
    """Evidence that the state splits off k flat Gaussian-weighted directions.

    ``residuals`` maps each residual's ``certificate.json`` name to its worst
    value over the two outputs, the Hessian energies as a list, one per direction.
    """

    k: int
    directions: list
    lambda_cluster_t0: float
    lambda_1_t1: float
    residuals: dict

    def __bool__(self) -> bool:
        return True

    def to_json_dict(self) -> dict:
        hypotheses = {"lambda_cluster_t0": self.lambda_cluster_t0, "lambda_1_t1": self.lambda_1_t1}
        return {"k": self.k, "hypotheses": hypotheses, "residuals": self.residuals}


def _split_axes(dm, grads):
    """Axes along which some direction field actually varies."""
    strengths = np.zeros(dm.dimension)
    for i in range(dm.dimension):
        for du in grads:
            strengths[i] = max(strengths[i], float(np.max(np.abs(du[i]))))
    scale = max(float(np.max(strengths)), 1e-300)
    return [i for i in range(dm.dimension) if strengths[i] > 1e-3 * scale]


def _axis_average(dm, field, axes_to_avg):
    """Weighted average of a field over the given axes, each kept as a
    length-1 axis that broadcasts against the grid."""
    out = field
    for i in axes_to_avg:
        w = dm.axes[i].wdens
        out = np.sum(out * along(w / np.sum(w), i, dm.dimension), axis=i, keepdims=True)
    return out


def certificate_residuals(directions, dm: DiscreteWeightedManifold) -> dict:
    """Every certificate residual of the direction fields ``directions`` on ``dm``.

    Covers the parallelism test (Hessian energies), the unit-speed and
    orthogonality tests on the gradients, the weight decomposition, the
    metric block structure, and the reduced factor equations for the
    non-split part.  The direction fields take one derivative pass as a
    batch (``spectral._derivatives``), and q = (1/4) sum u_i^2 another; the
    Hessian energies, the gradients, Hess q and Delta q are built from them.
    """
    k = len(directions)
    if k == 0:
        names = ("gradient_gram_mean", "gradient_gram_deviation", "gradient_norm_deviation", "weight_decomposition",
                 "metric_block", "factor_equation_1", "factor_equation_2")
        return {"hessian_energies": np.zeros(0), **dict.fromkeys(names, 0.0)}
    dirs = np.asarray(directions, dtype=float)
    du, h = _derivatives(dm, dirs)
    hess_energies = _hessian_energies(dm, du, h)
    grads = list(zip(*du))  # per direction, its partial along each axis

    # Pointwise gradient inner products: parallel orthonormal gradients make
    # these constant delta_ij fields.
    norm_dev = 0.0
    gram_dev = 0.0
    gram_sum = 0.0
    for i in range(k):
        for j in range(i, k):
            pij = gradient_inner(dm, grads[i], grads[j])
            target = 1.0 if i == j else 0.0
            dev = float(np.max(np.abs(pij - target)))
            if i == j:
                norm_dev = max(norm_dev, dev)
            else:
                gram_dev = max(gram_dev, dev)
            gram_sum += dm.integrate(pij) / dm.weighted_volume()
    gram_mean = gram_sum / (k * (k + 1) / 2)
    gram_dev = max(gram_dev, norm_dev)

    split = _split_axes(dm, grads)
    quarter_sq = 0.25 * sum(u * u for u in dirs)

    fbar = dm.f_field() - quarter_sq
    f_n = _axis_average(dm, fbar, split)
    weight_residual = float(np.max(np.abs(fbar - f_n)))

    metric_residual = 0.0
    for i, ax in enumerate(dm.axes):
        a = along(ax.a, i, dm.dimension)
        speed = sum(du[i] * du[i] for du in grads) / a
        target = 1.0 if i in split else 0.0
        metric_residual = max(metric_residual, float(np.max(np.abs(speed - target))))

    # Reduced factor equations: the split block of g - 2 Hess_f must be
    # static, the complement must see Hess_f through fbar only, and the
    # weight equation loses exactly k/2 through Delta(quarter_sq).
    dq, hq = _derivatives(dm, quarter_sq[None])
    check1 = 0.0
    lap_q = 0.0
    for i, ax in enumerate(dm.axes):
        a = along(ax.a, i, dm.dimension)
        if i in split:
            check1 = max(check1, float(np.max(np.abs(a - 2.0 * along(ax.hess_f, i, dm.dimension)))))
        else:
            check1 = max(check1, float(np.max(np.abs(2.0 * hq[i]))))
        for j in range(i + 1, dm.dimension):
            cross = dm.axes[j].d1(dq[i], j + 1)
            check1 = max(check1, float(np.max(np.abs(2.0 * cross))))
        lap_q = lap_q + hq[i] / a
    check2 = float(np.max(np.abs(lap_q - k / 2.0)))

    return {
        "hessian_energies": hess_energies,
        "gradient_gram_mean": gram_mean,
        "gradient_gram_deviation": gram_dev,
        "gradient_norm_deviation": norm_dev,
        "weight_decomposition": weight_residual,
        "metric_block": metric_residual,
        "factor_equation_1": check1,
        "factor_equation_2": check2,
    }


def detect_splitting(traj: FlowTrajectory, t0: float, t1: float, window: float):
    """Build a splitting certificate from the eigenvalue-1/2 cluster.

    An eigenvalue within ``window`` of 1/2 counts as 1/2.  Reads the
    recorded eigenvalues at the outputs nearest t0 and t1 (UsageError
    unless t1's comes after t0's), and returns a
    SplittingHypothesisFailure naming the violated hypothesis when the
    eigenvalue conditions do not hold.  The direction fields are the
    cluster's eigenfunctions at t0, from one solve of that output with the
    run's k and ``eig_tol``: the bits of the run's own stacked solve.
    """
    i0, i1 = output_index(traj.request, t0), output_index(traj.request, t1)
    if i1 <= i0:
        raise UsageError(f"need t0 < t1 at two outputs: t0 = {t0} and t1 = {t1} read outputs {i0} and {i1}")
    lam0, lam1 = traj.eigenvalues[i0], traj.eigenvalues[i1]
    lambda_1_t1 = float(lam1[1])
    cluster = [i for i in range(1, len(lam0)) if abs(lam0[i] - 0.5) <= window]
    if not cluster:
        nearest = float(lam0[1]) if len(lam0) > 1 else math.nan
        return SplittingHypothesisFailure(
            violated="lambda_k(t0) = 1/2",
            lambda_cluster_t0=nearest,
            lambda_1_t1=lambda_1_t1,
            message=f"no eigenvalue within {window:g} of 1/2 at t0 (lambda_1 = {nearest:.6g})",
            record=("|lambda_1(t0) - 1/2|", abs(nearest - 0.5), window),
        )
    if lambda_1_t1 < 0.5 - window:
        return SplittingHypothesisFailure(
            violated="lambda_1(t1) >= 1/2",
            lambda_cluster_t0=float(lam0[cluster[-1]]),
            lambda_1_t1=lambda_1_t1,
            message=f"lambda_1(t1) = {lambda_1_t1:.6g} dropped below 1/2",
            record=("1/2 - window - lambda_1(t1)", (0.5 - window) - lambda_1_t1, 0.0),
        )

    dm = traj.manifolds[i0]
    volume = dm.weighted_volume()
    fields = lowest_eigenpairs(assemble_forms(dm), traj.request.k, traj.request.eig_tol).eigenfunctions
    directions = []
    for u in fields[cluster]:
        du = partials(dm, u)
        energy = dm.integrate(gradient_inner(dm, du, du))
        directions.append(u * math.sqrt(volume / energy))

    at_t0, at_t1 = (certificate_residuals(directions, traj.manifolds[m]) for m in (i0, i1))
    residuals = {key: np.maximum(val, at_t1[key]).tolist() for key, val in at_t0.items()}
    residuals["eigenvalue_window_deviation"] = float(np.max(np.abs(traj.eigenvalues[i0 : i1 + 1, cluster] - 0.5)))
    return SplittingCertificate(
        k=len(cluster),
        directions=directions,
        lambda_cluster_t0=float(lam0[cluster[-1]]),
        lambda_1_t1=lambda_1_t1,
        residuals=residuals,
    )
