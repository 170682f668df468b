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

Every gradient quantity comes from the batched derivative pass of
``spectral._derivatives``: the normalization of the direction fields, and
in ``certificate_residuals`` the Hessian energies, the pointwise gradient
Gram of each pair (one pair's field held at a time), the split axes, f_N,
the metric block and the factor equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .axes import along
from .errors import UsageError
from .flow import FlowTrajectory, output_index
from .geometry import DiscreteWeightedManifold
from .spectral import _derivatives, _hessian_energies, assemble_forms, lowest_eigenpairs

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
    ``directions`` holds the k unit-gradient direction fields, (k, *shape).
    """

    k: int
    directions: np.ndarray
    lambda_cluster_t0: float
    lambda_1_t1: float
    residuals: dict

    def __bool__(self) -> bool:
        return True

    def to_json_dict(self) -> dict:
        hypotheses = {"lambda_cluster_t0": self.lambda_cluster_t0, "lambda_1_t1": self.lambda_1_t1}
        return {"k": self.k, "hypotheses": hypotheses, "residuals": self.residuals}


def _gradient_gram(dm, du, pairs):
    """Pointwise <grad u_i, grad u_j> of a batch with partials ``du``, one
    grid field per pair (i, j), summed over the axes in axis order; a
    generator, so that one pair's field is held at a time."""
    ainv = [along(1.0 / ax.a, m, dm.dimension) for m, ax in enumerate(dm.axes)]
    for i, j in pairs:
        yield sum(w * g[i] * g[j] for w, g in zip(ainv, du))


def _worst(fields) -> float:
    """The largest |x| over the entries of some arrays; a NaN anywhere is the worst."""
    return float(np.max([np.max(np.abs(x)) for x in fields]))


def certificate_residuals(directions, dm: DiscreteWeightedManifold) -> dict:
    """Every certificate residual of the direction fields ``directions`` on ``dm``.

    Covers the parallelism test (Hessian energies), the unit-speed and
    orthogonality tests on the gradients, the weight decomposition, the
    metric block structure, and the reduced factor equations for the
    non-split part.  The direction fields take one derivative pass as a
    batch (``spectral._derivatives``), and q = (1/4) sum u_i^2 another;
    every residual is built from the partials and Hessian components of
    these two passes, and only the mixed partials take more derivatives.
    """
    dirs = np.asarray(directions, dtype=float)
    k, d = len(dirs), dm.dimension
    if k == 0:
        names = ("gradient_gram_mean", "gradient_gram_deviation", "gradient_norm_deviation", "weight_decomposition",
                 "metric_block", "factor_equation_1", "factor_equation_2")
        return {"hessian_energies": np.zeros(0), **dict.fromkeys(names, 0.0)}
    du, h = _derivatives(dm, dirs)
    hess_energies = _hessian_energies(dm, du, h)

    # The gradient Gram of the pairs i <= j: parallel orthonormal gradients
    # make each pair's field the constant delta_ij.
    pairs = list(zip(*np.triu_indices(k)))
    volume = dm.weighted_volume()
    devs, means = np.empty(len(pairs)), []
    for n, ((i, j), p) in enumerate(zip(pairs, _gradient_gram(dm, du, pairs))):
        devs[n] = np.max(np.abs(p - float(i == j)))
        means.append(dm.integrate(p) / volume)

    # The split axes are those along which some direction field varies; the
    # weight less q averages over them to f_N, a function on the complement.
    strengths = [float(np.max(np.abs(g))) for g in du]
    split = [i for i, s in enumerate(strengths) if s > 1e-3 * max(*strengths, 1e-300)]
    quarter_sq = 0.25 * sum(u * u for u in dirs)
    fbar = dm.f_field() - quarter_sq
    f_n = fbar
    for i in split:
        w = dm.axes[i].wdens
        f_n = np.sum(f_n * along(w / np.sum(w), i, d), axis=i, keepdims=True)
    a = [along(ax.a, i, d) for i, ax in enumerate(dm.axes)]

    # Reduced factor equations: the split block of g - 2 Hess_f must be
    # static, the complement must see Hess_f through fbar only, and the
    # weight equation loses exactly k/2 through Delta(quarter_sq).
    dq, hq = _derivatives(dm, quarter_sq[None])
    blocks = (a[i] - 2.0 * along(ax.hess_f, i, d) if i in split else 2.0 * hq[i] for i, ax in enumerate(dm.axes))
    mixed = (2.0 * dm.axes[j].d1(dq[i], j + 1) for i in range(d) for j in range(i + 1, d))

    return {
        "hessian_energies": hess_energies,
        "gradient_gram_mean": sum(means) / len(means),
        "gradient_gram_deviation": float(np.max(devs)),
        "gradient_norm_deviation": float(np.max(devs[[i == j for i, j in pairs]])),
        "weight_decomposition": _worst([fbar - f_n]),
        "metric_block": _worst(sum(x * x for x in g) / a[i] - float(i in split) for i, g in enumerate(du)),
        "factor_equation_1": _worst(chain(blocks, mixed)),
        "factor_equation_2": _worst([sum(hq[i] / a[i] for i in range(d)) - k / 2.0]),
    }


def detect_splitting(traj: FlowTrajectory, t0: float, t1: float, window: float):
    """Build a splitting certificate from the eigenvalue-1/2 cluster.

    An eigenvalue within ``window`` of 1/2 counts as 1/2.  Reads the
    recorded eigenvalues at the outputs nearest t0 and t1 (UsageError
    unless t1's comes after t0's), and returns a
    SplittingHypothesisFailure naming the violated hypothesis when the
    eigenvalue conditions do not hold.  The direction fields are the
    cluster's eigenfunctions at t0, from one solve of that output with the
    run's k and ``eig_tol``: the bits of the run's own stacked solve.  With
    no eigenvalue in the window, the failing record reads the first lambda_j,
    j = 1..k, nearest 1/2.
    """
    i0, i1 = output_index(traj.request, t0), output_index(traj.request, t1)
    if i1 <= i0:
        raise UsageError(f"need t0 < t1 at two outputs: t0 = {t0} and t1 = {t1} read outputs {i0} and {i1}")
    lam0, lam1 = traj.eigenvalues[i0], traj.eigenvalues[i1]
    lambda_1_t1 = float(lam1[1])
    cluster = [i for i in range(1, len(lam0)) if abs(lam0[i] - 0.5) <= window]
    if not cluster:
        j = 1 + int(np.argmin(np.abs(lam0[1:] - 0.5)))  # the first nearest lambda_j, j = 1..k
        nearest = float(lam0[j])
        return SplittingHypothesisFailure(
            violated="lambda_k(t0) = 1/2",
            lambda_cluster_t0=nearest,
            lambda_1_t1=lambda_1_t1,
            message=f"no eigenvalue within {window:g} of 1/2 at t0 (the nearest is lambda_{j} = {nearest:.6g})",
            record=(f"|lambda_{j}(t0) - 1/2|", abs(nearest - 0.5), window),
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
    fields = lowest_eigenpairs(assemble_forms(dm), traj.request.k, traj.request.eig_tol).eigenfunctions[cluster]
    # each field scaled so that |grad u|^2, the diagonal of its gradient Gram, averages to 1
    diagonal = [(c, c) for c in range(len(cluster))]
    energies = [dm.integrate(p) for p in _gradient_gram(dm, _derivatives(dm, fields)[0], diagonal)]
    directions = fields * along(np.sqrt(dm.weighted_volume() / np.array(energies)), 0, dm.dimension + 1)

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
