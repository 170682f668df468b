"""Independent brute-force references used by tests and acceptance runs.

These deliberately avoid the fast paths of the main engines: the dense solve
forms the Kronecker-sum stiffness matrix, which the fast path only applies
factor by factor, and diagonalizes the full pair; the equality-case ODE is
integrated step by step instead of using the closed form it validates.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError, OracleError, UsageError

__all__ = [
    "OracleReport",
    "dense_spectrum",
    "dense_stiffness",
    "integrate_equality_ode",
    "finite_diff_time_derivative",
]

_OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class OracleReport:
    """Reproducible record of one oracle-vs-target comparison."""

    oracle: str
    inputs_digest: str
    reference: list
    target: list
    abs_deviation: float
    rel_deviation: float

    def to_json_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "inputs_digest": self.inputs_digest,
            "reference": self.reference,
            "target": self.target,
            "abs_deviation": self.abs_deviation,
            "rel_deviation": self.rel_deviation,
        }

    @classmethod
    def compare(cls, oracle: str, inputs, reference, target) -> "OracleReport":
        digest = hashlib.sha256(
            json.dumps(inputs, sort_keys=True, default=repr).encode()
        ).hexdigest()[:16]
        ref = np.atleast_1d(np.asarray(reference, dtype=float))
        tgt = np.atleast_1d(np.asarray(target, dtype=float))
        if ref.shape != tgt.shape:
            raise UsageError("reference and target shapes differ")
        absd = float(np.max(np.abs(ref - tgt)))
        scale = float(np.max(np.abs(ref)))
        return cls(
            oracle=oracle,
            inputs_digest=digest,
            reference=[float(x) for x in ref],
            target=[float(x) for x in tgt],
            abs_deviation=absd,
            rel_deviation=absd / scale if scale > 0 else absd,
        )


def dense_stiffness(forms) -> np.ndarray:
    """The stiffness of factored forms as one dense Kronecker-sum matrix.

    Each block is made dense by applying it to the identity.
    """
    size = forms.dimension
    stiff = np.zeros((size, size))
    for i, block in enumerate(forms.blocks):
        factor = np.ones((1, 1))
        for j, mass in enumerate(forms.axis_masses):
            factor = np.kron(factor, block @ np.eye(mass.size) if j == i else np.diag(mass))
        stiff += factor
    stiff *= forms.scale
    return stiff


def dense_spectrum(forms) -> np.ndarray:
    """All generalized eigenvalues of the assembled pair, ascending."""
    size = forms.dimension
    if size > 2048:
        raise OracleError(f"dense solve capped at dimension 2048, got {size}")
    mass = np.asarray(forms.mass_diag, dtype=float)
    if np.min(mass) <= 0.0:
        raise OracleError("mass form is not positive definite")
    from scipy.linalg import eigh  # imported on use, off the CLI's import path
    vals = eigh(dense_stiffness(forms), np.diag(mass), eigvals_only=True)
    return vals


def integrate_equality_ode(F0: float, s: float, dt: float = 1e-4) -> float:
    """RK4 solution of F' = (2F - 1) F from F(0) = F0 over lag s.

    This is the equality case of the eigenvalue differential inequality and
    serves as the independent check of the closed-form bound.  Blow-up past
    the overflow guard raises a HorizonError.
    """
    F0 = float(F0)
    s = float(s)
    if dt <= 0.0:
        raise UsageError(f"step size must be positive, got {dt}")
    if s < 0.0:
        raise UsageError(f"lag must be nonnegative, got {s}")

    nsteps = max(1, int(round(s / dt))) if s > 0 else 0
    h = s / nsteps if nsteps else 0.0
    half, sixth = 0.5 * h, h / 6.0
    F = F0
    # Plain float arithmetic, stages written out: the rhs is (2F - 1) F.
    for _ in range(nsteps):
        k1 = (2.0 * F - 1.0) * F
        x = F + half * k1
        k2 = (2.0 * x - 1.0) * x
        x = F + half * k2
        k3 = (2.0 * x - 1.0) * x
        x = F + h * k3
        k4 = (2.0 * x - 1.0) * x
        F = F + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(F) or abs(F) > _OVERFLOW_GUARD:
            horizon = np.log(2.0 * F0 / (2.0 * F0 - 1.0)) if F0 > 0.5 else np.inf
            raise HorizonError(horizon, "equality ODE blew up before the requested lag")
    return F


def finite_diff_time_derivative(series, dt: float) -> np.ndarray:
    """Second-order time derivative of a uniformly sampled series.

    Central differences at interior samples, one-sided three-point stencils
    at the endpoints.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim < 1 or series.shape[0] < 3:
        raise UsageError("need at least 3 samples for a second-order derivative")
    if dt <= 0.0:
        raise UsageError(f"grid spacing must be positive, got {dt}")
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * dt)
    out[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * dt)
    return out
