"""Independent brute-force references used by tests and acceptance runs.

These deliberately avoid the fast paths of the main engines: the dense solve
forms the Kronecker-sum stiffness matrix, which the fast path keeps in
factors, and diagonalizes the full pair; the grid residual applies the
stiffness to built eigenfunctions on the whole grid, where the solve takes
each pair's residual from per-axis inner products of its columns; the
equality-case ODE is integrated step by step instead of using the closed
form it validates, and extrapolated from two step counts; the modal
propagator solves the drift heat equation of the tracked scalars in closed
form, mode by mode in each axis's eigenbasis, with the eigenvalue
integrals of the closed-form geometry, where the integrator integrates
them along its own Galerkin geometry.  The analytic backend records its scalars from the propagator.
The pointwise gradient inner product takes two fields' coordinate partials
one pair at a time, where the splitting certificate builds the gradient
Gram of a whole batch from one derivative pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .axes import FourierStiffness, _hermite_ops, along, apply_along, axis_to_front
from .errors import HorizonError, OracleError, UsageError
from .geometry import CircleModel

__all__ = [
    "OracleReport",
    "apply_stiffness",
    "dense_spectrum",
    "dense_stiffness",
    "gradient_inner",
    "grid_eigen_residuals",
    "integrate_equality_ode",
    "equality_ode_extrapolated",
    "modal_propagator",
]

_OVERFLOW_GUARD = 1e12
_GUARD_BLOCK = 256  # steps of the equality ODE between reads of the guard
# Coarse steps of the extrapolated equality ODE: over C07's 22 cases, 500
# reads 4.6e-15 worst against the closed form, 250 reads 1.4e-13 and 1000
# 1.8e-14 (more steps, more round-off).
_RICHARDSON_STEPS = 500


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
        return asdict(self)

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

    Each block is made dense by applying it to the identity; a circle's
    through ``FourierStiffness.staggered`` whatever its weight, so the
    oracle never takes the modal path that the fast solves use.
    """
    size = forms.dimension
    stiff = np.zeros((size, size))
    for i, block in enumerate(forms.blocks):
        apply = block.staggered if isinstance(block, FourierStiffness) else block.__matmul__
        factor = np.ones((1, 1))
        for j, mass in enumerate(forms.axis_masses):
            factor = np.kron(factor, apply(np.eye(mass.size)) if j == i else np.diag(mass))
        stiff += factor
    return stiff


def apply_stiffness(forms, u) -> np.ndarray:
    """K u on the grid, for one field of the forms' shape or a batch of
    them, (..., *shape): each axis's block applied along its axis to u
    weighted by the other axes' masses.  On the forms of a stack u is an
    (s, ..., *shape) stack: each output's fields are weighted by its own
    masses (a mass the outputs share is one row) and mapped by its own
    blocks."""
    u = np.asarray(u, dtype=float)
    d = len(forms.blocks)
    if u.shape[u.ndim - d :] != forms.shape:
        raise UsageError(f"field shape {u.shape} does not end in grid {forms.shape}")
    lead = int(forms.manifold is not None and forms.manifold.stacked)
    batch = (1,) * (u.ndim - d - lead)
    masses = [along(m.reshape(m.shape[0], *batch, -1) if m.ndim > 1 else m, j, d)
              for j, m in enumerate(forms.axis_masses)]
    out = 0.0
    for i, block in enumerate(forms.blocks):
        weighted = reduce(np.multiply, [m for j, m in enumerate(masses) if j != i], u)
        out = out + apply_along(block.__matmul__, weighted, i - d, lead=lead)
    return out


def grid_eigen_residuals(forms, eigenvalues, fields) -> np.ndarray:
    """||Ku - lambda Mu|| / (||Ku|| + (1 + |lambda|) ||Mu||) of each pair of
    (k + 1,) eigenvalues and (k + 1, *shape) fields, or of a stack of them,
    taken on the grid with ``apply_stiffness`` and the full mass diagonal:
    the reference for the per-axis residuals of ``lowest_eigenpairs``."""
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    ku = apply_stiffness(forms, fields).reshape(*eigenvalues.shape, -1)
    mass = reduce(np.multiply, [along(m, i, len(forms.shape)) for i, m in enumerate(forms.axis_masses)])
    mu = mass.reshape(-1, 1, math.prod(forms.shape)) * np.reshape(fields, ku.shape)
    if eigenvalues.ndim == 1:
        mu = mu[0]
    res = ku - eigenvalues[..., None] * mu
    scale = np.linalg.norm(ku, axis=-1) + (1.0 + np.abs(eigenvalues)) * np.linalg.norm(mu, axis=-1)
    return np.linalg.norm(res, axis=-1) / scale


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


def gradient_inner(dm, du: list, dv: list) -> np.ndarray:
    """Pointwise <grad u, grad v> from coordinate partials (diagonal metric)."""
    out = np.zeros(dm.shape)
    for i, ax in enumerate(dm.axes):
        out += along(1.0 / ax.a, i, dm.dimension) * du[i] * dv[i]
    return out


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
    # Plain float arithmetic, stages written out: the rhs is (2F - 1) F.  The
    # guard is read once per block of steps: F only leaves it by growing
    # without bound above 1/2, and float overflow then sticks at inf.
    for start in range(0, nsteps, _GUARD_BLOCK):
        for _ in range(min(_GUARD_BLOCK, nsteps - start)):
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


def equality_ode_extrapolated(F0: float, s: float) -> float:
    """F(s) of F' = (2F - 1) F from F(0) = F0, by ``integrate_equality_ode``
    over ``_RICHARDSON_STEPS`` and twice as many RK4 steps and the Richardson
    value (16 F_{h/2} - F_h) / 15, which cancels RK4's leading h^4 error term.

    A fixed step count keeps the cost independent of the lag: 1500 steps
    where a step of 1e-4 takes 10^4 per unit of lag.
    """
    if s <= 0.0:  # zero lag is F0; a negative one is refused there
        return integrate_equality_ode(F0, s)
    coarse = integrate_equality_ode(F0, s, dt=s / _RICHARDSON_STEPS)
    fine = integrate_equality_ode(F0, s, dt=s / (2 * _RICHARDSON_STEPS))
    return (16.0 * fine - coarse) / 15.0


def modal_propagator(u0, start, ends) -> np.ndarray:
    """Exact solutions at each state of ``ends`` of u_t = L u + u/2 started
    from ``u0`` at ``start``: an (m, *u0.shape) stack, one per end state.

    ``start`` and each end are closed-form states of one family
    (``evaluate_family``): round circles and Gaussian lines.  ``u0`` holds
    node values on their ``discretize`` grid in its trailing axes; leading
    axes are a batch.  Along such a flow L is diagonal in one fixed basis per
    axis, the Fourier modes k of a circle with eigenvalue k^2 / a(t) and the
    orthonormal Hermite functions j of a line with j / (2 u(t)), so each mode
    gains exp(s/2 - Lambda) over the lag s, Lambda being the integral of its
    eigenvalue: k^2 (1/a(start) - 1/a(end)) on a circle and
    (j/2) (s - log(u(end) / u(start))) on a line.  The basis changes are the
    rfft and the inverse Hermite Vandermonde matrix, axis by axis, applied to
    u - u[0] along the axis, so that constants pass exactly.  ``u0`` is
    transformed once along its first axis; every end state then takes its
    own gains and the way back, and the later axes act on each end state's
    fields, each with the bits it has as the only end state.  At zero lag
    the propagator is the identity.
    """
    u0 = np.array(u0, dtype=float)
    ends = list(ends)
    lags = np.array([float(end.t) - float(start.t) for end in ends])
    first = u0.ndim - len(start.factors)
    u = u0[None]  # a stack of one, which the first axis's gains widen to one entry per end state
    for axis, fac0 in enumerate(start.factors):
        facs = [end.factors[axis] for end in ends]
        n = u.shape[first + axis + 1]
        perm, inverse = axis_to_front(u.ndim, first + axis + 1, 1)
        moved = u.transpose(perm)
        diff = (moved - moved[:, :1]).reshape(len(moved), n, -1)
        if isinstance(fac0, CircleModel):
            if callable(fac0.a) or any(callable(fac1.a) for fac1 in facs):
                raise UsageError("the modal propagator needs round circles")
            rates = np.array([1.0 / fac0.a - 1.0 / fac1.a for fac1 in facs])
            gains = np.exp(-np.arange(n // 2 + 1) ** 2.0 * rates[:, None])
            diff = np.fft.irfft(gains[:, :, None] * np.fft.rfft(diff, axis=1), n=n, axis=1)
        else:
            ops = _hermite_ops(n)
            rates = np.array([s - math.log(fac1.scale / fac0.scale) for s, fac1 in zip(lags.tolist(), facs)])
            gains = np.exp(-0.5 * np.arange(n) * rates[:, None])
            diff = ops["vand"] @ (gains[:, :, None] * (ops["vinv"] @ diff))
        u = (moved[:, :1] + diff.reshape(len(diff), *moved.shape[1:])).transpose(inverse)
    u = np.array([math.exp(s / 2.0) for s in lags.tolist()]).reshape(-1, *(1,) * u0.ndim) * u
    u[lags == 0.0] = u0
    return u
