"""Continuum weighted-manifold models and their quadrature-ready discretization.

Supported geometry is deliberately flat: round/weighted circles, Gaussian
lines with a constant metric multiplier, and products of those (at most one
circle factor).  On these models Ric and the scalar curvature vanish
identically, so the coupled metric/weight evolution is implementable without
a curvature engine while still exercising every quantitative statement in
scope (sharp bounds, the eternal sub-1/2 example, splitting).  A run's
outputs on one grid form one ``DiscreteWeightedManifold``, a stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .axes import CircleAxis, HermiteLineAxis, along, circle_nodes
from .errors import ConfigurationError, DomainError, ExtinctionError, UsageError

__all__ = [
    "CircleModel",
    "GaussianLineModel",
    "ContinuumState",
    "ScaledGaussianFamily",
    "RoundCircleFamily",
    "ProductFamily",
    "scaled_gaussian_family",
    "round_circle_family",
    "product_family",
    "evaluate_family",
    "DiscreteWeightedManifold",
    "discretize",
    "weighted_circle",
    "gaussian_line",
]


# --------------------------------------------------------------------------
# Continuum factors and states
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleModel:
    """Periodic factor with metric a(theta) dtheta^2 and weight f(theta).

    ``a`` and ``f`` may be floats (spatially constant) or callables of theta.
    """

    a: object
    f: object = 0.0

    def a_at(self, theta):
        return np.broadcast_to(self.a(theta) if callable(self.a) else float(self.a), np.shape(theta)).astype(float)

    def f_at(self, theta):
        return np.broadcast_to(self.f(theta) if callable(self.f) else float(self.f), np.shape(theta)).astype(float)


@dataclass(frozen=True)
class GaussianLineModel:
    """Gaussian line factor: metric scale * dx^2, weight x^2/4 + (1/2) log scale."""

    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError("gaussian line scale must be positive")


@dataclass(frozen=True)
class ContinuumState:
    """Exact product state at a fixed flow time; the total weight is the sum
    of the per-factor terms."""

    t: float
    factors: tuple

    @property
    def dimension(self) -> int:
        return len(self.factors)


# --------------------------------------------------------------------------
# Closed-form solution families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledGaussianFamily:
    """Flat Gaussian solitons rescaled by u(t) = 1 + (u0 - 1) e^{t - t0}.

    u0 = 1 is the static shrinker fixed point.  For u0 < 1 the metric shrinks
    to zero at t0 + log(1/(1 - u0)); for u0 > 1 the solution is eternal and
    its first nonzero eigenvalue 1/(2u) stays below 1/2 forever.
    """

    u0: float
    n: int = 1
    t0: float = 0.0

    def __post_init__(self):
        if self.u0 <= 0.0:
            raise DomainError(f"gaussian scale u0 must be positive, got {self.u0}")
        if self.n < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.n}")

    @property
    def extinction_time(self):
        if self.u0 >= 1.0:
            return math.inf
        return self.t0 + math.log(1.0 / (1.0 - self.u0))

    def scale_at(self, t: float) -> float:
        u = 1.0 + (self.u0 - 1.0) * math.exp(t - self.t0)
        if u <= 0.0:
            raise ExtinctionError(self.extinction_time)
        return u

    def evaluate(self, t: float) -> ContinuumState:
        u = self.scale_at(t)
        # Weight per line: x^2/4 + (1/2) log u.  The log term rides along so
        # that f_t = n/2 - Delta f holds and e^{-f} dv is preserved exactly.
        return ContinuumState(t=float(t), factors=tuple(GaussianLineModel(u) for _ in range(self.n)))


@dataclass(frozen=True)
class RoundCircleFamily:
    """Round circles a(t) = a0 e^{t - t0} with spatially constant weight.

    With constant a and f the Hessian term drops out, so the metric grows
    exponentially and f(t) = f0 + (t - t0)/2; the pair solves the coupled
    system exactly and the weighted length 2 pi e^{-f} sqrt(a) is constant.
    """

    a0: float
    t0: float = 0.0
    f0: float = 0.0

    def __post_init__(self):
        if self.a0 <= 0.0:
            raise DomainError(f"circle coefficient a0 must be positive, got {self.a0}")

    def evaluate(self, t: float) -> ContinuumState:
        a = self.a0 * math.exp(t - self.t0)
        f = self.f0 + 0.5 * (t - self.t0)
        return ContinuumState(t=float(t), factors=(CircleModel(a=a, f=f),))


@dataclass(frozen=True)
class ProductFamily:
    """Product of factor families sharing one reference time.

    The state at time t is the product metric with summed weight, so the
    drift Laplacian decouples and its spectrum is the Minkowski sum of the
    factor spectra.
    """

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ConfigurationError("product family needs at least one factor")
        t0s = {f.t0 for f in self.factors}
        if len(t0s) != 1:
            raise ConfigurationError(f"product factors must share a reference time, got {sorted(t0s)}")
        circles = sum(isinstance(f, RoundCircleFamily) for f in self.factors)
        if circles > 1:
            raise ConfigurationError("supported geometry allows at most one circle factor")
        for f in self.factors:
            if not isinstance(f, (ScaledGaussianFamily, RoundCircleFamily)):
                raise ConfigurationError(f"unsupported product factor {type(f).__name__}")

    @property
    def t0(self) -> float:
        return self.factors[0].t0

    @property
    def extinction_time(self):
        return min(
            (f.extinction_time for f in self.factors if isinstance(f, ScaledGaussianFamily)),
            default=math.inf,
        )

    def evaluate(self, t: float) -> ContinuumState:
        states = [f.evaluate(t) for f in self.factors]
        return ContinuumState(t=float(t), factors=tuple(fac for s in states for fac in s.factors))


def scaled_gaussian_family(u0: float, n: int = 1, t0: float = 0.0) -> ScaledGaussianFamily:
    """Closed-form rescaled Gaussian family; u0 must be positive."""
    return ScaledGaussianFamily(u0=float(u0), n=int(n), t0=float(t0))


def round_circle_family(a0: float, t0: float = 0.0, f0: float = 0.0) -> RoundCircleFamily:
    """Round-circle family a(t) = a0 e^{t - t0}; a0 must be positive."""
    return RoundCircleFamily(a0=float(a0), t0=float(t0), f0=float(f0))


def product_family(factors) -> ProductFamily:
    factors = tuple(factors)
    if len(factors) == 1:
        return factors[0]
    return ProductFamily(factors=factors)


def evaluate_family(family, t: float) -> ContinuumState:
    """Exact state of a closed-form family at time t (extinction-checked)."""
    return family.evaluate(t)


# --------------------------------------------------------------------------
# Discretization
# --------------------------------------------------------------------------


class DiscreteWeightedManifold:
    """Sampled product geometry, ready for quadrature and spectral assembly.

    Holds one spectral axis per factor; their per-axis vectors meet fields
    through ``axes.along``, not through the manifold.  The axes' own arrays
    stay writeable (only the tables they share from the per-grid caches
    are read-only); by convention no code changes a manifold after
    construction, and every operation on a manifold is a pure function.

    A manifold is one output, at a float time ``t``, or a stack of outputs on
    one grid, at the times ``t`` of a 1-d array, whose axes carry a leading
    output axis (see ``axes``); ``shape`` is the grid of each output.
    ``stack[m]`` is output m's manifold, a slice or a list of rows a
    sub-stack.  On a stack ``integrate`` and ``weighted_volume`` give one
    value per output, each in the bits it has alone.
    """

    def __init__(self, axes, t=0.0):
        axes = tuple(axes)
        if not axes:
            raise ConfigurationError("a manifold needs at least one axis")
        self.axes = axes
        self.stacked = np.ndim(t) == 1
        self.t = np.asarray(t, dtype=float) if self.stacked else float(t)
        self.shape = tuple(ax.size for ax in axes)
        self.size = math.prod(self.shape)
        self.dimension = len(axes)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, index) -> "DiscreteWeightedManifold":
        return DiscreteWeightedManifold([ax[index] for ax in self.axes], t=self.t[index])

    def f_field(self) -> np.ndarray:
        return sum((along(ax.f, i, self.dimension) for i, ax in enumerate(self.axes)), np.zeros(self.shape))

    def integrate(self, values):
        """Quadrature of ``values`` against the weighted volume e^{-f} dv: the
        axes' densities contracted from the last axis, a matrix-vector
        product per axis and then a dot product, per output of a stack."""
        values = np.asarray(values, dtype=float)
        if values.shape != np.shape(self.t) + self.shape:
            raise UsageError(f"field shape {values.shape} does not match grid {np.shape(self.t) + self.shape}")
        out = values if self.stacked else values[None]
        for ax in reversed(self.axes[1:]):
            w = ax.wdens
            out = (out @ w.reshape(*w.shape[:-1], *(1,) * (out.ndim - 3), -1, 1))[..., 0]
        totals = (out[:, None] @ self.axes[0].wdens[..., :, None])[:, 0, 0]
        return totals if self.stacked else float(totals[0])

    def weighted_volume(self):
        return self.integrate(np.ones(np.shape(self.t) + self.shape))

    def validate(self) -> None:
        for i, ax in enumerate(self.axes):
            if np.min(ax.weights) <= 0.0:
                raise ConfigurationError(f"axis {i} has non-positive quadrature weights")
            if ax.kind == "circle":
                total = float(np.sum(ax.weights))
                if not math.isclose(total, 2.0 * math.pi, rel_tol=1e-12):
                    raise ConfigurationError(f"circle axis {i} weights sum to {total}, not 2*pi")
                if np.min(ax.a) <= 0.0:
                    raise ConfigurationError(f"axis {i} metric coefficient not positive")
        vol = self.weighted_volume()
        if not (math.isfinite(vol) and vol > 0.0):
            raise ConfigurationError(f"weighted volume {vol} is not finite and positive")


def discretize(state: ContinuumState, resolution: int = 64, hermite_order: int = 12) -> DiscreteWeightedManifold:
    """Sample a continuum state onto quadrature grids.

    Circle factors get ``resolution`` uniform nodes with trapezoidal weights
    (spectrally accurate for periodic integrands); Gaussian factors use the
    exact Hermite backend with ``hermite_order`` basis functions instead of a
    grid.
    """
    if resolution < 8:
        raise ConfigurationError(f"circle resolution {resolution} below the minimum of 8")
    axes = []
    for fac in state.factors:
        if isinstance(fac, CircleModel):
            theta = circle_nodes(resolution)
            axes.append(CircleAxis(fac.a_at(theta), fac.f_at(theta)))
        elif isinstance(fac, GaussianLineModel):
            axes.append(HermiteLineAxis(hermite_order, fac.scale))
        else:
            raise ConfigurationError(f"unsupported factor {type(fac).__name__}")
    dm = DiscreteWeightedManifold(axes, t=state.t)
    dm.validate()
    return dm


def weighted_circle(n: int, a=1.0, f=0.0) -> DiscreteWeightedManifold:
    """Convenience: a single discretized circle with given a(theta), f(theta)."""
    return discretize(ContinuumState(t=0.0, factors=(CircleModel(a=a, f=f),)), resolution=n)


def gaussian_line(scale: float = 1.0, order: int = 12) -> DiscreteWeightedManifold:
    """Convenience: a single Gaussian line on the Hermite backend."""
    return discretize(
        ContinuumState(t=0.0, factors=(GaussianLineModel(scale),)),
        hermite_order=order,
    )
