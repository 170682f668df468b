"""Drift-Laplacian quadratic forms, eigenpairs, and weighted functionals.

The operator L = Delta - grad_f is represented weakly by the pair of forms

    D(u, v) = integral <grad u, grad v> e^{-f} dv      (stiffness)
    J(u, v) = integral u v e^{-f} dv                   (mass)

so that D u = lambda J u is the weak form of -L u = lambda u.  The mass is
diagonal.  On product grids the stiffness is a Kronecker sum of per-axis
blocks, each weighted by the other axes' masses; it is kept in factors
(Lynch, Rice & Thomas 1964) and never formed as one matrix, nor applied on
the grid: ``oracles.apply_stiffness`` does that for the tests.
Eigenpairs are solved per axis: Hermite axes and constant-coefficient
circles in closed form (Fourier modes), other circles by dense ``eigh``.
The closed-form tables depend only on the grid and are cached read-only per
grid; products combine the axes with one outer sum of eigenvalues.  Every
eigenfunction is a product of per-axis columns, so each pair's
eigen-residual is taken on its columns (``_eigensolve``): the block of each
axis applied to that axis's columns, and the norms on the grid combined
from per-axis inner products.  ``lowest_eigenpairs`` then builds the
eigenfunctions with one broadcast product of the columns, in the same
floating-point operations as a per-pair build; ``run_flow``'s loop calls
``_eigensolve`` alone and never builds them.  A stack of outputs on one
grid (see ``geometry``) takes the same two calls: ``assemble_forms`` stacks
its blocks and masses over the leading output axis, and
``lowest_eigenpairs`` solves them in one pass of numpy calls into one
``SpectralResult`` whose arrays carry that axis, each output's rows in the
bits they have alone.

Pointwise quantities of a (k, *shape) batch of fields come from one
derivative pass (``_derivatives``): the partials du_i and the diagonal
Hessian components h_i = d2_i u - Gamma_i du_i, each derivative applied
once to the whole batch; per-axis vectors such as 1/a_i, Gamma_i and the
weights enter as ``axes.along`` views.  L has one formula,
sum_i (1/a_i)(h_i - f'_i du_i) (``_drift``); the drift Laplacian, the
pairings J and D with their rate, the Hessian energies, both Bochner
sides and the splitting certificate are built from du and h, and only the
mixed partials of a product take more derivatives.  On a stack of outputs
the pass and the pairings take an (s, k, *shape) stack of batches at once,
each output's per-axis vectors meeting its own fields, each output in the
bits of its one-output pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .axes import FourierStiffness, _hermite_ops, along, apply_along, circle_nodes
from .errors import SolverError, UsageError
from .geometry import DiscreteWeightedManifold

__all__ = [
    "QuadraticForms",
    "SpectralResult",
    "assemble_forms",
    "lowest_eigenpairs",
    "hessian_norm_sq",
    "bochner_sides",
    "drift_divergence",
    "partials",
    "drift_laplacian",
    "soliton_defect_profiles",
]

def _check_field(dm, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != dm.shape:
        raise UsageError(f"field shape {u.shape} does not match grid {dm.shape}")
    return u


def partials(dm: DiscreteWeightedManifold, u) -> list[np.ndarray]:
    """Coordinate partial derivatives of ``u`` along every axis."""
    u = _check_field(dm, u)
    return [ax.d1(u, i) for i, ax in enumerate(dm.axes)]


def drift_laplacian(dm: DiscreteWeightedManifold, u) -> np.ndarray:
    """L u = Delta u - <grad u, grad f> evaluated pseudo-spectrally: the L of
    the pairings (``_drift``) on a one-field batch."""
    return _drift(dm, *_derivatives(dm, _check_field(dm, u)[None]))[0]


def drift_divergence(V, dm: DiscreteWeightedManifold) -> np.ndarray:
    """f-divergence of a vector field given by contravariant components.

    div_f V = div V - <V, grad f>; for the weighted measure this integrates
    to zero on closed factors, and div_f(grad u) = L u.
    """
    if len(V) != dm.dimension:
        raise UsageError(f"expected {dm.dimension} vector components, got {len(V)}")
    out = np.zeros(dm.shape)
    for i, ax in enumerate(dm.axes):
        Vi = _check_field(dm, V[i])
        gamma, fp = along(ax.christoffel, i, dm.dimension), along(ax.fprime, i, dm.dimension)
        out += ax.d1(Vi, i) + Vi * (gamma - fp)
    return out


def _batch_along(values, axis: int, ndim: int):
    """``along`` for a batch of fields: a per-output vector of a stack, an
    (s, n) row or an (s, 1) column, gains the batch axis behind its output
    axis, so that it meets an (s, k, *shape) stack of batches; a vector that
    the outputs share, or one output's, broadcasts as it is."""
    return along(values[:, None] if np.ndim(values) == 2 else values, axis, ndim)


def _derivatives(dm: DiscreteWeightedManifold, batch: np.ndarray) -> tuple[list, list]:
    """(du, h) of a (k, *shape) batch of fields: the partials du_i and the
    diagonal Hessian components h_i = d2_i u - Gamma_i du_i along each axis,
    one (k, *shape) array each.  Each derivative is applied once to the whole
    batch: 2d applications whatever k is.  On a stack of outputs the batch is
    an (s, k, *shape) stack, each output's fields differentiated as alone
    (``lead`` = 1)."""
    lead, d = int(dm.stacked), dm.dimension
    du = [ax.d1(batch, i + 1 + lead, lead) for i, ax in enumerate(dm.axes)]
    h = [ax.d2(batch, i + 1 + lead, lead) - _batch_along(ax.christoffel, i, d) * du[i] for i, ax in enumerate(dm.axes)]
    return du, h


def _drift(dm: DiscreteWeightedManifold, du: list, h: list) -> np.ndarray:
    """L u = sum_i (1/a_i)(h_i - f'_i du_i) of a batch from its ``_derivatives``."""
    lu, d = 0.0, dm.dimension
    for i, ax in enumerate(dm.axes):
        lu = lu + _batch_along(1.0 / ax.a, i, d) * (h[i] - _batch_along(ax.fprime, i, d) * du[i])
    return lu


def _weighting(dm: DiscreteWeightedManifold):
    """``weighted(x, *differentiated)`` for integrals of a batch of fields:
    x times the quadrature weights and 1/a of each axis in ``differentiated``,
    with the grid flattened, (k, size) rows, or (s, k, size) on a stack.  The
    per-axis vectors are shaped once per pass."""
    d = dm.dimension
    weights = [_batch_along(ax.wdens, i, d) for i, ax in enumerate(dm.axes)]
    ainv = [_batch_along(1.0 / ax.a, i, d) for i, ax in enumerate(dm.axes)]

    def weighted(x, *differentiated):
        for w in weights + [ainv[i] for i in differentiated]:
            x = x * w
        return _rows(x, d)

    return weighted


def _rows(x: np.ndarray, d: int) -> np.ndarray:
    """A batch with its d grid axes flattened into one."""
    return x.reshape(*x.shape[: x.ndim - d], -1)


def _scalar_pairings(dm: DiscreteWeightedManifold, scalars: np.ndarray, du: list, h: list):
    """(J, D, dJ) of a (k, *shape) batch of fields with ``_derivatives`` (du, h).

    J and D are the mass and stiffness pairings of every two fields.  dJ is
    the rate of J when the fields solve u_t = L u + u/2 along a flow that
    preserves e^{-f} dv: J + (G + G^T) with G_ij = int u_i (L u_j), L from
    ``_drift``.  The integrals are row products of the weighted batch with
    the batch.  J and D are symmetrized; they agree with ``dm.integrate`` to
    round-off.  On a stack of outputs the batch is an (s, k, *shape) stack
    and each pairing an (s, k, k) stack: one batched row product per
    integral, each output's the product it takes alone.
    """
    d = dm.dimension
    weighted = _weighting(dm)

    def gram(x, *differentiated):
        g = weighted(x, *differentiated) @ _rows(x, d).swapaxes(-1, -2)
        return (g + g.swapaxes(-1, -2)) / 2.0

    J = gram(scalars)
    D = sum(gram(g, i) for i, g in enumerate(du))
    G = weighted(scalars) @ _rows(_drift(dm, du, h), d).swapaxes(-1, -2)
    return J, D, J + (G + G.swapaxes(-1, -2))


def _hessian_energies(dm: DiscreteWeightedManifold, du: list, h: list) -> np.ndarray:
    """The Hessian energy (``hessian_norm_sq``) of each field of a batch with
    ``_derivatives`` (du, h): the squared diagonal components h_i and each
    mixed partial (d1 of du_i along each later axis, applied once to the
    batch), integrated as in ``_scalar_pairings``."""
    d = dm.dimension
    weighted = _weighting(dm)

    def squares(x, *differentiated):
        return np.einsum("ij,ij->i", weighted(x, *differentiated), _rows(x, d))

    hess = np.zeros(len(du[0]))
    for i in range(d):
        hess += squares(h[i], i, i)
        for j in range(i + 1, d):
            hess += 2.0 * squares(dm.axes[j].d1(du[i], j + 1), i, j)
    return hess


def hessian_norm_sq(u, dm: DiscreteWeightedManifold) -> float:
    """Weighted integral of |Hess u|^2.

    In circle coordinates the single-axis component is u'' - (a'/2a) u' with
    squared norm a^{-2} (u'' - Gamma u')^2; cross components on products are
    plain mixed partials (the metric is block diagonal and flat).
    """
    return float(_hessian_energies(dm, *_derivatives(dm, _check_field(dm, u)[None]))[0])


def soliton_defect_profiles(dm: DiscreteWeightedManifold) -> list:
    """Per-axis samples of phi = g/2 - Hess_f - Ric (diagonal on products).

    Vanishes identically on the static Gaussian shrinker and equals half the
    metric velocity along exact solutions of the coupled flow.
    """
    return [0.5 * ax.a - ax.hess_f for ax in dm.axes]


def bochner_sides(u, dm: DiscreteWeightedManifold) -> tuple[float, float, float]:
    """Both sides of the integrated drift Bochner identity, and the Dirichlet
    energy D of ``u``, from one derivative pass.

    Left: the soliton defect paired with grad u against e^{-f} dv.  Right:
    Hessian energy plus half the Dirichlet energy minus the L-image mass.
    The two agree for smooth fields.  The identity reads int Ric_f(grad u,
    grad u) = D/2 - lhs, so D/2 is its scale where phi vanishes and both
    sides are zero.
    """
    batch = _check_field(dm, u)[None]
    du, h = _derivatives(dm, batch)
    weighted = _weighting(dm)

    def integral(x, y, *differentiated):
        return float(np.vdot(weighted(x, *differentiated), y))

    phi = soliton_defect_profiles(dm)
    lhs = dm.integrate(sum(along(phi[i], i, dm.dimension) * (along(1.0 / ax.a, i, dm.dimension) * du[i][0]) ** 2
                           for i, ax in enumerate(dm.axes)))
    dirichlet = sum(integral(g, g, i) for i, g in enumerate(du))
    lu = _drift(dm, du, h)
    rhs = float(_hessian_energies(dm, du, h)[0]) + 0.5 * dirichlet - integral(lu, lu)
    return lhs, rhs, dirichlet


# --------------------------------------------------------------------------
# Forms and eigenpairs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticForms:
    """Stiffness/mass pair over the flattened tensor grid, kept in factors.

    With per-axis stiffness blocks S_i and per-axis mass diagonals m_i, the
    mass is the diagonal m_0 x ... x m_{d-1} and the stiffness is
    sum_i M_0 x ... x S_i x ... x M_{d-1}, M_j = diag(m_j).
    A block is applied along its axis as ``S_i @ X``; the stiffness is never
    formed.  S_i is a ``HermiteStiffness`` on Gaussian axes and a
    ``FourierStiffness`` on circles; each maps a constant to exact zeros.
    """

    manifold: DiscreteWeightedManifold | None
    blocks: tuple
    axis_masses: tuple

    @property
    def shape(self) -> tuple:
        return tuple(m.shape[-1] for m in self.axis_masses)

    @property
    def dimension(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def mass_diag(self) -> np.ndarray:
        # The Kronecker product of the axis masses, one multiply per entry as in np.kron.
        return reduce(np.multiply.outer, self.axis_masses).ravel()


def assemble_forms(dm: DiscreteWeightedManifold) -> QuadraticForms:
    """Per-axis blocks of the generalized eigenproblem D u = lambda J u.

    Circle-axis stiffness weights u'v' by a^{-1/2} e^{-f} at the half-shifted
    nodes (the weak form of the drift Laplacian on a dtheta^2); Gaussian axes
    contribute their exact Hermite blocks.  The mass is the diagonal
    quadrature weight.  On a stack of outputs every block and mass that
    varies by output is stacked over a leading output axis.
    """
    return QuadraticForms(
        manifold=dm,
        blocks=tuple(ax.stiffness() for ax in dm.axes),
        axis_masses=tuple(ax.wdens for ax in dm.axes),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Lowest eigenpairs of the drift Laplacian on one state, or on a stack
    of outputs with a leading output axis on every array, as on the
    manifold: ``t`` (s,), ``eigenvalues`` and ``residuals`` (s, k + 1),
    ``eigenfunctions`` (s, k + 1, *shape).

    Eigenfunctions are node-value tensors, J-orthonormal, sorted ascending
    with multiplicity; ``residuals`` are the relative norms
    ||Ku - lambda Mu|| / (||Ku|| + (1 + |lambda|) ||Mu||) of each pair's
    eigen-equation defect, taken on the pair's per-axis factors
    (``_eigensolve``): on one axis in the bits of the same norms on the
    grid, on a product the same norms rounded another way.
    """

    t: float | np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    residuals: np.ndarray


@cache
def _circle_modes(n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers k = 0, 1, 1, 2, 2, ... and the unnormalized closed-form
    table 1, cos k theta, sin k theta, ... at the n nodes; read-only, cached
    per grid."""
    k = (np.arange(count) + 1) // 2
    phase = np.outer(circle_nodes(n), k)
    vecs = np.where(np.arange(count) % 2 == 1, np.cos(phase), np.sin(phase))
    vecs[:, 0] = 1.0
    k.flags.writeable = vecs.flags.writeable = False
    return k, vecs


def _axis_eigens(ax, block, count: int):
    """The ``count`` (at most n) lowest mass-orthonormal eigenpairs of one
    axis, one output or a stack of them: values (s, c) and vectors (s, n, c),
    one row (1, ...) when there is one output or every output shares it.

    Hermite axes return their exact basis, normalized once per order and
    shared, with lambda = j / (2 scale).  Constant-coefficient circles are
    diagonal in Fourier modes, so lambda = k^2/a (0, 1, 1, 4, 4, ...) with
    vectors cos k theta, then sin k theta; the table is cached per grid and
    only its normalization, which depends on each output's mass, is computed
    per output, one vector-matrix product each.  Other circles take dense
    ``eigh``, one output at a time."""
    count = min(count, ax.size)
    if ax.kind == "hermite":
        vecs = _hermite_ops(ax.size)["eigvecs"][None, :, :count]
        return (np.arange(count) / (2.0 * ax.scale)).reshape(-1, count), vecs
    masses = ax.wdens.reshape(-1, ax.size)
    if ax.is_round:
        k, table = _circle_modes(ax.size, count)
        return k**2 / ax.a.reshape(-1, ax.size)[:, :1], table / np.sqrt(masses[:, None] @ (table * table))
    from scipy.linalg import eigh  # only here: the other paths need no scipy
    vals, vecs = np.empty((len(masses), count)), np.empty((len(masses), ax.size, count))
    for m, (weight, mass) in enumerate(zip(block.weight.reshape(-1, ax.size), masses)):
        dense = FourierStiffness(weight) @ np.eye(ax.size)
        vals[m], vecs[m] = eigh(dense, np.diag(mass), subset_by_index=[0, count - 1])
        # The stiffness maps constants to exactly zero, so the first pair is known.
        vals[m, 0], vecs[m, :, 0] = 0.0, 1.0 / math.sqrt(mass.sum())
    return vals, vecs


def _axis_vectors(block, mass, mu: np.ndarray, cols: np.ndarray, lead: int) -> tuple:
    """a = M c, r = S c - mu a and b = S c for the (m, k + 1, n) columns c of
    one axis, mu their axis eigenvalues.  The block is applied to the
    columns along their last axis (``lead`` = 1 on a stack), as to a batch
    of fields on the axis's grid."""
    b = apply_along(block.__matmul__, cols if lead else cols[0], -1, lead=lead).reshape(cols.shape)
    a = _batch_along(mass, 0, 1) * cols
    return a, b - mu[..., None] * a, b


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.add.reduce(x * y, axis=-1)


def _kron_sum_sq(a: tuple, sq: list, v: tuple) -> np.ndarray:
    """|sum_i a_0 x ... x v_i x ... x a_{d-1}|^2 of each pair, from its
    per-axis vectors a_i and v_i and sq_i = |a_i|^2: sum_i |v_i|^2
    prod_{j != i} sq_j + sum_{i != l} <a_i, v_i> <a_l, v_l> prod_{j not in
    {i, l}} sq_j, never negative, and NaN stays NaN.  On one axis it is
    |v_0|^2 itself."""
    d = len(a)
    if d == 1:
        return _inner(v[0], v[0])
    others = lambda *skip: reduce(np.multiply, [sq[j] for j in range(d) if j not in skip], 1.0)
    cross = [_inner(x, y) for x, y in zip(a, v)]
    total = 0.0
    for i in range(d):
        total = total + _inner(v[i], v[i]) * others(i)
        for l in range(d):
            if l != i:
                total = total + cross[i] * cross[l] * others(i, l)
    return np.maximum(total, 0.0)


def _eigensolve(forms: QuadraticForms, k: int, tol: float) -> tuple:
    """The solve behind ``lowest_eigenpairs``, with no grid-sized array:
    eigenvalues and residuals, (m, k + 1) each, and per axis the (m, k + 1,
    n_i) columns whose products are the pairs' eigenfunctions.

    Each residual ||Ku - lambda Mu|| / (||Ku|| + (1 + |lambda|) ||Mu||)
    is taken on the factors of u = c_0 x ... x c_{d-1} (Lynch, Rice &
    Thomas 1964): Mu is the product of the a_i = M_i c_i, and Ku and
    Ku - lambda Mu are sums over the axes of such products with one factor
    replaced, by b_i = S_i c_i or by r_i = b_i - mu_i a_i, so their norms
    follow from inner products of per-axis vectors (``_axis_vectors``,
    ``_kron_sum_sq``), O(sum_i n_i) work per pair instead of O(prod_i n_i).
    The defect is that of the exact sum of the axis eigenvalues mu_i,
    which lambda, their float sum, rounds by at most 1 ulp of lambda per
    addition, and its norms are rounded another way than on the grid
    (``oracles.grid_eigen_residuals``); the tests hold the two within a
    factor of 2, or both below 1e-14.  On one axis the residual is the
    grid's, in its bits, the eigenfunction's sign flip or not.
    SolverError names the first output, in stack order, whose worst
    residual exceeds ``tol`` or is NaN.
    """
    dm = forms.manifold
    if k < 1:
        raise UsageError("eigenpair count k must be at least 1")
    if k + 1 > dm.size:
        raise UsageError(f"requested {k + 1} pairs from a dimension-{dm.size} problem")
    m, d, lead = len(dm) if dm.stacked else 1, dm.dimension, int(dm.stacked)

    per_axis = [_axis_eigens(ax, block, k + 1) for ax, block in zip(dm.axes, forms.blocks)]

    # All sums of per-axis eigenvalues, added left to right in C order; the
    # k+1 smallest only ever use per-axis indices at most k, so this cover
    # is exhaustive.
    sums = reduce(np.add, [along(vals, i, d) for i, (vals, _) in enumerate(per_axis)])
    flat_sums = sums.reshape(m, -1)
    order = flat_sums.argsort(axis=1, kind="stable")[:, : k + 1]
    eigenvalues = flat_sums[np.arange(m)[:, None], order]

    # Each pair's column and eigenvalue on each axis, every output's in one
    # gather (from the one row of an axis that every output shares).
    columns, vectors = [], []
    index = np.unravel_index(order, sums.shape[1:])
    for (vals, vecs), block, mass, idx in zip(per_axis, forms.blocks, forms.axis_masses, index):
        columns.append(vecs[np.arange(len(vecs))[:, None], :, idx])
        mu = vals[np.arange(len(vals))[:, None], idx]
        vectors.append(_axis_vectors(block, mass, mu, columns[-1], lead))
    a, r, b = zip(*vectors)
    sq = [_inner(x, x) for x in a]
    scale = np.sqrt(_kron_sum_sq(a, sq, b)) + (1.0 + np.abs(eigenvalues)) * np.sqrt(reduce(np.multiply, sq))
    residuals = np.sqrt(_kron_sum_sq(a, sq, r)) / scale
    worst = residuals.max(axis=1)
    failed = ~(worst <= tol)
    if failed.any():
        j = int(np.argmax(failed))
        raise SolverError(f"eigen-residual {worst[j]:.3e} exceeds tolerance {tol:.3e}", best_residual=float(worst[j]))
    return eigenvalues, residuals, columns


def lowest_eigenpairs(forms: QuadraticForms, k: int, tol: float = 1e-10):
    """k+1 smallest eigenpairs of the weak drift Laplacian: one
    ``SpectralResult``, whose arrays on the forms of a stack of outputs carry
    the leading output axis, each output's rows in the bits it has when
    solved alone.

    Product states are solved axis by axis (the operator decouples on the
    supported geometry) and combined by Minkowski sums; each pair is checked
    against the forms on its per-axis factors (``_eigensolve``), and the
    solve is rejected if any residual exceeds ``tol`` or is NaN.  The constant
    eigenfunction carries lambda_0 = 0; all later eigenfunctions are
    J-orthogonal to it, which realizes the mean-zero constraint.
    Eigenfunctions are then built on the grid, each the product of its
    per-axis columns, signed so that its first entry of largest magnitude
    is not negative.
    """
    dm = forms.manifold
    eigenvalues, residuals, columns = _eigensolve(forms, k, tol)
    m, d = len(eigenvalues), dm.dimension
    rows = np.arange(m)[:, None]

    # Each eigenfunction is the product of its columns, multiplied in axis
    # order, all k+1 of every output in one broadcast; the product starts
    # from an exact 1.0, so it is a new array even on one axis.
    fields = reduce(np.multiply, [along(cols, i, d) for i, cols in enumerate(columns)], 1.0)
    flat = fields.reshape(m, k + 1, -1)
    flip = flat[rows, np.arange(k + 1), np.abs(flat).argmax(axis=2)] < 0
    fields[flip] = -fields[flip]
    if dm.stacked:
        return SpectralResult(t=dm.t, eigenvalues=eigenvalues, eigenfunctions=fields, residuals=residuals)
    return SpectralResult(t=dm.t, eigenvalues=eigenvalues[0], eigenfunctions=fields[0], residuals=residuals[0])
