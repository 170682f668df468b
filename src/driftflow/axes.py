"""Discrete spectral axes for the supported flat factor geometries.

Two axis kinds cover everything in scope:

* ``CircleAxis`` -- periodic coordinate on [0, 2pi) with metric a(theta) dtheta^2,
  Fourier collocation on a uniform grid, trapezoidal quadrature.  Per-state
  work (f', Christoffel symbol, stiffness) runs on rfft/irfft symbols; only
  batched field derivatives use a dense d1/d2 pair, built on first use.
* ``HermiteLineAxis`` -- Gaussian line with constant metric multiplier a and
  weight x^2/4 + (1/2) log a, represented exactly on the Hermite eigenbasis
  of the one-dimensional drift Laplacian (Ornstein-Uhlenbeck structure).

Fields are stored as node values; each axis knows how to differentiate along
its own dimension and how to build its one-dimensional mass/stiffness blocks.
Per-axis data meets an n-d field or a (k, *shape) batch of fields only
here: ``along`` shapes a per-axis vector to broadcast along one axis, and
``apply_along`` applies a per-axis operator along one axis.

An axis may hold a stack of outputs on one grid, built from (m, n) rows of
a circle's a and f or an (m, 1) column of a line's scales: each per-output
vector gains a leading output axis, each row computed as for its output
alone, and the per-grid tables stay shared.  ``along`` keeps that axis in
front, ``apply_along`` with ``lead`` keeps the stack in front of the
operand, and ``axis[m]`` is output m's axis (``axis[lo:hi]`` a sub-stack).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import hermite_e

from .errors import AssemblyError, ConfigurationError


@functools.cache
def axis_to_front(ndim: int, axis: int, lead: int = 0) -> tuple[tuple, tuple]:
    """The transpose that brings ``axis`` of an ``ndim``-array to the front,
    behind its first ``lead`` axes, the others keeping their order, and its
    inverse; cached per triple."""
    front = axis % ndim
    perm = (*range(lead), front, *(i for i in range(lead, ndim) if i != front))
    return perm, tuple(perm.index(i) for i in range(ndim))


def along(values, axis: int, ndim: int):
    """Per-axis data shaped to broadcast along ``axis`` of an ``ndim``-axis
    grid and of any batch axes in front of it: a read-only view whose last
    axis lands on ``axis``, leading axes kept in front.  A scalar, such as a
    Gaussian line's a or its Gamma = 0, passes through as it is."""
    if not isinstance(values, np.ndarray):
        return values
    shape = [1] * ndim
    shape[axis] = -1
    view = values.reshape(values.shape[:-1] + tuple(shape))
    view.flags.writeable = False
    return view


def apply_along(op, arr: np.ndarray, axis: int, subtract: str | None = None, lead: int = 0) -> np.ndarray:
    """``op`` applied along one axis of ``arr``: the axis brought to the front
    by the cached ``axis_to_front``, the array flattened to an (n, m) operand
    (a 1-D array to an (n, 1) column) that ``op`` maps to one of the same
    shape, and the result transposed back.  With ``lead`` = 1 the first axis
    of ``arr`` is a stack of outputs and stays in front: ``op`` maps an
    (s, n, m) operand, each output's (n, m) slice shaped as it would be
    alone; a stack of one may meet a stack of operators, whose outputs then
    all start from the one operand.  With ``subtract``, a memory order ("K"
    keeps the layout of ``arr``, "C" keeps the flattening a view), the first
    slice is taken off first, so a constant reaches ``op`` as exact zeros.
    The operand's layout decides how a matrix product rounds."""
    perm, inverse = axis_to_front(arr.ndim, axis, lead)
    moved = arr.transpose(perm)
    if subtract:
        moved = np.subtract(moved, moved[(slice(None),) * lead + (slice(1),)], order=subtract)
    out = op(moved.reshape(*moved.shape[: lead + 1], -1))
    return out.reshape(*out.shape[:lead], *moved.shape[lead:]).transpose(inverse)


def apply_deriv(mat: np.ndarray, arr: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
    """Apply a derivative matrix along one dimension of a field, the first
    slice subtracted first: a field constant along it has exactly zero
    derivative there, as in exact arithmetic.  With ``lead`` = 1, along each
    field of a stack, one matrix product per field (``apply_along``)."""
    return apply_along(mat.__matmul__ if lead else mat.dot, arr, axis, subtract="K", lead=lead)


def _centred(u, lead: int, at: int = 0) -> np.ndarray:
    """``u`` less its slice ``at`` along the axis behind its first ``lead``
    axes, the grid axis of a stiffness block's operand: a constant reaches
    the block as exact zeros, so its image is exactly zero."""
    u = np.asarray(u, dtype=float)
    return u - u[(slice(None),) * lead + (slice(at, at + 1),)]


def _read_only(ops: dict) -> dict:
    """Mark every array of a cached table non-writeable: a process shares it."""
    for arr in ops.values():
        arr.flags.writeable = False
    return ops


# --------------------------------------------------------------------------
# Fourier machinery (cached per grid size)
# --------------------------------------------------------------------------


@functools.cache
def _fourier_ops(n: int) -> dict[str, np.ndarray]:
    """rfft-domain symbols of an n-point uniform periodic grid, modes 0..n//2;
    read-only, cached per grid.

    ``ik``/``k2``: first/second derivative at the nodes (Nyquist killed in the
    first, kept in the second, the usual collocation convention).
    ``ik_stag``: first derivative at the half-shifted nodes theta_j + pi/n,
    where the Nyquist sawtooth has a nonzero derivative, so the weak-form
    stiffness built from it has a simple kernel (constants only) even for
    even n.  ``stag``: interpolation to the half-shifted nodes.
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    shift = np.exp(1j * k * math.pi / n)
    ik = 1j * k
    if n % 2 == 0:
        ik[-1] = 0.0  # odd derivative of the Nyquist mode vanishes at nodes
    return _read_only({"ik": ik, "k2": -(k**2), "ik_stag": 1j * k * shift, "stag": shift})


@functools.cache
def _fourier_dense(n: int) -> dict[str, np.ndarray]:
    """Dense ``d1``/``d2`` of an n-point grid, built on first use; read-only,
    cached per grid.  On a batch of fields over a small grid one matrix
    product beats a forward and inverse FFT."""
    ops = _fourier_ops(n)
    return _read_only({"d1": _spectral(ops["ik"], np.eye(n)), "d2": _spectral(ops["k2"], np.eye(n))})


def _spectral(symbol: np.ndarray, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Multiply by a Fourier symbol along one axis of ``values``, the first
    by default.  Each line is transformed on its own, so its bits do not
    depend on the lines beside it."""
    axis %= values.ndim
    coef = np.fft.rfft(values, axis=axis)
    return np.fft.irfft(along(symbol, axis, values.ndim) * coef, n=values.shape[axis], axis=axis)


def circle_nodes(n: int) -> np.ndarray:
    """The n uniform nodes 2 pi j / n of a periodic grid."""
    return 2.0 * math.pi * np.arange(n) / n


def lowpass(values: np.ndarray, max_mode: int) -> np.ndarray:
    """Zero every Fourier mode above ``max_mode`` along the last axis.  A
    constant row, with no mode above 0, skips the rfft/irfft round trip,
    which is not exact at Bluestein sizes such as 331."""
    out = np.array(values, dtype=float)
    vary = np.ptp(out, axis=-1) != 0.0
    if np.any(vary):
        coef = np.fft.rfft(out[vary])
        coef[..., max_mode + 1 :] = 0.0
        out[vary] = np.fft.irfft(coef, n=out.shape[-1])
    return out


def mode_amplitudes(values: np.ndarray) -> np.ndarray:
    """Normalized magnitudes |c_k| of the trigonometric interpolant along the
    last axis."""
    return np.abs(np.fft.rfft(values)) / values.shape[-1]


class FourierStiffness:
    """Circle stiffness D_s^T diag(w) D_s with D_s the staggered derivative.

    ``stiff @ u`` applies it by FFT along the first axis, as a matrix would;
    constants are subtracted first, so their image is exactly zero.  Built
    from a stack of weights (s, n), it applies each to its own operand of a
    stack (s, n, m) along the second axis, as a stack of matrices would.

    A round circle's block (``CircleAxis.stiffness``, from ``is_round``) has
    constant weight rows, and ``@`` applies it as the Fourier symbol w k^2
    (``modal``): one forward and one inverse FFT per line, with k^2 the exact
    integer squares.  Any other block takes ``staggered``: the factorization
    itself, four FFTs per line.  The dense oracle builds every block through
    ``staggered``, so it stays independent of ``modal``.
    """

    def __init__(self, weight: np.ndarray, is_round: bool = False):
        self.weight = weight
        self.is_round = is_round
        ops = _fourier_ops(weight.shape[-1])
        self.symbol = ops["ik_stag"]
        if is_round:
            self.row = weight[..., :1]
            self.k2 = -ops["k2"]

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.modal(u) if self.is_round else self.staggered(u)

    def _centred(self, u) -> tuple[np.ndarray, int]:
        """``u`` less its first slice along the grid axis, so a constant
        reaches the transforms as exact zeros, and the stack depth."""
        lead = self.weight.ndim - 1
        return _centred(u, lead), lead

    def modal(self, u: np.ndarray) -> np.ndarray:
        """w k^2 applied in Fourier modes; only for constant weight rows."""
        v, lead = self._centred(u)
        coef = np.fft.rfft(v, axis=lead)
        coef *= along(self.k2, 0, v.ndim - lead)
        return along(self.row, 0, v.ndim - lead) * np.fft.irfft(coef, n=v.shape[lead], axis=lead)

    def staggered(self, u: np.ndarray) -> np.ndarray:
        """D_s^T diag(w) D_s applied factor by factor, for any weight."""
        v, lead = self._centred(u)
        flux = along(self.weight, 0, v.ndim - lead) * _spectral(self.symbol, v, lead)
        return _spectral(self.symbol.conj(), flux, lead)


class CircleAxis:
    """One periodic factor, sampled at uniform nodes.

    Parameters
    ----------
    a : array
        Metric coefficient samples (length squared), strictly positive: one
        row of n, or (m, n) rows, one per output of a stack.
    f : array
        Weight samples on this factor, of the shape of ``a``.
    """

    kind = "circle"

    def __init__(self, a, f):
        a = np.asarray(a, dtype=float)
        f = np.asarray(f, dtype=float)
        if a.ndim not in (1, 2) or a.shape != f.shape:
            raise ConfigurationError("circle metric and weight samples must be congruent rows")
        if a.shape[-1] < 8:
            raise ConfigurationError(f"circle resolution {a.shape[-1]} below the minimum of 8")
        if np.min(a) <= 0.0:
            raise AssemblyError(
                f"circle metric coefficient non-positive at node {int(np.argmin(a)) % a.shape[-1]}"
            )
        self.size = a.shape[-1]
        self.nodes = circle_nodes(self.size)
        self.a = a
        self.f = f
        self.weights = np.full(self.size, 2.0 * math.pi / self.size)
        self.wdens = self.weights * (np.exp(-f) * np.sqrt(a))  # quadrature weight times e^{-f} sqrt(a)
        self._ops = _fourier_ops(self.size)
        self.fprime = self.d1_vec(f)
        self.christoffel = self.d1_vec(a) / (2.0 * a)

    def __getitem__(self, index) -> "CircleAxis":
        """Output ``index`` of a stack, or a sub-stack: views of its rows,
        nothing recomputed but ``is_round``."""
        rows = ("a", "f", "wdens", "fprime", "christoffel", "hess_f")
        out = object.__new__(CircleAxis)
        out.__dict__.update({k: v[index] if k in rows else v for k, v in vars(self).items() if k != "is_round"})
        return out

    def d1(self, field: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        return apply_deriv(_fourier_dense(self.size)["d1"], field, axis, lead)

    def d2(self, field: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        return apply_deriv(_fourier_dense(self.size)["d2"], field, axis, lead)

    def d1_vec(self, values: np.ndarray) -> np.ndarray:
        return self._deriv_vec("ik", values)

    def d2_vec(self, values: np.ndarray) -> np.ndarray:
        return self._deriv_vec("k2", values)

    def _deriv_vec(self, symbol: str, values: np.ndarray) -> np.ndarray:
        """A derivative of node values along the last axis, of one row or a
        stack of rows; a constant row's is zero, with no transform."""
        out = np.zeros(values.shape)
        vary = np.ptp(values, axis=-1) != 0.0
        if np.any(vary):
            rows = values[vary]
            out[vary] = _spectral(self._ops[symbol], rows - rows[:, :1], axis=-1)
        return out

    @functools.cached_property
    def is_round(self) -> bool:
        """All a and all f samples of each row equal, at every output of a
        stack: every operator is diagonal in Fourier modes."""
        return bool(np.all(np.ptp(self.a, axis=-1) == 0.0) and np.all(np.ptp(self.f, axis=-1) == 0.0))

    @functools.cached_property
    def hess_f(self) -> np.ndarray:
        """Hess f in theta coordinates: f'' - Gamma f'."""
        return self.d2_vec(self.f) - self.christoffel * self.fprime

    def _stag(self, values: np.ndarray) -> np.ndarray:
        """Trigonometric interpolant of node values at theta_j + pi/n, of one
        row or a stack of rows; a constant row interpolates to itself, with
        no transform."""
        out = np.array(values, dtype=float)
        vary = np.ptp(values, axis=-1) != 0.0
        if np.any(vary):
            rows = values[vary]
            out[vary] = rows[:, :1] + _spectral(self._ops["stag"], rows - rows[:, :1], axis=-1)
        return out

    def stiffness(self) -> FourierStiffness:
        # Weak form of the drift Laplacian in theta coordinates: the gradient
        # weight is a^{-1} e^{-f} sqrt(a) = a^{-1/2} e^{-f}, sampled on the
        # half-shifted grid where the staggered derivative lives.  Round rows
        # interpolate to themselves.
        a_stag, f_stag = (self.a, self.f) if self.is_round else (self._stag(self.a), self._stag(self.f))
        if np.min(a_stag) <= 0.0:
            raise AssemblyError("circle metric coefficient non-positive between nodes")
        return FourierStiffness(self.weights * np.exp(-f_stag) / np.sqrt(a_stag), self.is_round)


# --------------------------------------------------------------------------
# Hermite machinery (cached per basis order)
# --------------------------------------------------------------------------


@functools.cache
def _hermite_ops(order: int) -> dict[str, np.ndarray]:
    """Nodes, weights and basis operators for ``order`` Hermite modes, and
    the per-node data of a Gaussian line that no scale changes (its
    quadrature weights, x^2/4, f' and Hess f); read-only, cached per order.

    The basis is p_k(x) = He_k(x / sqrt(2)), the eigenfunctions of
    u'' - (x/2) u' with eigenvalue -k/2; quadrature is Gauss-Hermite for the
    weight e^{-x^2/4}, exact through polynomial degree 2*order - 1.  The
    basis is evaluated orthonormalized, by its three-term recurrence, so that
    quadrature exactness gives the inverse of the Vandermonde matrix as its
    weighted transpose; no ill-conditioned monomial solve is needed.
    """
    y, wy = hermite_e.hermegauss(order)
    nodes = math.sqrt(2.0) * y
    wdens = math.sqrt(2.0) * wy  # integrates q(x) e^{-x^2/4} dx exactly
    density = np.exp(-(nodes**2) / 4.0)  # e^{-f} sqrt(a), the same for every scale
    # vand[i, k] = q_k(y_i) with q_k = He_k / sqrt(sqrt(2 pi) k!), orthonormal
    # for e^{-y^2/2} dy, so vand.T @ diag(wy) @ vand = I under the quadrature.
    vand = np.empty((order, order))
    vand[:, 0] = (2.0 * math.pi) ** -0.25
    vand[:, 1] = y * vand[:, 0]
    for k in range(1, order - 1):
        vand[:, k + 1] = (y * vand[:, k] - math.sqrt(k) * vand[:, k - 1]) / math.sqrt(k + 1)
    vinv = (vand * wy[:, None]).T
    # d/dx q_k = sqrt(k / 2) q_{k-1}
    shift = np.diag(np.sqrt(np.arange(1, order) / 2.0), k=1)
    d1 = vand @ shift @ vinv
    # The basis renormalized under the quadrature itself: the eigenvectors.
    eigvecs = vand / np.sqrt(np.sum(vand * vand * wdens[:, None], axis=0))
    return _read_only(
        {"nodes": nodes, "wdens": wdens, "vand": vand, "vinv": vinv, "d1": d1, "d2": d1 @ d1, "eigvecs": eigvecs,
         "weights": wdens / density, "quarter_sq": nodes**2 / 4.0, "fprime": nodes / 2.0,
         "hess_f": np.full(order, 0.5)}
    )


class HermiteLineAxis:
    """One Gaussian line factor with constant metric multiplier ``scale``: a
    float, or an (m, 1) column of them, one per output of a stack.

    The factor weight is x^2/4 + (1/2) log(scale); with that split the
    combined quadrature density e^{-f} sqrt(a) equals e^{-x^2/4} regardless of
    the scale, which makes weighted volume manifestly constant along the flow.
    """

    kind = "hermite"

    def __init__(self, order: int, scale):
        if order < 3:
            raise ConfigurationError(f"hermite basis order {order} below the minimum of 3")
        stacked = np.ndim(scale) > 0
        scale = np.asarray(scale, dtype=float) if stacked else float(scale)
        if (scale.min() if stacked else scale) <= 0.0:
            raise AssemblyError("gaussian metric multiplier must be positive")
        # math.log of each scale, as for one output: numpy's log may differ in the last bit
        log = np.array([[math.log(s)] for s in scale[:, 0]]) if stacked else math.log(scale)
        ops = _hermite_ops(order)
        self.size = order
        self.scale = scale
        self.nodes = ops["nodes"]
        self.wdens = ops["wdens"]  # e^{-f} sqrt(a) times the quadrature weights, scale-free
        self.weights = ops["weights"]
        self.a = scale
        self.f = ops["quarter_sq"] + 0.5 * log
        self.fprime = ops["fprime"]
        self.hess_f = ops["hess_f"]  # Hess of x^2/4; the log-scale part is flat
        self.christoffel = 0.0
        self._d1 = ops["d1"]
        self._d2 = ops["d2"]

    def __getitem__(self, index) -> "HermiteLineAxis":
        """Output ``index`` of a stack, or a sub-stack, rebuilt from its scales."""
        scale = self.scale[index]
        return HermiteLineAxis(self.size, scale[0] if scale.ndim == 1 else scale)

    def d1(self, field: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        return apply_deriv(self._d1, field, axis, lead)

    def d2(self, field: np.ndarray, axis: int, lead: int = 0) -> np.ndarray:
        return apply_deriv(self._d2, field, axis, lead)

    def stiffness(self) -> "HermiteStiffness":
        """d1^T diag(wdens / scale) d1: an (n, n) block, or (m, n, n) for a stack."""
        w = self.wdens / self.scale
        return HermiteStiffness(self._d1.T @ (w[..., :, None] * self._d1))


class HermiteStiffness:
    """Gaussian-line stiffness d1^T diag(w) d1 as a dense ``matrix``, (n, n)
    or a stack (s, n, n).  ``stiff @ u`` applies it along the first axis of
    u, or the second on a stack, as the matrix would, with the value at the
    central node n // 2 subtracted first.  d1 of a constant is round-off,
    not zero, and the block grows as 1 / scale, so without the subtraction
    the constant pair's residual grows as the line narrows (5.5e-8 at scale
    1e-7, order 56); with it a constant's image is exactly zero.  The
    central node, not the first: a degree-j basis vector is largest at the
    outermost nodes, and taking that value off every node costs digits
    (worst residual 1.1e-9 at order 64, against 5.3e-15 from the centre)."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ _centred(u, self.matrix.ndim - 2, self.matrix.shape[-1] // 2)
