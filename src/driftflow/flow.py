"""Time integration of the coupled metric/weight system and its diagnostics.

The metric and weight evolve by

    g_t = g - 2 Hess_f - 2 Ric,      f_t = n/2 - S - Delta f

(Ric and S vanish on the supported flat factors).  The weight equation
contains a backward heat operator, so naive forward integration is ill posed;
the integrator therefore works in a fixed Fourier-Galerkin truncation with an
explicit RK4 step, a per-step noise floor that keeps round-off from seeding
the unstable modes, and a mode-energy monitor that aborts genuine blow-up.
Each kept Galerkin step is checked by the embedded estimate dt/6 |k4 - k5|,
where k5, the right-hand side at the kept state, is the next step's first
stage ("first same as last"): four right-hand sides per step.  Taken per
block relative to the block's size, the estimate of every kept step is at
most ``adaptive_tol``; a step above it is redone as two half steps.
A round circle (all a samples equal, all f samples equal) is two numbers in
the state, its a and its f: on constant rows the stage formulas give exactly
(a, 1/2), so it stays round, and its two numbers take the operations and
bits of its 2n equal samples.  Without a full-row circle the state is
Python floats, a float for one number and a list for more: Python's
+ - * / and abs are numpy's elementwise IEEE-754 operations and each entry
is its own error block, so the bits are the array's.  A run chooses its
step kernel once (``_kernel``) and calls it once per output.  The array,
float and list kernels have one shape: each steps, estimates and halves
inline, and redoes a rejected step by calling itself on two steps of h / 2.
The array kernel takes its stages from the step plan through ``_rk4``; the
float and list kernels write the RK4 stages inline, with no call per step.
Only a circle that is not round keeps its rows, as an array; a stage
projects them onto the kept modes only when the cutoff lies below the
grid's Nyquist mode (at ``modes = resolution // 2`` the grid is the
truncation), and ``_settle`` filters them after each step.  Exact analytic
families make the truncation exact and serve as validation.

Tracked scalars follow the drift heat equation u_t = L u + u/2 (one-way
coupling) through an integrating factor (Lawson 1967).  On a Gaussian line
or a round circle L acts as c_i(t) D_i, with D_i fixed and diagonal in the
axis's basis (j/2 on the Hermite functions, k^2 on the Fourier modes) and
c_i = 1/u or 1/a read from the Galerkin geometry.  L is a Kronecker sum,
so a scalar that starts as a product of per-axis columns, as output 0's
eigenfunctions do, stays one: a run carries each as its (k, n_i) columns
per axis and builds no grid field of them.  The integrals C_i of c_i dt
join the geometry in the RK4 state; each output records its C_i and its
lag s, and once the steps are done E = exp(s/2 - sum_i D_i C_i) gives
u = E V on each sub-stack of ``run_flow``'s loop, one call each.  Only a
circle that is not round keeps its full operator in the stages, acting on
its columns V, which each output then records too; without one, the
stages never touch the scalars, and the geometry takes the steps of a run
without them.  A Galerkin run builds one step plan (``_flow_rhs``), the
first stage of every kernel and every stage of the array kernel.
The analytic backend steps nothing: its outputs are the closed-form
states, and its scalars are carried by the same E with each C_i in closed
form, exact on every supported family.  No run calls
``oracles.modal_propagator``, which ``acceptance.check_functionals`` puts
them against.

Each backend returns only what differs between the two, as arrays: per
output its row of the layout's packed geometry (``_Layout.pack``), with
tracked scalars its integrals and its lag, and the V that each stepped
circle records.  ``run_flow`` does the rest once: it builds the run's
layout and all outputs as one stack (``_Layout.stack``), which the
spectra, the commutator, the volumes and the checks read.  It then takes
one loop over the stack's sub-stacks of consecutive outputs, each sized
by ``_stack_length`` to STACK_BYTES for the grid arrays that one output of
it holds (``_loop_arrays``): OUTPUT_ARRAYS on a product, whatever k, and
more on one axis, where the columns are grid arrays.  Per sub-stack it
writes into its part of each preallocated result: the eigenvalues and
eigen-residuals (output 0 solved like the rest), the commutator residuals
and the weighted volumes, and with tracked scalars it sets its part of
the scalar columns to E V (``_factor``; a stepped circle's V is written
over in place) and pairs them.  A run keeps of
its spectra only their (m, k + 1) eigenvalues and eigen-residuals; a sub-stack's solve
(``spectral._eigensolve``) checks each pair on its per-axis columns and
builds no eigenfunction.  ``run_flow`` returns one frozen
``FlowTrajectory``, built once from finished values: its residual columns
are computed before the record is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .axes import CircleAxis, HermiteLineAxis, _fourier_dense, _hermite_ops, along, apply_along, circle_nodes, lowpass
from .comparison import eigenvalue_bound
from .errors import (
    ConfigurationError,
    DegeneracyError,
    FlowBreakdownError,
    HorizonError,
    StabilityError,
    UsageError,
)
from .geometry import CircleModel, ContinuumState, DiscreteWeightedManifold, discretize, evaluate_family
from .spectral import _eigensolve, _factored_pairings, _product_fields, assemble_forms, lowest_eigenpairs, partials

__all__ = [
    "FlowTrajectory",
    "RunRequest",
    "run_flow",
    "functional_residuals",
    "FunctionalResidualReport",
    "gram_schmidt_frame",
    "commutator_residual",
]

MAX_STEP = 0.05

# Largest estimated field memory a run may use, checked before discretizing.
MAX_FIELD_BYTES = 1 << 30

# Copies of k + 1 grid fields that ``_check_field_memory`` charges once per
# run.  No step holds a grid field, so they bound the fields a run builds
# on the grid: output 0's solve and the commutator's probe, the splitting
# certificate's and the Bochner check's fields, and a sub-stack of the
# propagator check, sized for FIELD_COPIES copies of each output's k scalar
# fields (``FlowTrajectory.scalar_stacks``).
FIELD_COPIES = 16

# Grid arrays that one output of a sub-stack of ``run_flow``'s loop holds
# above what the run keeps: the commutator's rates, W, the divergence, the
# residual and their squares, and the field of ones for the volumes.
# tracemalloc reads 6.3 to 7.6 per output on 12 x 64, 16 x 256 and
# 16 x 1024 products at k = 1, 3 and 8, with or without scalars.
OUTPUT_ARRAYS = 10

# Copies of each output's per-axis work that the loop's solve and pairings
# hold (``_loop_arrays``): of the k + 1 columns of each axis, and of a
# Gaussian line's n x n stiffness block.  On a product they take less than
# OUTPUT_ARRAYS grid arrays; on one axis the columns are grid arrays.  Per
# output tracemalloc reads 8.0 (k + 1) n numbers on circles of 64 to 1024
# nodes at k = 1 and 8, and on Gaussian lines of order 12 to 64 at most
# 2.0 n^2 more.
COLUMN_COPIES = 8
BLOCK_COPIES = 3

# Largest estimated temporary memory of one sub-stack of consecutive outputs,
# in ``run_flow``'s loop and in the propagator check.  A grid where one
# output takes more goes one output at a time.  On a horizon-2, cadence-1
# 12 x 64 product with k = 3 (2001 outputs) ``run_flow`` took 390 ms at 5
# outputs per sub-stack, 168 ms at 34 (this budget), 138 ms at 128 and
# 184 ms at all 2001 in one.
STACK_BYTES = 2 << 20

# ``_settle`` zeroes a circle mode below NOISE_FLOOR times its row's scale, and
# a run stops when a kept mode exceeds STABILITY_FACTOR (1 + max |geometry|)
# of its initial state.  ``_run_loop`` reads both as it runs.
NOISE_FLOOR = 1e-13
STABILITY_FACTOR = 1e6

# ``functional_residuals`` takes rates of at least RATE_FLOOR max |J| as scale.
RATE_FLOOR = 1e-3


# --------------------------------------------------------------------------
# Flat integrator state
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """Where each part of a run's state lives in its flat vector.

    ``axes`` holds (kind, offset, size) per axis, ``size`` its node count or
    Hermite order.  A round circle (kind ``"round"``: all a samples equal and
    all f samples equal) stores its a and its f from ``offset``, two entries,
    since its stages keep it round: constants have exactly zero derivatives.
    Any other circle (``"circle"``) stores its ``size`` samples of a and then
    of f, and a Gaussian line its metric multiplier; ``width`` entries in all.
    ``circles`` are the (offset, size) of the full-row circles, the only rows
    ``_settle`` filters.  With ``count`` tracked scalars, u = E V on each
    axis's columns (``_factor``), the geometry is followed by one integral
    C_i of c_i dt per diagonal axis, in the order of ``diagonal``, and then
    by the raveled (count, n) columns V of each full-row circle
    (``stepped``), which its full scalar operator steps.  A diagonal axis is
    a Gaussian line or a round circle; its scalar operator is c_i(t) D_i
    with D_i fixed and diagonal in the axis's basis, so its V never changes.
    Everything but ``axes`` and ``count`` follows from them, so no layout
    names a full-row circle diagonal.  A run records each output as its geometry row, the first
    ``width`` entries.
    """

    axes: tuple
    count: int = 0
    width: int = field(init=False)
    shape: tuple = field(init=False)
    circles: tuple = field(init=False)
    diagonal: tuple = field(init=False)
    stepped: tuple = field(init=False)

    def __post_init__(self):
        circles = tuple((off, n) for kind, off, n in self.axes if kind == "circle")
        derived = {
            "width": sum(_span(kind, n) for kind, _, n in self.axes),
            "shape": tuple(n for _, _, n in self.axes),
            "circles": circles,
            "diagonal": tuple(i for i, (kind, _, _) in enumerate(self.axes) if kind != "circle") if self.count else (),
            "stepped": tuple(i for i, (kind, _, _) in enumerate(self.axes) if kind == "circle") if self.count else (),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def of(cls, dm: DiscreteWeightedManifold, count: int = 0) -> "_Layout":
        axes, offset = [], 0
        for ax in dm.axes:
            kind = "round" if ax.kind == "circle" and ax.is_round else ax.kind
            axes.append((kind, offset, ax.size))
            offset += _span(kind, ax.size)
        return cls(tuple(axes), count)

    @property
    def start(self) -> int:
        """The offset of V, right after the integrals."""
        return self.width + len(self.diagonal)

    @property
    def columns(self) -> list:
        """(axis, lo, hi) of the V of each stepped circle: its (count, n)
        columns, raveled into z[lo:hi], one block after another."""
        spans, lo = [], self.start
        for axis in self.stepped:
            spans.append((axis, lo, lo + self.count * self.shape[axis]))
            lo = spans[-1][2]
        return spans

    @property
    def blocks(self) -> list:
        """The starts of the blocks of the array kernel's error norm: each
        circle's a and f (rows, or one number each if round), each Gaussian
        multiplier, each integral, and each scalar's column of each stepped
        circle's V."""
        starts = []
        for kind, off, n in self.axes:
            starts += [off] if kind == "hermite" else [off, off + (n if kind == "circle" else 1)]
        starts += range(self.width, self.start)
        for axis, lo, hi in self.columns:
            starts += range(lo, hi, self.shape[axis])
        return starts

    def pack(self, state) -> np.ndarray:
        """The geometry row of one output, from a manifold's axes or a continuum
        state's factors (sampled at the nodes, as by ``discretize``)."""
        parts = []
        for (kind, _, n), fac in zip(self.axes, state.factors if isinstance(state, ContinuumState) else state.axes):
            if kind == "hermite":
                parts.append([fac.scale])
                continue
            theta = circle_nodes(n)
            a, f = (fac.a_at(theta), fac.f_at(theta)) if isinstance(fac, CircleModel) else (fac.a, fac.f)
            parts += [a[:1], f[:1]] if kind == "round" else [a, f]
        return np.concatenate(parts)

    def stack(self, rows: np.ndarray, times: np.ndarray) -> DiscreteWeightedManifold:
        """The outputs of a run as one stack, from their geometry rows (m,
        ``width``) and their times: a round circle's two numbers repeated
        over its nodes."""
        axes = []
        for kind, off, n in self.axes:
            row = n if kind == "circle" else 1
            a, f = _positive(rows[:, off : off + row]), rows[:, off + row : off + 2 * row]
            axes.append(
                HermiteLineAxis(n, a.copy()) if kind == "hermite"
                else CircleAxis(np.repeat(a, n // row, axis=1), np.repeat(f, n // row, axis=1))
            )
        return DiscreteWeightedManifold(axes, t=times)


def _span(kind: str, size: int) -> int:
    """The entries of one axis's geometry in the state."""
    return {"circle": 2 * size, "round": 2, "hermite": 1}[kind]


def _positive(a: np.ndarray) -> np.ndarray:
    if a.min() <= 0.0:
        raise FlowBreakdownError(int(np.argmin(a)) % a.shape[-1])
    return a


def _flow_rhs(layout: _Layout, modes: int):
    """Galerkin right-hand side of the geometry, the integrals and V.

    The step plan, built once: per axis its kind, its derivative pair, the
    slot of its integral if it is diagonal (a round circle or a Gaussian
    line), and for a full-row circle whether the cutoff ``modes`` lies below
    the grid's Nyquist mode n // 2.  Only then does a stage project the
    circle's rows (a - 2 Hess f, 1/2 - Hess f / a) with ``lowpass``; at
    ``modes = n // 2`` the grid itself is the truncation, and the rows are
    written as they are.  On a round circle these formulas are exactly
    (a, 1/2), since constants have bitwise-zero derivatives (a - 2 * 0 = a,
    1/2 - 0 / a = 1/2), so the stage writes those two numbers with no
    derivative product and no projection.  A diagonal axis adds C_i' = 1/a
    of a round circle or 1/u of a Gaussian line.  With scalars, each
    full-row circle applies its full scalar operator
    (v'' - (Gamma + f') v') / a to the (count, n) columns of its V
    (``apply_along``), the other axes' parts of L acting through E;
    derivatives act on V - V[0] along the axis, exactly zero on constants.
    Every stage of the array kernel is taken here; of the float and list
    kernels, only the first stage of a run.
    """
    plan, columns = [], {axis: (lo, hi) for axis, lo, hi in layout.columns}
    for axis, (kind, off, n) in enumerate(layout.axes):
        ops = _fourier_dense(n) if kind == "circle" else dict.fromkeys(("d1", "d2"))
        project = kind == "circle" and modes < n // 2
        integral = layout.width + layout.diagonal.index(axis) if axis in layout.diagonal else None
        plan.append((kind, project, off, n, ops["d1"], ops["d2"], integral, columns.get(axis)))

    def rhs(t, z):
        dz = np.empty_like(z)
        for kind, project, off, n, d1, d2, integral, v in plan:
            if kind == "circle":
                a, f = _positive(z[off : off + n]), z[off + n : off + 2 * n]
                df = f - f[0]
                fprime = d1 @ df
                gamma = d1 @ (a - a[0]) / (2.0 * a)
                hess_f = d2 @ df - gamma * fprime
                rows = dz[off : off + 2 * n].reshape(2, n)
                rows[0] = a - 2.0 * hess_f
                rows[1] = _weight_rate(hess_f, a)
                if project:
                    rows[:] = lowpass(rows, modes)
                if v is not None:
                    out = dz[v[0] : v[1]].reshape(-1, n)
                    out[...] = 0.0
                    drift = (gamma + fprime)[:, None]
                    out += apply_along(lambda x: (d2 @ x - drift * (d1 @ x)) / a[:, None],
                                       z[v[0] : v[1]].reshape(-1, n), 1, "C")
            else:  # a round circle's a or a Gaussian line's multiplier u
                a = z[off]
                if a <= 0.0:
                    raise FlowBreakdownError(0)
                if kind == "round":
                    dz[off], dz[off + 1] = a, 0.5
                else:
                    dz[off] = a - 1.0
                if integral is not None:
                    dz[integral] = 1.0 / a
        return dz

    return rhs


def _factor(layout: _Layout, columns: list, integrals: np.ndarray, lags: np.ndarray) -> list:
    """u = E V at each output of a sub-stack, per axis the (m, count, n)
    columns of its scalars, E = exp(s/2 - sum_i D_i C_i) at the output's
    lag s acting on each diagonal axis's columns alone.

    ``columns`` holds per axis the (count, n) V that every output shares on
    a diagonal axis, or the (m, count, n) stack of the outputs' V on a
    stepped circle, which E leaves as it is; ``integrals`` are each
    output's C_i of c_i dt since the start, (m, diagonal), and ``lags`` its
    s.  Along a round circle D_i is k^2 on the rfft modes, Nyquist
    included; along a Gaussian line j/2 on the orthonormal Hermite
    functions, whose change of basis and back, ``vand`` diag(gain)
    ``vinv``, is one n x n matrix per output.  The growth s/2 rides in the
    first diagonal axis's gains, or else scales the first axis.  Each
    output's columns are transformed as for that output alone
    (``apply_along`` with ``lead`` = 1).  At zero lag E is the identity.
    """
    lags = np.asarray(lags, dtype=float)
    out, lag = list(columns), lags[:, None] / 2.0
    for axis, c in zip(layout.diagonal, integrals.T):
        kind, _, n = layout.axes[axis]
        v = columns[axis][None]
        spectrum = 0.5 * np.arange(n) if kind == "hermite" else np.arange(n // 2 + 1) ** 2.0  # D_i per mode
        gains = np.exp(lag - spectrum * c[:, None])
        if kind == "hermite":
            ops = _hermite_ops(n)
            u = apply_along((ops["vand"] @ (gains[:, :, None] * ops["vinv"])).__matmul__, v, 2, lead=1)
        else:
            u = np.fft.irfft(np.fft.rfft(v, axis=2) * gains[:, None], n=n, axis=2)
        u[lags == 0.0] = v[0]
        out[axis], lag = u, 0.0
    if not layout.diagonal:  # only full-row circles: the growth alone
        out[0] = np.array([math.exp(s / 2.0) for s in lags.tolist()]).reshape(-1, 1, 1) * out[0]
    return out


def _rk4(rhs, t: float, z: np.ndarray, dt: float, k1=None):
    """One classical RK4 step of z' = rhs(t, z) on an array, ``k1`` optional:
    (state, k4).  The array kernel's step; ``_float_steps`` and
    ``_list_steps`` write its stages inline, in its order of operations."""
    if k1 is None:
        k1 = rhs(t, z)
    k2 = rhs(t + dt / 2, z + (dt / 2) * k1)
    k3 = rhs(t + dt / 2, z + (dt / 2) * k2)
    k4 = rhs(t + dt, z + dt * k3)
    out = z + (dt / 6.0) * k1
    out += (2.0 * dt / 6.0) * k2
    out += (2.0 * dt / 6.0) * k3
    out += (dt / 6.0) * k4
    return out, k4


def _settle(layout: _Layout, z: np.ndarray, modes: int, floor: float, threshold: float) -> np.ndarray:
    """Zero the circle modes above ``modes`` or below the relative noise
    floor, then raise StabilityError if a kept |c_k| / n (``mode_amplitudes``)
    exceeds ``threshold``, a circle's a row checked before its f row.  Per
    full-row circle (``layout.circles``; a round one has no modes): one rfft,
    one |c_k| pass, one max reduction and one irfft.  A constant row, such as
    a constant f beside a varying a, has nothing to zero or monitor and skips
    the round trip (see ``lowpass``), which is not exact at Bluestein sizes."""
    z = z.copy()
    for off, n in layout.circles:
        rows = z[off : off + 2 * n].reshape(2, n)
        vary = np.ptp(rows, axis=1) != 0.0
        if not vary.any():
            continue
        coef = np.fft.rfft(rows[vary])
        size = coef.shape[-1]
        scale = np.fmax(1.0, np.abs(coef[:, :1]) / size)
        coef[:, modes + 1 :] = 0.0
        kept = coef[:, 1 : modes + 1]
        amps = np.abs(kept)
        low = amps < floor * scale * size
        kept[low] = amps[low] = 0.0
        rows[vary] = np.fft.irfft(coef, n=n)
        for peak in amps.max(axis=1) / n:
            if peak > threshold:
                raise StabilityError(
                    f"circle mode energy {peak:.3e} exceeds threshold {threshold:.3e}; "
                    "use a shorter horizon or a lower mode cutoff"
                )
    return z


# --------------------------------------------------------------------------
# Full runs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to reproduce one flow run deterministically."""

    family: object
    horizon: float
    dt: float = 1e-3
    cadence: int = 10
    resolution: int = 64
    hermite_order: int = 12
    modes: int = 32
    k: int = 2
    backend: str = "galerkin"
    eig_tol: float = 1e-10
    adaptive_tol: float = 1e-9
    track_scalars: bool = True

    def __post_init__(self):
        if self.horizon < 0.0:
            raise ConfigurationError(f"horizon must be nonnegative, got {self.horizon}")
        if self.backend not in ("galerkin", "analytic"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.cadence < 1:
            raise ConfigurationError("output cadence must be a positive integer")
        if not (0.0 < self.dt <= MAX_STEP):
            raise ConfigurationError(f"dt {self.dt} outside (0, {MAX_STEP}]")

    @property
    def steps(self) -> int:
        """Steps of the run: horizon / dt rounded, none at horizon 0."""
        return int(round(self.horizon / self.dt)) if self.horizon > 0 else 0


@dataclass(frozen=True)
class FlowTrajectory:
    """Recorded outputs of one run plus everything needed to replay it.

    Per output, one row of each array: its time, its sampled geometry, its
    k + 1 eigenvalues and their eigen-residuals, its weighted volume, and
    with tracked scalars their pairings (``series``); ``residual_ij`` is NaN
    without them.  Each tracked scalar is a product of per-axis columns, and
    ``scalar_factors`` holds them, one (m, k, n_i) array per axis (None
    without scalars): O(k sum_i n_i) numbers per output, where the fields
    take k prod_i n_i.  ``scalar_fields`` builds the fields of one output or
    one sub-stack.  ``manifolds`` is the geometry of every output as one
    stack (``DiscreteWeightedManifold``): ``manifolds[m]`` is output m's
    manifold, whose solve gives its eigenvalues and residuals in the bits
    of the run's, and its eigenfunctions, which the run never builds past
    output 0.  Built once by ``run_flow``.
    """

    request: RunRequest
    times: np.ndarray
    manifolds: DiscreteWeightedManifold
    eigenvalues: np.ndarray
    eigen_residuals: np.ndarray
    volumes: np.ndarray
    scalar_factors: tuple | None
    series: dict
    bounds: np.ndarray
    residual_ij: np.ndarray
    residual_commutator: np.ndarray

    def scalar_fields(self, index) -> np.ndarray:
        """The tracked scalars on the grid at output ``index``, (k, *shape), or
        at the outputs of a slice, (s, k, *shape): each the product of its
        columns (``spectral._product_fields``).  Output 0's are its
        eigenfunctions 1..k in their bits."""
        return _product_fields([cols[index] for cols in self.scalar_factors])

    def scalar_stacks(self):
        """(sub, fields, stack) of each sub-stack of consecutive outputs of
        the propagator check, sized for FIELD_COPIES copies of each output's
        k scalar fields: its slice, its outputs' fields (``scalar_fields``)
        and its manifolds."""
        for sub in _sub_stacks(len(self.times), self.manifolds.size, FIELD_COPIES * self.request.k):
            yield sub, self.scalar_fields(sub), self.manifolds[sub]


def _peak(values: list) -> float:
    """max(values), NaN if one is, as ``np.max``: all are >= 0 or NaN, so only then is their sum NaN."""
    return max(values) if (total := sum(values)) == total else total


def _check_halvings(err: float, depth: int) -> None:
    """StabilityError if a step whose estimate ``err`` is rejected has already been halved 12 times."""
    if depth >= 12:
        raise StabilityError(f"step error {err:.3e} persists after 12 halvings")


def _array_steps(rhs, settle, blocks, tol, t, z, h, count, k1, depth=0):
    """The array kernel: (z, k1, worst) after ``count`` steps of h from time
    t and first stage k1 = rhs(t, z), worst the largest of their estimates.
    Each step keeps z1 = settle(RK4(z, h)) and the next first stage k5 =
    rhs(t + h, z1), and estimates err = h/6 max |k4 - k5|, above ``tol``
    per block (starting at ``blocks``) relative to max(1, max |z1|) there.
    k4 and k5 share the time t + h, so ``rhs`` must be autonomous.  A step
    above ``tol`` recurses as two of h / 2; StabilityError after 12 halvings."""
    worst = 0.0
    for i in range(count):
        ti = t + i * h
        z1, k4 = _rk4(rhs, ti, z, h, k1)
        z1 = settle(z1)
        k5 = rhs(ti + h, z1)
        diff = np.abs(np.subtract(k4, k5, out=k4), out=k4)  # k4 is spent
        err = h / 6.0 * float(diff.max())
        if err > tol:
            scale = np.fmax(1.0, np.maximum.reduceat(np.abs(z1), blocks))
            err = h / 6.0 * float(np.max(np.maximum.reduceat(diff, blocks) / scale))
        if not err <= tol:
            _check_halvings(err, depth)
            z1, k5, err = _array_steps(rhs, settle, blocks, tol, ti, z, h / 2, 2, k1, depth=depth + 1)
        z, k1 = z1, k5
        if err > worst:
            worst = err
    return z, k1, worst


def _float_steps(tol, t, z, h, count, k1, depth=0):
    """``_array_steps`` of one Gaussian multiplier u' = u - 1 as a float,
    each stage inline and FlowBreakdownError(0) at u <= 0; a rejected step
    recurses as two of h / 2.  The rates are autonomous: t is not read."""
    half, sixth, third = h / 2, h / 6.0, 2.0 * h / 6.0
    worst = 0.0
    for _ in range(count):
        if (u := z + half * k1) <= 0.0:
            raise FlowBreakdownError(0)
        k2 = u - 1.0
        if (u := z + half * k2) <= 0.0:
            raise FlowBreakdownError(0)
        k3 = u - 1.0
        if (u := z + h * k3) <= 0.0:
            raise FlowBreakdownError(0)
        k4 = u - 1.0
        if (z1 := z + sixth * k1 + third * k2 + third * k3 + sixth * k4) <= 0.0:
            raise FlowBreakdownError(0)
        k5 = z1 - 1.0
        err = sixth * abs(k4 - k5)
        if err > tol:
            err = sixth * (abs(k4 - k5) / max(1.0, abs(z1)))
        if not err <= tol:
            _check_halvings(err, depth)
            z1, k5, err = _float_steps(tol, t, z, half, 2, k1, depth=depth + 1)
        z, k1 = z1, k5
        if err > worst:
            worst = err
    return z, k1, worst


def _list_steps(plan, tol, t, z, h, count, k1, depth=0):
    """``_float_steps`` of a list, axis by axis: per axis of ``plan``, whether
    it is a round circle (rate a, and 1/2 for its f) or a Gaussian line (rate
    u - 1), the entries of its a or u, of its f and of its integral (rate 1 /
    the stage's a or u), None where it has none.  Each entry is one error
    block, and ``_peak`` keeps a NaN."""
    half, sixth, third = h / 2, h / 6.0, 2.0 * h / 6.0
    worst, n = 0.0, len(z)
    for _ in range(count):
        z1, k5, diff = [0.0] * n, [0.5] * n, [0.0] * n  # k5 of a round circle's f is 1/2, and its diff 0
        for round_, i, f, c in plan:
            v, p = z[i], k1[i]
            if (x2 := v + half * p) <= 0.0:
                raise FlowBreakdownError(0)
            q = x2 if round_ else x2 - 1.0
            if (x3 := v + half * q) <= 0.0:
                raise FlowBreakdownError(0)
            r = x3 if round_ else x3 - 1.0
            if (x4 := v + h * r) <= 0.0:
                raise FlowBreakdownError(0)
            s = x4 if round_ else x4 - 1.0
            if (x := v + sixth * p + third * q + third * r + sixth * s) <= 0.0:
                raise FlowBreakdownError(0)
            k = x if round_ else x - 1.0
            z1[i], k5[i], diff[i] = x, k, abs(s - k)
            if f is not None:
                z1[f] = z[f] + sixth * k1[f] + third * 0.5 + third * 0.5 + sixth * 0.5
            if c is not None:
                s, k = 1.0 / x4, 1.0 / x
                z1[c] = z[c] + sixth * k1[c] + third * (1.0 / x2) + third * (1.0 / x3) + sixth * s
                k5[c], diff[c] = k, abs(s - k)
        err = sixth * _peak(diff)
        if err > tol:
            err = sixth * _peak([d / max(1.0, abs(x)) for d, x in zip(diff, z1)])
        if not err <= tol:
            _check_halvings(err, depth)
            z1, k5, err = _list_steps(plan, tol, t, z, half, 2, k1, depth=depth + 1)
        z, k1 = z1, k5
        if err > worst:
            worst = err
    return z, k1, worst


def output_count(request: RunRequest) -> int:
    """Outputs of a run: step 0, every cadence-th step, and the last step,
    counted without listing them (``_output_steps``)."""
    return -(-request.steps // request.cadence) + 1


def _output_steps(request: RunRequest, outputs: range | None = None) -> tuple[float, list]:
    """The step size of a run and the steps after which it records its
    outputs ``outputs``, by default all ``output_count`` of them, the last
    after the run's last step; output m is at time t0 + step dt."""
    nsteps = request.steps
    dt = request.horizon / nsteps if nsteps else request.dt
    return dt, [min(m * request.cadence, nsteps) for m in outputs or range(output_count(request))]


def output_index(request: RunRequest, t: float) -> int:
    """The index of the run's output nearest ``t``, the earlier of two as near;
    UsageError if it is more than half the first output interval away.  It
    lists only the outputs next to t, so a run of any length costs the same."""

    def times(outputs: range) -> np.ndarray:
        dt, steps = _output_steps(request, outputs)
        return request.family.t0 + np.array(steps) * dt

    first, second = times(range(2))
    spacing, last = second - first, output_count(request) - 1
    guess = int(min(max((t - first) / spacing, 0.0), last)) if spacing > 0 else 0
    near = range(max(guess - 1, 0), min(guess + 2, last + 1))
    gaps = np.abs(times(near) - t)
    if gaps.min() > 0.5 * max(spacing, 1e-12):
        raise UsageError(f"no recorded output near t = {t}")
    return near[int(np.argmin(gaps))]


def _kernel(request: RunRequest, layout: _Layout, z: np.ndarray) -> tuple:
    """(advance, z, k1) of a run from its start ``z``: its step kernel
    advance(t, z, h, count, k1) -> (z, k1, err) with the run's data bound,
    the start in that kernel's form, and its first stage.  A state with a
    full-row circle is an array (``_array_steps``, with the step plan,
    ``_settle`` and the layout's error blocks), one number a float
    (``_float_steps``) and any other state a list (``_list_steps``).  V is
    not stepped without a full-row circle."""
    rhs, tol = _flow_rhs(layout, request.modes), request.adaptive_tol
    k1 = rhs(request.family.t0, z)
    if layout.circles:
        threshold = STABILITY_FACTOR * (1.0 + float(np.max(np.abs(z[: layout.width]))))
        settle = partial(_settle, layout, modes=request.modes, floor=NOISE_FLOOR, threshold=threshold)
        return partial(_array_steps, rhs, settle, layout.blocks, tol), z, k1
    if z.size == 1:
        return partial(_float_steps, tol), float(z[0]), float(k1[0])
    plan = tuple(  # with scalars, every axis is diagonal, its integral in axis order
        (kind == "round", off, off + 1 if kind == "round" else None, layout.width + axis if layout.diagonal else None)
        for axis, (kind, off, _) in enumerate(layout.axes)
    )
    return partial(_list_steps, plan, tol), z.tolist(), k1.tolist()


def _run_loop(request: RunRequest, layout: _Layout, state0: DiscreteWeightedManifold, columns0, dt: float,
              steps: list) -> tuple:
    """(rows, integrals, lags, stepped) of a Galerkin run: one deterministic
    integration from ``state0``, one call of the run's kernel (``_kernel``)
    per output from the one before, the output after step ``steps[m]``
    recorded as its geometry row, its integrals and its lag.  The scalars
    start from ``columns0``, a (count, n) array per axis, and ``stepped``
    maps the axis of each stepped circle to the (m, count, n) V its outputs
    record; without scalars it is empty."""
    t0, width, start = request.family.t0, layout.width, layout.start
    parts = [layout.pack(state0), np.zeros(len(layout.diagonal))] + [np.ravel(columns0[i]) for i in layout.stepped]
    advance, z, k1 = _kernel(request, layout, np.concatenate(parts))
    rows, integrals, done = np.empty((len(steps), width)), np.empty((len(steps), start - width)), 0
    stepped = {axis: np.empty((len(steps), layout.count, layout.shape[axis])) for axis in layout.stepped}
    for m, step in enumerate(steps):
        z, k1, _ = advance(t0 + done * dt, z, dt, step - done, k1)
        done = step
        row = np.atleast_1d(z)
        rows[m], integrals[m] = row[:width], row[width:start]
        for axis, lo, hi in layout.columns:
            stepped[axis][m] = row[lo:hi].reshape(layout.count, -1)
    return rows, integrals, np.array([step * dt for step in steps]), stepped


def _closed_form_outputs(request: RunRequest, layout: _Layout, dt: float, steps: list) -> tuple:
    """(rows, integrals, lags, stepped) of an analytic run: the family's
    closed form after each of ``steps``, packed as its geometry row.  With
    scalars, each output's lag and its C_i in closed form: 1/a(t0) - 1/a(t)
    on a round circle, s - log(u(t) / u(t0)) on a Gaussian line; without
    them, None.  Nothing is stepped, so ``stepped`` is empty."""
    family = request.family
    states = [evaluate_family(family, family.t0 + step * dt) for step in steps]
    rows = np.array([layout.pack(state) for state in states])
    if not layout.count:
        return rows, None, None, {}
    if any(callable(fac.a) for state in states for fac in state.factors if isinstance(fac, CircleModel)):
        raise UsageError("the analytic backend's scalars need round circles")
    lags = [state.t - states[0].t for state in states]
    integrals = np.array([
        [1.0 / start.a - 1.0 / end.a if isinstance(start, CircleModel) else s - math.log(end.scale / start.scale)
         for start, end in zip(states[0].factors, state.factors)]
        for state, s in zip(states, lags)
    ])
    return rows, integrals, np.array(lags), {}


def _grid_sizes(request: RunRequest, state) -> list:
    """The node count of each circle and the order of each line of a run's grid."""
    return [request.resolution if isinstance(fac, CircleModel) else request.hermite_order for fac in state.factors]


def _field_bytes(request: RunRequest, state) -> int:
    """The estimated field memory of a run, in bytes (``_check_field_memory``)."""
    sizes, k = _grid_sizes(request, state), request.k
    scalars = k * sum(sizes) + 3 * k * k + 2 * k if request.track_scalars else 0
    rows = sum(6 * n if isinstance(fac, CircleModel) else n + 1 for fac, n in zip(state.factors, sizes))
    per_output = scalars + rows + 3 * k + 6
    return 8 * (FIELD_COPIES * (k + 1) * math.prod(sizes) + output_count(request) * per_output) + STACK_BYTES


def _check_field_memory(request: RunRequest, state) -> None:
    """Raise ConfigurationError if the run's arrays would take more than
    MAX_FIELD_BYTES, before any of them is allocated.

    The estimate (``_field_bytes``) counts 8 bytes for each entry of
    FIELD_COPIES copies of k + 1 grid fields, and STACK_BYTES, the budget
    of one sub-stack of ``run_flow``'s loop or of the propagator check.
    Per output it counts what the run keeps: with
    tracked scalars their per-axis columns, k sum_i n_i numbers, and their
    pairings J, D and dJ (k x k each), I and E; in the stacked geometry six rows of each
    circle (a, f, wdens, f', Gamma and Hess f) and the f row and the scale
    of each line; and its time, volume, two residual columns, k + 1
    eigenvalues and their residuals, and k bounds; a finished run keeps no
    eigenfunction and no grid field.  tracemalloc reads a whole run's peak
    at 0.63 to 0.73 of the estimate (an n = 2 Gaussian, and a 12 x 64
    product with and without scalars), its sub-stacks filling most of
    STACK_BYTES.  Per output a run keeps 7.5 field
    sizes on a 64-node circle with k = 2, where the columns are the fields,
    and 0.81 on a 12 x 64 product with k = 3, whose 3 fields would take 3.
    tracemalloc, k = 3 on 16 x 256: an array kernel step that carries a
    circle's V (the circle is not round) peaks at 0.87 copies of the
    scalars' grid fields (14 copies of V); a list kernel step of round axes
    holds no field (its state is a few numbers) and peaks at 0.003 copies.
    Above what it keeps, in grid arrays per output, one sub-stack of the
    loop holds on 12 x 64 and 16 x 256 products at k = 1, 3 and 8: in its
    solve 0.9 to 5.1 (forms included; the solve builds no eigenfunction),
    in its commutator 6.1 to 6.5, its volumes 1.0, E 0.2 to 2.2 and its
    pairings 0.4 to 4.5.  The parts take turns, so the loop as a whole
    holds 6.3 to 7.6 (OUTPUT_ARRAYS is 10), the commutator's the largest
    part.  On one axis the solve's and the pairings' columns are the most
    (COLUMN_COPIES).  In copies of its outputs' k scalar fields, a
    sub-stack of the propagator check holds 7.1 to 14.7, the fields it
    builds from the columns included.
    """
    nbytes = _field_bytes(request, state)
    if nbytes > MAX_FIELD_BYTES:
        points, outputs = math.prod(_grid_sizes(request, state)), output_count(request)
        raise ConfigurationError(
            f"a grid of {points} points with k = {request.k} and {outputs} outputs needs an estimated "
            f"{nbytes} bytes ({nbytes / 2**30:.1f} GiB) of field memory, above the limit of "
            f"{MAX_FIELD_BYTES} bytes; lower hermite_order, resolution, n, k or the output count"
        )


def _loop_arrays(dm: DiscreteWeightedManifold, k: int) -> float:
    """Grid arrays per output of a sub-stack of ``run_flow``'s loop on the
    grid of ``dm``: OUTPUT_ARRAYS, or its per-axis work where that is more
    (one axis, few points, a large k)."""
    work = sum(COLUMN_COPIES * (k + 1) * ax.size + (BLOCK_COPIES * ax.size**2 if ax.kind == "hermite" else 0)
               for ax in dm.axes)
    return max(OUTPUT_ARRAYS, work / dm.size)


def _stack_length(points: int, arrays: float) -> int:
    """Outputs per sub-stack: as many as STACK_BYTES holds at ``arrays``
    grid arrays of ``points`` entries per output, and at least one."""
    return max(1, int(STACK_BYTES // (8 * points * arrays)))


def _sub_stacks(count: int, points: int, arrays: float) -> list:
    """Slices of a run's ``count`` consecutive outputs, each holding
    ``_stack_length(points, arrays)`` of them."""
    per_stack = _stack_length(points, arrays)
    return [slice(lo, lo + per_stack) for lo in range(0, count, per_stack)]


def run_flow(request: RunRequest) -> FlowTrajectory:
    """Integrate a scenario and record spectra, functionals, and diagnostics.

    Eigenvalue curves are matched across time by sorted order with
    multiplicity.  When scalars are tracked, the initial eigenfunctions
    u_1..u_k (weighted-L2 normalized, mean zero) evolve by the drift heat
    equation and their mass/energy pairings are recorded per output.  A family
    extinct by the last output fails before anything is discretized.
    Output 0's solve seeds the scalars.  The backend (``_run_loop`` or
    ``_closed_form_outputs``) returns each output's geometry row, and with
    scalars its integrals, its lag and a stepped circle's V.  Every
    output's geometry is then built once, as one stack, and one loop over
    its sub-stacks of consecutive outputs, each sized for the grid arrays
    that one output of it holds (``_loop_arrays``), writes each sub-stack's
    eigenvalues, eigen-residuals (from per-axis columns, with no
    eigenfunction), commutator residuals and weighted volumes, and with
    tracked scalars sets its part of the scalar columns to E V
    (``_factor``) and pairs them (``_factored_pairings``): each output in
    the bits of its one-output computation.
    """
    start = evaluate_family(request.family, request.family.t0)
    _check_field_memory(request, start)  # before the recorded steps are listed
    dt, recorded = _output_steps(request)
    evaluate_family(request.family, request.family.t0 + recorded[-1] * dt)
    state0 = discretize(start, resolution=request.resolution, hermite_order=request.hermite_order)
    spectrum0 = lowest_eigenpairs(assemble_forms(state0), request.k, request.eig_tol)
    # the signed columns of eigenfunctions 1..k, which build them in their bits
    columns0 = [np.ascontiguousarray(cols[1:]) for cols in spectrum0.columns] if request.track_scalars else None

    count, k = len(recorded), request.k
    layout = _Layout.of(state0, 0 if columns0 is None else k)
    if request.backend == "analytic":
        rows, integrals, lags, stepped = _closed_form_outputs(request, layout, dt, recorded)
    else:
        rows, integrals, lags, stepped = _run_loop(request, layout, state0, columns0, dt, recorded)
    manifolds = layout.stack(rows, np.array([request.family.t0 + step * dt for step in recorded]))
    times = manifolds.t
    eigenvalues, eigen_residuals = np.empty((count, k + 1)), np.empty((count, k + 1))
    residual_commutator, volumes = np.empty(count), np.empty(count)
    factors = None
    if columns0 is not None:  # E V of every output, written in place over a stepped circle's V
        factors = [stepped[axis] if axis in stepped else np.empty((count, k, n)) for axis, n in enumerate(layout.shape)]
        J, D, dJ = (np.empty((count, k, k)) for _ in range(3))
    probe = _probe_partials(manifolds[0], spectrum0.eigenfunctions[1])  # differentiated once per run
    for sub in _sub_stacks(count, manifolds.size, _loop_arrays(manifolds, k)):
        stack = manifolds[sub]
        eigenvalues[sub], eigen_residuals[sub], _ = _eigensolve(assemble_forms(stack), k, request.eig_tol)
        residual_commutator[sub] = _commutator_stack(probe, stack)
        volumes[sub] = stack.weighted_volume()
        if factors is not None:
            columns = [factors[axis][sub] if axis in stepped else cols for axis, cols in enumerate(columns0)]
            for stored, cols in zip(factors, _factor(layout, columns, integrals[sub], lags[sub])):
                stored[sub] = cols
            # the stored C-ordered columns, not _factor's: their memory order rounds D differently
            J[sub], D[sub], dJ[sub] = _factored_pairings(stack, [cols[sub] for cols in factors])

    series = {}
    residual_ij = np.full(count, np.nan)
    if factors is not None:
        _cholesky_factors(J)  # DegeneracyError if the scalars are dependent at some output
        I = np.einsum("mii->mi", J).copy()
        E = np.einsum("mii->mi", D).copy()
        series = {"J": J, "D": D, "dJ": dJ, "I": I, "E": E}
        residual_ij = functional_residuals(series).pointwise_ij

    bounds = np.full((count, k), np.inf)
    for j in range(1, k + 1):
        for m, t in enumerate(times):
            try:
                bounds[m, j - 1] = eigenvalue_bound(eigenvalues[0, j], t - times[0])
            except HorizonError:
                break  # every later lag lies past the horizon too, and its bound stays inf

    return FlowTrajectory(
        request=request,
        times=times,
        manifolds=manifolds,
        eigenvalues=eigenvalues,
        eigen_residuals=eigen_residuals,
        volumes=volumes,
        scalar_factors=None if factors is None else tuple(factors),
        series=series,
        bounds=bounds,
        residual_ij=residual_ij,
        residual_commutator=residual_commutator,
    )


# --------------------------------------------------------------------------
# Evolution-identity residuals
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalResidualReport:
    """Defects of the evolution identities J' = J - 2D and I' = I - 2E along
    a run, with the rates dJ that each output's pairings give (``series["dJ"]``,
    I' its diagonal), normalized by the sup of the series involved, and the
    largest rise of E between outputs (E' <= 0).

    The scale is at least RATE_FLOOR max |J|.  J' = (1 - 2 lambda) J on an
    eigenfunction, so that floor acts only where every tracked lambda lies
    within RATE_FLOOR / 2 of 1/2; at 1/2, the equality case of splitting,
    J - 2D and J' are round-off, and round-off over itself would read 1."""

    max_rel_J: float
    max_rel_I: float
    energy_violation: float
    energy_scale: float
    pointwise_ij: np.ndarray


def functional_residuals(series: dict) -> FunctionalResidualReport:
    """The report of a run's ``series`` of pairings (``FlowTrajectory.series``)."""
    if not series:
        raise UsageError("trajectory has no tracked scalars")
    J, D, dJ, E = (series[name] for name in ("J", "D", "dJ", "E"))
    rhsJ = J - 2.0 * D
    resJ = np.abs(dJ - rhsJ)
    floor = max(RATE_FLOOR * float(np.max(np.abs(J))), 1e-12)
    scaleJ = max(float(np.max(np.abs(rhsJ))), float(np.max(np.abs(dJ))), floor)

    diagonal = lambda x: np.einsum("mii->mi", x)
    rhsI, dI = diagonal(rhsJ), diagonal(dJ)
    scaleI = max(float(np.max(np.abs(rhsI))), float(np.max(np.abs(dI))), floor)

    return FunctionalResidualReport(
        max_rel_J=float(np.max(resJ)) / scaleJ,
        max_rel_I=float(np.max(diagonal(resJ))) / scaleI,
        energy_violation=float(np.max(np.diff(E, axis=0), initial=0.0)),
        energy_scale=max(float(np.max(np.abs(E))), 1e-12),
        pointwise_ij=np.max(resJ, axis=(1, 2)) / scaleJ,
    )


# --------------------------------------------------------------------------
# Gram-Schmidt frames and the commutator residual
# --------------------------------------------------------------------------


def _cholesky_factors(grams: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of Gram matrices (m, n, n), taken in one
    call.  DegeneracyError at the first matrix, in stack order, that is not
    positive definite or is numerically rank deficient: a rank-deficient
    Gram matrix can slip through Cholesky with a pivot of order
    sqrt(machine epsilon) times the scale, so a pivot below 1e-7 sqrt(its
    largest diagonal entry) fails too."""
    try:
        L = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError as exc:
        for gram in grams[:-1]:  # the first matrix that fails alone, in either way, names the error
            _cholesky_factors(gram[None])
        raise DegeneracyError("scalars are linearly dependent in weighted L2") from exc
    pivots = np.min(np.diagonal(L, axis1=1, axis2=2), axis=1)
    scales = np.sqrt(np.maximum(np.max(np.diagonal(grams, axis1=1, axis2=2), axis=1), 1e-300))
    if np.any(pivots < 1e-7 * scales):
        raise DegeneracyError("scalars are numerically rank deficient in weighted L2")
    return L


def gram_schmidt_frame(gram: np.ndarray) -> np.ndarray:
    """Lower-triangular mixing onto a weighted-L2 orthonormal frame.

    ``gram`` holds the weighted-L2 pairings of fields u_1..u_n; the frame
    e_i = sum_j mixing[i, j] * u_j is orthonormal, mixing @ gram @ mixing.T
    = I.  Along a run started from orthonormal eigenfunctions, the diagonal
    drifts at rate (2 lambda_i - 1)/2 at the initial time.
    DegeneracyError if the fields are dependent (``_cholesky_factors``).
    """
    L = _cholesky_factors(np.asarray(gram)[None])[0]
    return np.tril(np.linalg.solve(L, np.eye(len(gram))))  # solve pivots; keep the upper zeros exact


def commutator_residual(u, manifolds: DiscreteWeightedManifold, indices) -> np.ndarray:
    """Weighted-L2 defect of d/dt(L u) = L u_t - 2 div_f(phi(grad u)) at each
    of the outputs ``indices`` of a run's stack ``manifolds``.

    ``u`` is held fixed in coordinates, so L u_t vanishes and d/dt(L u) is
    the derivative of L along the output's own rates (``_laplacian_rates``).
    The grid is the same at every output, so the partials of u are taken
    once per call; the requested outputs then form one sub-stack
    (``_commutator_stack``).
    """
    u = np.asarray(u, dtype=float)
    indices = list(indices)
    if any(not 0 <= index < len(manifolds) for index in indices):
        raise UsageError(f"commutator residual needs output indices in [0, {len(manifolds)})")
    if not indices:
        return np.array([])
    return _commutator_stack(_probe_partials(manifolds[0], u), manifolds[indices])


def _probe_partials(dm: DiscreteWeightedManifold, u: np.ndarray) -> tuple:
    """(du, d2u): the first and second partials of the commutator's probe
    along each axis of the grid."""
    return partials(dm, u), [ax.d2(u, i) for i, ax in enumerate(dm.axes)]


def _commutator_stack(probe_partials: tuple, stack: DiscreteWeightedManifold) -> np.ndarray:
    """The commutator residual at each output of ``stack``, over its leading
    output axis: the rates, phi(grad u) / a^2, the divergence and the norms
    of every output at once, one derivative application per axis (``lead`` =
    1), each output's values those it has alone."""
    du, d2u = probe_partials
    d = stack.dimension
    d_lu = div = 0.0
    for i, ax in enumerate(stack.axes):
        phi, c1, c2 = _laplacian_rates(ax)
        d_lu = d_lu + along(c1, i, d) * d2u[i] + along(c2, i, d) * du[i]
        W = along(phi, i, d) * du[i] / along(ax.a * ax.a, i, d)
        div = div + ax.d1(W, i + 1, lead=1) + W * (along(ax.christoffel, i, d) - along(ax.fprime, i, d))
    div_term = 2.0 * div
    resid = d_lu + div_term  # L u_t vanishes: u is fixed in coordinates
    norm_resid, norm_lu, norm_div = (np.sqrt(np.maximum(stack.integrate(g * g), 0.0)) for g in (resid, d_lu, div_term))
    scale = np.maximum(norm_lu, norm_div)
    return norm_resid / np.where(scale < 1e-300, 1.0, scale)


def _weight_rate(hess_f, a):
    """f_t = 1/2 - Hess f / a of a circle's weight under the flow."""
    return 0.5 - hess_f / a


def _laplacian_rates(ax) -> tuple:
    """(phi, c1, c2) of one axis, of one output or at each output of a
    stack: the soliton defect phi = a/2 - Hess f
    (``soliton_defect_profiles``), and d/dt of L along the axis as
    c1 u'' + c2 u' for u fixed.

    Along that axis L u = (u'' - (Gamma + f') u') / a with a_t = 2 phi, so
    c1 = -a_t / a^2 and c2 = -c1 (Gamma + f') - (Gamma_t + f_t') / a, where
    Gamma_t = (a_t' - 2 Gamma a_t) / (2a).  A Gaussian line's a_t, f_t and
    Gamma = 0 are spatially constant, so only its first term remains.  A
    circle differentiates its rows with ``CircleAxis.d1_vec``, a constant
    row to exact zeros.
    """
    a, gamma = ax.a, ax.christoffel
    phi = 0.5 * a - ax.hess_f
    a_t = 2.0 * phi
    c1 = -a_t / (a * a)
    c2 = -c1 * (gamma + ax.fprime)
    if ax.kind == "circle":
        gamma_t = (ax.d1_vec(a_t) - 2.0 * gamma * a_t) / (2.0 * a)
        c2 = c2 - (gamma_t + ax.d1_vec(_weight_rate(ax.hess_f, a))) / a
    return phi, c1, c2
