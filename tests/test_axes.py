"""Per-axis data meets a field in one place: ``axes.along`` shapes a per-axis
vector to broadcast along one axis, and ``axes.apply_along`` applies a
per-axis operator along one axis.  The four sites that apply an operator
(``apply_deriv``, the stages' operator on V, the Hermite change of basis of
``flow._factor``, one matrix per output of a stack, and the grid
stiffness reference ``oracles.apply_stiffness``) give the bits and
the memory layout of the same steps written out with explicit transposes."""

import itertools

import numpy as np
import pytest

import driftflow as df
from driftflow.axes import _fourier_dense, _hermite_ops, along, apply_along, apply_deriv, axis_to_front
from driftflow.flow import _factor, _flow_rhs, _Layout
from driftflow.geometry import CircleModel, ContinuumState, GaussianLineModel
from driftflow.oracles import apply_stiffness

SHAPES = [(16,), (16, 6), (6, 16, 5)]


def _columnwise(x):
    """An operator on (n, m) operands that mixes rows but never columns, by
    sequential sums only: its column j depends on column j alone, bit for bit."""
    return np.cumsum(x * x, axis=0) - 0.5 * x[::-1]


def _layout(arr):
    return arr.flags.c_contiguous, arr.flags.f_contiguous


class TestAlong:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_broadcasts_along_its_axis_of_a_grid_and_a_batch(self, ndim):
        rng = np.random.default_rng(ndim)
        shape = (5, 6, 7)[:ndim]
        for axis in range(ndim):
            vec = rng.standard_normal(shape[axis])
            view = along(vec, axis, ndim)
            expanded = np.expand_dims(vec, [b for b in range(ndim) if b != axis])
            assert np.array_equal(np.broadcast_to(view, shape), np.broadcast_to(expanded, shape))
            assert np.broadcast_shapes(view.shape, (3, *shape)) == (3, *shape)
            assert not view.flags.writeable and np.shares_memory(view, vec) and vec.flags.writeable
            rows = rng.standard_normal((3, shape[axis]))  # leading axes stay in front
            stacked = along(rows, axis, ndim)
            assert stacked.shape == (3, *[size if b == axis else 1 for b, size in enumerate(shape)])
            assert np.array_equal(stacked.reshape(3, -1), rows)

    def test_a_scalar_passes_through(self):
        for value in (0.0, 2.5, np.float64(1.5)):
            assert along(value, 1, 3) is value


class TestApplyAlong:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("batch", [0, 3])
    @pytest.mark.parametrize("order", [None, "K", "C"])
    def test_equals_the_per_slice_product_bitwise(self, shape, batch, order):
        rng = np.random.default_rng(len(shape) + batch)
        full = (batch, *shape) if batch else shape
        field = rng.standard_normal(full)
        for arr in (field, np.asfortranarray(field)):
            for axis in range(batch > 0, len(full)):
                got = apply_along(_columnwise, arr, axis, order)
                assert got.shape == arr.shape
                moved, out = np.moveaxis(arr, axis, 0), np.moveaxis(got, axis, 0)
                for idx in itertools.product(*map(range, moved.shape[1:])):
                    column = moved[(slice(None), *idx)]
                    if order:
                        column = column - column[0]
                    assert np.array_equal(out[(slice(None), *idx)], _columnwise(column[:, None])[:, 0])

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("order", ["K", "C"])
    def test_subtract_gives_exact_zeros_on_a_constant(self, shape, order):
        rng = np.random.default_rng(len(shape))
        for axis in range(len(shape)):
            arr = np.repeat(np.take(rng.standard_normal(shape), [0], axis=axis), shape[axis], axis=axis)
            mat = _fourier_dense(16)["d1"] if shape[axis] == 16 else rng.standard_normal((shape[axis],) * 2)
            assert not np.any(apply_along(mat.dot, arr, axis, order))
            assert not np.any(apply_along(lambda x: x, arr, axis, order))

    @pytest.mark.parametrize("order", ["K", "C"])
    def test_the_order_fixes_the_operand_layout(self, order):
        seen = []
        field = np.random.default_rng(0).standard_normal((6, 16, 5))
        apply_along(lambda x: seen.append(_layout(x)) or x, field, 1, order)
        # "C" flattens into a C-ordered view; "K" keeps the input's layout, here a copy in C order
        assert seen == [(True, False)]
        seen.clear()
        apply_along(lambda x: seen.append(_layout(x)) or x, field, 2, order)
        assert seen == [(True, False) if order == "C" else (False, True)]


def _wavy_circle_product(resolution=24, order=6):
    circle = CircleModel(a=lambda th: 1.0 + 0.3 * np.cos(th), f=lambda th: 0.2 * np.sin(2 * th))
    return [
        df.discretize(ContinuumState(t=0.0, factors=factors), resolution=resolution, hermite_order=order)
        for factors in ((circle,), (circle, GaussianLineModel(1.7)), (GaussianLineModel(1.3), circle),
                        (GaussianLineModel(1.1), GaussianLineModel(0.9), circle))
    ]


class TestSites:
    """Each site's result against the same steps written out by hand, in the
    memory order each site takes: bits and C/F contiguity."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_apply_deriv(self, shape):
        rng = np.random.default_rng(len(shape))
        field = rng.standard_normal(shape)
        for arr, axis in itertools.product((field, np.asfortranarray(field)), range(len(shape))):
            mat = rng.standard_normal((shape[axis],) * 2)
            perm, inverse = axis_to_front(arr.ndim, axis)
            moved = arr.transpose(perm)
            diff = moved - moved[:1]
            want = np.dot(mat, diff.reshape(len(diff), -1)).reshape(diff.shape).transpose(inverse)
            got = apply_deriv(mat, arr, axis)
            assert np.array_equal(got, want) and _layout(got) == _layout(want)

    @pytest.mark.parametrize("k", [1, 3])
    def test_the_stages_operator_on_v(self, k):
        for dm in _wavy_circle_product():
            layout = _Layout.of(dm, k)
            (axis,) = [i for i, (kind, _, _) in enumerate(layout.axes) if kind == "circle"]
            batch = np.random.default_rng(k).standard_normal((k, *dm.shape))
            z = np.concatenate([layout.pack(dm), np.zeros(len(layout.diagonal)), batch.ravel()])
            got = _flow_rhs(layout, 4)(0.0, z)[layout.start :].reshape(batch.shape)
            ax, d1, d2 = dm.axes[axis], _fourier_dense(dm.shape[axis])["d1"], _fourier_dense(dm.shape[axis])["d2"]
            a, fprime = ax.a, d1 @ (ax.f - ax.f[0])
            gamma = d1 @ (a - a[0]) / (2.0 * a)
            perm, inverse = axis_to_front(batch.ndim, axis + 1)
            moved = batch.transpose(perm)
            diff = np.subtract(moved, moved[:1], order="C").reshape(len(moved), -1)
            term = (d2 @ diff - (gamma + fprime)[:, None] * (d1 @ diff)) / a[:, None]
            want = term.reshape(moved.shape).transpose(inverse)
            assert np.array_equal(got, want)
            drift = (gamma + fprime)[:, None]
            kernel = apply_along(lambda v: (d2 @ v - drift * (d1 @ v)) / a[:, None], batch, axis + 1, "C")
            assert np.array_equal(kernel, want) and _layout(kernel) == _layout(want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_hermite_change_of_basis(self, n):
        # three outputs at once, sharing V: one matrix per output and axis
        dm = df.discretize(df.evaluate_family(df.scaled_gaussian_family(1.0, n), 0.0), hermite_order=7)
        layout = _Layout.of(dm, 2)
        v = np.random.default_rng(n).standard_normal((2, *dm.shape))
        lags = np.array([0.3, 0.5, 0.7])
        integrals = 0.1 * np.outer(np.arange(1, 4), np.arange(1, n + 1))
        ops = _hermite_ops(7)
        want, lag = v[None], lags[:, None] / 2.0
        for axis, c in enumerate(integrals.T):
            matrices = ops["vand"] @ (np.exp(lag - 0.5 * np.arange(7) * c[:, None])[:, :, None] * ops["vinv"])
            perm, inverse = axis_to_front(want.ndim, axis + 2, 1)
            moved = want.transpose(perm)
            want = (matrices @ moved.reshape(len(moved), 7, -1)).reshape(3, *moved.shape[1:]).transpose(inverse)
            lag = 0.0
        got = _factor(layout, v, integrals, lags)
        assert np.array_equal(got, want) and _layout(got) == _layout(want)

    @pytest.mark.parametrize("batch", [0, 3])
    def test_apply_stiffness(self, batch):
        for dm in _wavy_circle_product():
            forms = df.assemble_forms(dm)
            d = dm.dimension
            u = np.random.default_rng(d).standard_normal((batch, *dm.shape) if batch else dm.shape)
            masses = [np.reshape(m, [-1 if a == j else 1 for a in range(d)]) for j, m in enumerate(forms.axis_masses)]
            want = 0.0
            for i, block in enumerate(forms.blocks):
                weighted = u
                for j, m in enumerate(masses):
                    if j != i:
                        weighted = weighted * m
                perm, inverse = axis_to_front(weighted.ndim, i - d)
                moved = weighted.transpose(perm)
                want = want + (block @ moved.reshape(len(moved), -1)).reshape(moved.shape).transpose(inverse)
            got = apply_stiffness(forms, u)
            assert np.array_equal(got, want) and _layout(got) == _layout(want)
