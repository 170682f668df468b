import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh

import driftflow as df
import driftflow.axes
import driftflow.spectral
from driftflow.axes import CircleAxis, _fourier_dense, _fourier_ops, _hermite_ops, _spectral, along, apply_deriv
from driftflow.config import ScenarioConfig
from driftflow.errors import AssemblyError, UsageError
from driftflow.geometry import CircleModel, ContinuumState, GaussianLineModel, discretize
from driftflow.oracles import apply_stiffness, dense_stiffness, grid_eigen_residuals, grid_scalar_pairings
from driftflow.runner import execute
from driftflow.spectral import _axis_eigens, _bochner_terms, _circle_modes, drift_laplacian, partials

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)
FOUR_SQRT_PI = 4.0 * math.sqrt(math.pi)


@pytest.fixture(scope="module")
def circle64():
    return df.weighted_circle(64)


@pytest.fixture(scope="module")
def gauss():
    return df.gaussian_line(1.0, order=12)


def _pairings(forms, fields):
    """(K, M): the stiffness and mass pairings of every two of a (k, *shape) batch."""
    flat = fields.reshape(len(fields), -1)
    return flat @ apply_stiffness(forms, fields).reshape(len(fields), -1).T, (flat * forms.mass_diag) @ flat.T


def _wavy_circle(resolution=64):
    circle = CircleModel(a=lambda th: 1.5 + 0.3 * np.cos(th), f=lambda th: 0.4 * np.sin(2 * th) + 0.7)
    return df.discretize(ContinuumState(t=0.0, factors=(circle,)), resolution=resolution)


class TestForms:
    def test_constant_in_stiffness_kernel(self, circle64):
        forms = df.assemble_forms(circle64)
        ones = np.ones(circle64.shape)
        assert float(np.max(np.abs(apply_stiffness(forms, ones)))) < 1e-12
        assert float(np.sum(forms.mass_diag)) == pytest.approx(2.0 * math.pi, rel=1e-13)

    def test_gaussian_coordinate_moments(self, gauss):
        x = gauss.axes[0].nodes.copy()
        J, D, _ = grid_scalar_pairings(gauss, x[None])
        assert J[0, 0] == pytest.approx(FOUR_SQRT_PI, rel=1e-13)
        assert D[0, 0] == pytest.approx(TWO_SQRT_PI, rel=1e-13)
        assert D[0, 0] / J[0, 0] == pytest.approx(0.5, rel=1e-13)

    def test_circle_cosine_rayleigh(self, circle64):
        u = np.cos(circle64.axes[0].nodes)
        J, D, _ = grid_scalar_pairings(circle64, u[None])
        assert D[0, 0] == pytest.approx(math.pi, rel=1e-12)
        assert J[0, 0] == pytest.approx(math.pi, rel=1e-12)

    def test_symmetry(self, circle64):
        rng = np.random.default_rng(3)
        forms = df.assemble_forms(circle64)
        u = rng.standard_normal(circle64.shape)
        v = rng.standard_normal(circle64.shape)
        K, M = _pairings(forms, np.stack([u, v]))
        assert K[0, 1] == pytest.approx(K[1, 0], rel=1e-12)
        assert M[0, 1] == pytest.approx(M[1, 0], rel=1e-12)

    @pytest.mark.parametrize("grid", ["gauss12 x circle256", "gauss12^3", "wavy circle"])
    def test_matrix_free_stiffness_matches_dense_kronecker(self, grid):
        if grid == "gauss12 x circle256":
            family = df.product_family([df.scaled_gaussian_family(1.5, 1), df.round_circle_family(2.0)])
            dm = df.discretize(df.evaluate_family(family, 0.0), resolution=256, hermite_order=12)
        elif grid == "gauss12^3":
            dm = df.discretize(df.evaluate_family(df.scaled_gaussian_family(0.75, 3), 0.0), hermite_order=12)
        else:
            dm = _wavy_circle()
        forms = df.assemble_forms(dm)
        u = np.random.default_rng(5).standard_normal((2, *dm.shape))
        dense = dense_stiffness(forms)
        for got, field in zip(apply_stiffness(forms, u), u):
            ref = (dense @ field.ravel()).reshape(dm.shape)
            assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))
        assert _pairings(forms, u)[0][0, 1] == pytest.approx(float(u[0].ravel() @ dense @ u[1].ravel()), rel=1e-13)

    def test_forms_and_eigenpairs_never_form_the_dense_stiffness(self):
        family = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])
        dm = df.discretize(df.evaluate_family(family, 0.0), resolution=256, hermite_order=12)
        df.lowest_eigenpairs(df.assemble_forms(dm), 3)  # warm the operator caches
        tracemalloc.start()
        try:
            df.lowest_eigenpairs(df.assemble_forms(dm), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.size == 3072
        assert peak < 8 * dm.size**2 / 10  # one dense stiffness matrix is 75 MB

    def test_constant_circle_solve_allocates_no_square_array(self):
        dm = df.weighted_circle(2048, a=1.0)
        tracemalloc.start()
        try:
            df.lowest_eigenpairs(df.assemble_forms(dm), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2048**2 / 10  # one 2048 x 2048 float matrix is 33.5 MB

    def test_degenerate_metric_rejected(self):
        with pytest.raises(AssemblyError):
            df.weighted_circle(32, a=lambda th: np.cos(th))  # changes sign


class TestFourierStiffness:
    """A round circle's block applies the symbol w k^2 (``modal``), any other
    circle's the staggered factorization; both give the same operator, and
    the axis's ``is_round`` picks between them."""

    @staticmethod
    def _operands(n, rows):
        """(block, operand) pairs of round circles: one circle with a field
        and a batch (lead 0), and a stack of outputs with their own batches
        or one batch for every output (lead 1)."""
        rng = np.random.default_rng(n)
        one = CircleAxis(np.full(n, rng.uniform(0.2, 3.0)), np.full(n, rng.uniform(-1.0, 1.0))).stiffness()
        a, f = (np.repeat(rng.uniform(lo, 3.0, (rows, 1)), n, axis=1) for lo in (0.2, -1.0))
        stack = CircleAxis(a, f).stiffness()
        return [(one, rng.standard_normal(n)), (one, rng.standard_normal((n, 5))),
                (stack, rng.standard_normal((rows, n, 4))), (stack, rng.standard_normal((1, n, 3)))]

    @pytest.mark.parametrize("n", [8, 31, 64, 331, 1024, 2048])
    def test_round_circles_take_the_symbol_and_agree_with_the_factorization(self, n):
        for stiff, u in self._operands(n, 3):
            assert stiff.is_round
            got, ref = stiff @ u, stiff.staggered(u)
            assert np.array_equal(got, stiff.modal(u)) and got.shape == ref.shape
            assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("n", [8, 31, 331])
    def test_both_paths_map_a_constant_to_exact_zeros(self, n):
        for stiff, u in self._operands(n, 2) + [(_wavy_circle(n).axes[0].stiffness(), np.ones(n))]:
            const = np.full_like(u, 2.7)
            if stiff.is_round:
                assert not np.any(stiff.modal(const))
            assert not np.any(stiff.staggered(const)) and not np.any(stiff @ const)

    def test_a_wavy_circle_keeps_the_staggered_bits(self):
        stiff = _wavy_circle().axes[0].stiffness()
        assert not stiff.is_round
        u = np.random.default_rng(7).standard_normal((64, 3))
        # the factorization D_s^T diag(w) D_s written out, four transforms per line
        sym = _fourier_ops(64)["ik_stag"]
        want = _spectral(sym.conj(), stiff.weight[:, None] * _spectral(sym, u - u[:1]))
        assert np.array_equal(stiff @ u, stiff.staggered(u)) and np.array_equal(stiff @ u, want)

    def test_a_stack_with_one_wavy_output_is_staggered_throughout(self):
        wavy = _wavy_circle().axes[0]
        stiff = CircleAxis(np.stack([np.full(64, 1.5), wavy.a]), np.stack([np.full(64, 0.7), wavy.f])).stiffness()
        u = np.random.default_rng(8).standard_normal((2, 64, 3))
        assert not stiff.is_round and np.array_equal(stiff @ u, stiff.staggered(u))


class TestLowestEigenpairs:
    def test_round_circle_of_2048_nodes_solves_within_the_default_tolerance(self):
        res = df.lowest_eigenpairs(df.assemble_forms(df.weighted_circle(2048, a=1.0)), 16)
        assert float(res.residuals.max()) <= 1e-10
        np.testing.assert_allclose(res.eigenvalues, ((np.arange(17) + 1) // 2) ** 2, atol=1e-9)

    def test_round_circle_double_eigenvalue(self, circle64):
        res = df.lowest_eigenpairs(df.assemble_forms(circle64), 2)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 1.0, 1.0], atol=1e-11)

    @pytest.mark.parametrize("n", [63, 64])
    def test_round_circle_closed_form_pairs(self, n):
        # every pair, Nyquist mode included for even n
        dm = df.weighted_circle(n, a=2.5, f=0.3)
        forms = df.assemble_forms(dm)
        res = df.lowest_eigenpairs(forms, n - 1)
        k = (np.arange(n) + 1) // 2
        np.testing.assert_array_equal(res.eigenvalues, k**2 / 2.5)
        fields = np.stack(res.eigenfunctions)
        gram = (fields * forms.mass_diag) @ fields.T
        assert float(np.max(np.abs(gram - np.eye(n)))) < 1e-13
        th = dm.axes[0].nodes
        assert abs(fields[3] @ np.sin(2 * th)) < 1e-12 and abs(fields[4] @ np.cos(2 * th)) < 1e-12

    def test_varying_circle_takes_dense_eigh(self, monkeypatch):
        calls = []
        # the dense branch imports scipy.linalg.eigh when it runs
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *a, **kw: calls.append(a[0].shape) or eigh(*a, **kw))
        dm = df.weighted_circle(600, f=lambda th: 0.2 * np.sin(th))
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 4, tol=1e-10)
        assert calls == [(600, 600)]
        # eigh alone leaks lambda_0 = -2.35e-12 here; the constant pair is exact
        assert res.eigenvalues[0] == 0.0
        assert np.ptp(res.eigenfunctions[0]) == 0.0
        assert float(np.max(res.residuals)) <= 1e-10
        assert res.eigenvalues[1] == pytest.approx(res.eigenvalues[2], rel=1e-10)

    def test_gaussian_ladder(self, gauss):
        res = df.lowest_eigenpairs(df.assemble_forms(gauss), 3)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 0.5, 1.0, 1.5], atol=1e-14)

    @pytest.mark.parametrize("order", [24, 32, 48, 64])
    def test_high_hermite_orders_meet_eig_tol(self, order):
        res = df.lowest_eigenpairs(df.assemble_forms(df.gaussian_line(1.0, order=order)), 3, tol=1e-10)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 0.5, 1.0, 1.5], atol=1e-13)

    def test_gaussian_scale_two(self):
        dm = df.gaussian_line(2.0)
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 1)
        assert res.eigenvalues[1] == pytest.approx(0.25, abs=1e-15)

    def test_j_orthonormal_and_d_diagonal(self, circle64):
        forms = df.assemble_forms(circle64)
        res = df.lowest_eigenpairs(forms, 4)
        K, M = _pairings(forms, np.stack(res.eigenfunctions))
        np.testing.assert_allclose(M, np.eye(5), rtol=0, atol=1e-10)
        np.testing.assert_allclose(K, np.diag(res.eigenvalues), rtol=0, atol=1e-9)

    def test_lambda0_zero_with_constant_eigenfunction(self, circle64):
        res = df.lowest_eigenpairs(df.assemble_forms(circle64), 1)
        assert res.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
        u0 = res.eigenfunctions[0]
        assert float(np.max(np.abs(u0 - u0.ravel()[0]))) < 1e-10

    def test_nonconstant_eigenfunctions_have_zero_mean(self, gauss):
        res = df.lowest_eigenpairs(df.assemble_forms(gauss), 3)
        for u in res.eigenfunctions[1:]:
            assert abs(gauss.integrate(u)) < 1e-12

    def test_rayleigh_identity_per_pair(self, circle64):
        res = df.lowest_eigenpairs(df.assemble_forms(circle64), 3)
        J, D, _ = grid_scalar_pairings(circle64, np.stack(res.eigenfunctions[1:]))
        np.testing.assert_allclose(np.diag(D) / np.diag(J), res.eigenvalues[1:], rtol=0, atol=1e-10)

    def test_agrees_with_dense_oracle(self):
        for dm in (
            df.weighted_circle(64),
            df.weighted_circle(48, a=2.0, f=lambda th: 0.2 * np.sin(th)),
            df.gaussian_line(0.5, order=10),
        ):
            forms = df.assemble_forms(dm)
            res = df.lowest_eigenpairs(forms, 4)
            dense = df.dense_spectrum(forms)[:5]
            scale = np.maximum(np.abs(dense), 1.0)
            assert float(np.max(np.abs(res.eigenvalues - dense) / scale)) < 1e-10

    def test_eigenvalue_scaling_law(self):
        base_g = df.lowest_eigenpairs(df.assemble_forms(df.gaussian_line(1.0)), 3).eigenvalues
        base_c = df.lowest_eigenpairs(df.assemble_forms(df.weighted_circle(64, a=1.0)), 3).eigenvalues
        for c in (0.25, 0.5, 2.0, 4.0):
            got_g = df.lowest_eigenpairs(df.assemble_forms(df.gaussian_line(c)), 3).eigenvalues
            got_c = df.lowest_eigenpairs(df.assemble_forms(df.weighted_circle(64, a=c)), 3).eigenvalues
            np.testing.assert_allclose(got_g[1:], base_g[1:] / c, rtol=1e-8)
            np.testing.assert_allclose(got_c[1:], base_c[1:] / c, rtol=1e-8)

    def test_k_bounds(self, gauss):
        forms = df.assemble_forms(gauss)
        with pytest.raises(UsageError):
            df.lowest_eigenpairs(forms, 0)
        with pytest.raises(UsageError):
            df.lowest_eigenpairs(forms, gauss.size)

    def test_json_schema(self, circle64, tmp_path):
        # a run writes spectra.json from its (m, k + 1) arrays, one row per output
        config = ScenarioConfig.from_dict({"name": "c64", "family": "round_circle", "horizon": 0.02, "k": 2})
        traj = execute(config, str(tmp_path)).trajectory
        rows = json.loads((tmp_path / "c64" / "spectra.json").read_text(encoding="utf-8"))
        assert len(rows) == len(traj.times) == 3
        for row, t, lam, res in zip(rows, traj.times, traj.eigenvalues, traj.eigen_residuals):
            assert set(row) == {"t", "eigenvalues", "residuals", "normalization"}
            assert row["normalization"] == "weighted-L2"
            assert len(row["eigenvalues"]) == 3
            assert row["t"] == t and row["eigenvalues"] == lam.tolist() and row["residuals"] == res.tolist()
        alone = df.lowest_eigenpairs(df.assemble_forms(circle64), 2)
        assert rows[0]["eigenvalues"] == alone.eigenvalues.tolist() and rows[0]["residuals"] == alone.residuals.tolist()



def _reference_eigenpairs(forms, k):
    """The straightforward assembly the cached tables and broadcasts replace:
    per-call tables, a meshgrid enumeration, one field per loop, np.linalg.norm
    and np.kron."""
    dm = forms.manifold
    per_axis = []
    for ax, block, mass in zip(dm.axes, forms.blocks, forms.axis_masses):
        count = k + 1
        if ax.kind == "hermite":
            vecs = _hermite_ops(ax.size)["vand"].copy()
            vecs /= np.sqrt(np.sum(vecs * vecs * ax.wdens[:, None], axis=0))
            vals = np.arange(ax.size) / (2.0 * ax.scale)
        elif np.ptp(ax.a) == 0.0 and np.ptp(ax.f) == 0.0:
            count = min(count, ax.size)
            kk = (np.arange(count) + 1) // 2
            phase = np.outer(ax.nodes, kk)
            vecs = np.where(np.arange(count) % 2 == 1, np.cos(phase), np.sin(phase))
            vecs[:, 0] = 1.0
            vecs /= np.sqrt(mass @ (vecs * vecs))
            vals = kk**2 / ax.a[0]
        else:
            vals, vecs = eigh(block @ np.eye(ax.size), np.diag(mass), subset_by_index=[0, min(count, ax.size) - 1])
            vals[0], vecs[:, 0] = 0.0, 1.0 / math.sqrt(mass.sum())
        per_axis.append((vals[: k + 1], vecs[:, : k + 1]))
    grids = np.meshgrid(*[np.arange(len(v)) for v, _ in per_axis], indexing="ij")
    tuples = np.stack([g.ravel() for g in grids], axis=1)
    sums = sum(vals[tuples[:, i]] for i, (vals, _) in enumerate(per_axis))
    order = np.argsort(sums, kind="stable")[: k + 1]
    eigenvalues = sums[order]
    fields = np.empty((k + 1, *dm.shape))
    for row, idx in enumerate(order):
        field = np.ones(dm.shape)
        for i, (_, vecs) in enumerate(per_axis):
            field = field * along(vecs[:, tuples[idx, i]], i, dm.dimension)
        fields[row] = -field if field.flat[np.argmax(np.abs(field))] < 0 else field
    mass_diag = functools.reduce(np.kron, forms.axis_masses)
    ku = apply_stiffness(forms, fields).reshape(k + 1, -1)
    mu = mass_diag * fields.reshape(k + 1, -1)
    res = ku - eigenvalues[:, None] * mu
    scale = np.linalg.norm(ku, axis=1) + (1.0 + np.abs(eigenvalues)) * np.linalg.norm(mu, axis=1)
    return eigenvalues, fields, np.linalg.norm(res, axis=1) / scale, mass_diag


def _product(*factors, resolution=64, hermite_order=12):
    state = ContinuumState(t=0.0, factors=factors)
    return discretize(state, resolution=resolution, hermite_order=hermite_order)


class TestCachedSpectralTables:
    @pytest.mark.parametrize(
        "grid, k",
        [
            ("round circle", 9),
            ("non-round circle", 5),
            ("gaussian x circle, f 0.95", 7),
            ("gaussian n=3", 6),
            ("gaussian x 8-node circle", 12),  # the circle has fewer nodes than pairs
        ],
    )
    def test_bitwise_equal_to_the_reference_assembly(self, grid, k):
        dm = {
            "round circle": lambda: df.weighted_circle(64, a=2.5, f=0.3),
            "non-round circle": lambda: df.weighted_circle(48, a=lambda th: 1.0 + 0.3 * np.cos(th)),
            "gaussian x circle, f 0.95": lambda: _product(
                GaussianLineModel(1.7), CircleModel(a=0.8, f=0.95), resolution=32, hermite_order=10
            ),
            "gaussian n=3": lambda: _product(*[GaussianLineModel(0.6)] * 3, hermite_order=8),
            "gaussian x 8-node circle": lambda: _product(
                GaussianLineModel(1.0), CircleModel(a=3.0, f=-0.2), resolution=8, hermite_order=6
            ),
        }[grid]()
        forms = df.assemble_forms(dm)
        res = df.lowest_eigenpairs(forms, k)
        vals, fields, residuals, mass_diag = _reference_eigenpairs(forms, k)
        assert res.eigenvalues.tobytes() == vals.tobytes()
        assert np.stack(res.eigenfunctions).tobytes() == fields.tobytes()
        if dm.dimension == 1:  # on one axis the factored residual is the grid's, in its bits
            assert res.residuals.tobytes() == residuals.tobytes()
        else:  # the same norms, rounded on the factors
            assert _residuals_agree(res.residuals, residuals)
        assert forms.mass_diag.tobytes() == mass_diag.tobytes()

    @pytest.mark.parametrize("value", [2.5, 0.0, -0.0, -1.25, 1e-8])
    def test_constant_interpolates_to_itself_as_the_transform_gives(self, value):
        ax = df.weighted_circle(32).axes[0]
        values = np.full(32, value)
        by_transform = values[0] + _spectral(_fourier_ops(32)["stag"], values - values[0])
        assert np.exp(-ax._stag(values)).tobytes() == np.exp(-by_transform).tobytes()
        if value != 0.0:
            assert ax._stag(values).tobytes() == by_transform.tobytes()

    def test_tables_are_read_only(self):
        k, table = _circle_modes(64, 5)
        line = df.gaussian_line(1.0, order=12).axes[0]
        vals, vecs = _axis_eigens(line, line.stiffness(), 5)
        assert np.shares_memory(vecs, _hermite_ops(12)["eigvecs"])  # the basis is the cache's, read in place
        cached = [k, table, vecs]
        for ops in (_fourier_ops(64), _fourier_dense(16), _hermite_ops(12)):
            cached += ops.values()
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):
                arr *= 1.0
        assert vals.flags.writeable  # the eigenvalues depend on the scale

    def test_dense_derivatives_are_built_on_first_use_only(self, monkeypatch):
        built, build = [], driftflow.axes._fourier_dense
        monkeypatch.setattr(driftflow.axes, "_fourier_dense", lambda n: built.append(n) or build(n))
        # the spectral ladder's grids: forms and eigenpairs need no dense matrix
        prod = df.product_family([df.scaled_gaussian_family(1.3, 1), df.round_circle_family(2.0)])
        for dm in [df.weighted_circle(n, a=2.5) for n in (256, 384, 448, 2048)] + [
            df.discretize(df.evaluate_family(prod, 0.0), resolution=256, hermite_order=12),
            df.weighted_circle(64, f=lambda th: 0.3 * np.cos(th)),
        ]:
            df.lowest_eigenpairs(df.assemble_forms(dm), 6)
        assert built == []
        dm = df.weighted_circle(16)
        partials(dm, np.cos(dm.axes[0].nodes))
        assert built == [16]
        assert build(16) is build(16)

    def test_round_circles_share_the_table_not_its_normalization(self):
        cached = _circle_modes.cache_info().currsize
        small, large = df.weighted_circle(96, a=0.5, f=0.1), df.weighted_circle(96, a=4.0, f=0.1)
        pairs = []
        for dm in (small, large):
            forms = df.assemble_forms(dm)
            vals, vecs = _axis_eigens(dm.axes[0], forms.blocks[0], 5)
            pairs.append((vals[0], vecs[0]))
        assert _circle_modes.cache_info().currsize <= cached + 1  # one entry for both
        (vals_s, vecs_s), (vals_l, vecs_l) = pairs
        table = _circle_modes(96, 5)[1]
        assert vecs_s is not table and vecs_l is not table and vecs_s.flags.writeable
        np.testing.assert_array_equal(vals_s, 8.0 * vals_l)
        # the weighted length 2 pi e^{-f} sqrt(a) differs, so the normalization does
        np.testing.assert_allclose(vecs_s, 2.0 ** 0.75 * vecs_l, rtol=1e-14)
        for (_, vecs), dm in zip(pairs, (small, large)):
            gram = vecs.T @ (dm.axes[0].wdens[:, None] * vecs)
            assert float(np.max(np.abs(gram - np.eye(5)))) < 1e-13


def _residuals_agree(got, want) -> bool:
    """Two roundings of the same eigen-residual norms: within a factor of 2,
    or both below 1e-14."""
    got, want = np.asarray(got), np.asarray(want)
    return bool(np.all(((got <= 2.0 * want) & (want <= 2.0 * got)) | ((got < 1e-14) & (want < 1e-14))))


def _drawn_stack(kind, rng, outputs):
    """``outputs`` drawn outputs of one grid as a stack: n = 2 or n = 3
    Gaussian lines, a Gaussian line times a round circle, or one times a
    non-round circle built by hand."""
    order = int(rng.integers(6, 13))
    scales = np.exp(rng.uniform(-1.5, 1.5, (outputs, 1)))
    if kind.startswith("gaussian n="):
        axes = [driftflow.axes.HermiteLineAxis(order, scales * rng.uniform(0.8, 1.25)) for _ in range(int(kind[-1]))]
    else:
        n = int(rng.integers(8, 65))
        theta = driftflow.axes.circle_nodes(n)
        a = np.exp(rng.uniform(-1.0, 1.5, (outputs, 1))) * np.ones(n)
        f = rng.uniform(-1.0, 1.0, (outputs, 1)) * np.ones(n)
        if kind == "gaussian x non-round circle":
            a = a * (1.0 + 0.3 * np.cos(theta + rng.uniform(0, 2 * np.pi, (outputs, 1))))
            f = f + 0.4 * np.sin(2 * theta)
        axes = [driftflow.axes.HermiteLineAxis(order, scales), CircleAxis(a, f)]
    return df.DiscreteWeightedManifold(axes, t=np.zeros(outputs))


_DRAWN = ["gaussian n=2", "gaussian n=3", "gaussian x round circle", "gaussian x non-round circle"]


class TestFactoredResiduals:
    """``lowest_eigenpairs`` checks each pair on its per-axis factors; the
    grid reference (``oracles.grid_eigen_residuals``) applies the stiffness
    to the built eigenfunctions."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", _DRAWN)
    def test_a_drawn_product_agrees_with_the_grid(self, kind, seed):
        rng = np.random.default_rng([seed, _DRAWN.index(kind)])
        stack = _drawn_stack(kind, rng, 3)
        k = int(rng.integers(3, 9))
        solved = df.lowest_eigenpairs(df.assemble_forms(stack), k)
        assert _residuals_agree(solved.residuals, grid_eigen_residuals(df.assemble_forms(stack), solved.eigenvalues,
                                                                      solved.eigenfunctions))
        for m in range(len(stack)):
            forms = df.assemble_forms(stack[m])
            alone = df.lowest_eigenpairs(forms, k)
            vals, fields, _, _ = _reference_eigenpairs(forms, k)
            assert alone.eigenvalues.tobytes() == vals.tobytes() == solved.eigenvalues[m].tobytes()
            assert alone.eigenfunctions.tobytes() == fields.tobytes() == solved.eigenfunctions[m].tobytes()
            assert alone.residuals.tobytes() == solved.residuals[m].tobytes()
            assert _residuals_agree(alone.residuals, grid_eigen_residuals(forms, vals, fields))

    @pytest.mark.parametrize("control", ["shifted lambda", "perturbed column", "scaled block"])
    @pytest.mark.parametrize("kind", _DRAWN)
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_a_wrong_pair_is_still_rejected(self, monkeypatch, kind, control, outputs):
        rng = np.random.default_rng([7, _DRAWN.index(kind)])
        stack = _drawn_stack(kind, rng, outputs)
        dm = stack if outputs > 1 else stack[0]
        forms = df.assemble_forms(dm)
        if control == "scaled block":  # the first line's closed-form pairs then miss its block
            scaled = driftflow.axes.HermiteStiffness(1.5 * forms.blocks[0].matrix)
            forms = dataclasses.replace(forms, blocks=(scaled, *forms.blocks[1:]))
        else:
            solve = driftflow.spectral._axis_eigens

            def wrong(ax, block, count):
                vals, vecs = solve(ax, block, count)
                if ax is not dm.axes[0]:
                    return vals, vecs
                if control == "shifted lambda":
                    return vals + 1e-6, vecs
                vecs = vecs.copy()
                vecs[:, :, 1] += 1e-6 * np.linspace(-1.0, 1.0, ax.size) ** 2
                return vals, vecs

            monkeypatch.setattr(driftflow.spectral, "_axis_eigens", wrong)
        wrong_pairs = df.lowest_eigenpairs(forms, 4, math.inf)
        reference = grid_eigen_residuals(forms, wrong_pairs.eigenvalues, wrong_pairs.eigenfunctions)
        assert _residuals_agree(wrong_pairs.residuals, reference)
        with pytest.raises(df.SolverError) as err:
            df.lowest_eigenpairs(forms, 4)
        want = float(np.max(reference if outputs == 1 else reference[0]))
        assert want > 1e-10 and want / 2.0 <= err.value.best_residual <= 2.0 * want

    def test_a_nan_residual_fails(self):
        forms = df.assemble_forms(_drawn_stack("gaussian n=2", np.random.default_rng(0), 1)[0])
        nan = driftflow.axes.HermiteStiffness(np.nan * forms.blocks[1].matrix)
        with pytest.raises(df.SolverError, match="nan"):
            df.lowest_eigenpairs(dataclasses.replace(forms, blocks=(forms.blocks[0], nan)), 2)


class TestFieldOperations:
    def test_energy_profile_examples(self):
        dm4 = df.weighted_circle(64, a=4.0)
        u = np.cos(dm4.axes[0].nodes)
        J, D, _ = grid_scalar_pairings(dm4, u[None])
        assert D[0, 0] / J[0, 0] == pytest.approx(0.25, rel=1e-12)

    def test_hessian_examples(self, circle64, gauss):
        x = gauss.axes[0].nodes.copy()
        assert df.hessian_norm_sq(x, gauss) < 1e-20
        assert df.hessian_norm_sq(np.full(gauss.shape, 3.0), gauss) < 1e-20
        u = np.cos(circle64.axes[0].nodes)
        assert df.hessian_norm_sq(u, circle64) == pytest.approx(math.pi, rel=1e-11)

    def test_bochner_trivial_and_symbolic(self, circle64):
        lhs, hessian, half_dirichlet, image = _bochner_terms(np.ones(circle64.shape), circle64)
        assert abs(lhs - (hessian + half_dirichlet - image)) < 1e-14 and half_dirichlet == 0.0
        u = np.cos(circle64.axes[0].nodes)
        # phi = g/2 here, so both sides equal half the Dirichlet energy
        lhs, hessian, half_dirichlet, image = _bochner_terms(u, circle64)
        assert lhs == pytest.approx(0.5 * math.pi, rel=1e-11)
        assert 2.0 * half_dirichlet == pytest.approx(math.pi, rel=1e-11)
        assert abs(lhs - (hessian + half_dirichlet - image)) < 1e-11

    def test_bochner_random_fields(self):
        n = 256
        theta = 2.0 * math.pi * np.arange(n) / n
        rng = np.random.default_rng(11)
        f = sum(
            (2 * rng.random() - 1) * 0.4 * np.cos(k * theta)
            + (2 * rng.random() - 1) * 0.4 * np.sin(k * theta)
            for k in range(1, 4)
        )
        dm = df.weighted_circle(n, f=lambda th: np.interp(th, theta, f, period=2 * math.pi))
        u = sum(
            (2 * rng.random() - 1) * np.cos(k * theta) + (2 * rng.random() - 1) * np.sin(k * theta)
            for k in range(1, 6)
        )
        lhs, hessian, half_dirichlet, image = _bochner_terms(u, dm)
        rhs = hessian + half_dirichlet - image
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8

    def test_bochner_residual_decays_spectrally(self):
        rels = {}
        for n in (16, 32):
            dm = df.weighted_circle(n, f=lambda th: 2.0 * np.cos(th))
            u = np.cos(3 * dm.axes[0].nodes)
            lhs, hessian, half_dirichlet, image = _bochner_terms(u, dm)
            rhs = hessian + half_dirichlet - image
            rels[n] = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        assert rels[16] < 1e-3
        assert rels[32] < 1e-12

    def test_drift_divergence(self, circle64):
        th = circle64.axes[0].nodes
        u = np.cos(2 * th) + 0.3 * np.sin(th)
        du = partials(circle64, u)[0]
        div = df.drift_divergence([du / circle64.axes[0].a], circle64)
        np.testing.assert_allclose(div, drift_laplacian(circle64, u), atol=1e-11)
        assert np.max(np.abs(df.drift_divergence([np.zeros(64)], circle64))) == 0.0
        assert abs(circle64.integrate(df.drift_divergence([np.sin(th)], circle64))) < 1e-12

    def test_circle_first_derivatives(self, circle64):
        th = circle64.axes[0].nodes
        np.testing.assert_allclose(partials(circle64, np.sin(th))[0], np.cos(th), rtol=0, atol=1e-12)
        ax = df.weighted_circle(64, f=lambda t: 0.3 * np.sin(t)).axes[0]
        np.testing.assert_allclose(ax.fprime, 0.3 * np.cos(th), rtol=0, atol=1e-12)
        ax = df.weighted_circle(64, a=lambda t: 2.0 + np.sin(t)).axes[0]
        want = np.cos(th) / (2.0 * (2.0 + np.sin(th)))
        np.testing.assert_allclose(ax.christoffel, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16,), (16, 6), (6, 16, 5)])
    def test_apply_deriv_matches_moveaxis_tensordot_bitwise(self, shape):
        rng = np.random.default_rng(len(shape))
        field = rng.standard_normal(shape)
        for axis in range(-len(shape), len(shape)):
            n = shape[axis]
            mats = [rng.standard_normal((n, n))]
            if n == 16:
                mats.append(_fourier_dense(16)["d1"])
            for mat in mats:
                for arr in (field, np.asfortranarray(field)):
                    moved = np.moveaxis(arr, axis, 0)
                    want = np.moveaxis(np.tensordot(mat, moved - moved[:1], axes=(1, 0)), 0, axis)
                    assert np.array_equal(apply_deriv(mat, arr, axis), want)

    def test_shape_mismatch(self, circle64):
        with pytest.raises(UsageError):
            partials(circle64, np.ones(10))
        with pytest.raises(UsageError):
            df.drift_divergence([np.ones(64), np.ones(64)], circle64)
