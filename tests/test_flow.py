import dataclasses
import functools
import hashlib
import inspect
import math
import os
import re
import textwrap
import tracemalloc
import types

import numpy as np
import pytest

import driftflow as df
import driftflow.axes
import driftflow.oracles
import driftflow.spectral
import driftflow.splitting
from driftflow import acceptance
from driftflow.acceptance import check_commutator, check_functionals
from driftflow.axes import _fourier_dense, _hermite_ops, along, circle_nodes, lowpass, mode_amplitudes
from driftflow.config import ScenarioConfig
from driftflow.errors import ConfigurationError, DegeneracyError, FlowBreakdownError, StabilityError, UsageError
from driftflow.flow import (
    STACK_BYTES, RunRequest, _array_steps, _factor, _factored_pairings, _flow_rhs, _kernel, _Layout, _loop_arrays,
    _rk4, _run_loop, _settle, _stack_length,
)
from driftflow.geometry import CircleModel, ContinuumState, GaussianLineModel
from driftflow.oracles import gradient_inner, grid_scalar_pairings
from driftflow.runner import execute
from driftflow.spectral import (
    _derivatives, _hessian_energies, _product_fields, hessian_norm_sq, partials, soliton_defect_profiles,
)

LOG2 = math.log(2.0)


def _manifold(family, t=0.0, **kw):
    return df.discretize(df.evaluate_family(family, t), **kw)


def _one_step(family, dt):
    """The manifold after a geometry-only Galerkin run of one step."""
    req = RunRequest(family=family, horizon=dt, dt=dt, cadence=1, k=1, track_scalars=False)
    traj = df.run_flow(req)
    assert len(traj.times) == 2
    return traj.manifolds[-1]


class TestSingleStep:
    def test_static_soliton_is_fixed(self):
        dm = _one_step(df.scaled_gaussian_family(1.0, 1), 0.02)
        assert abs(dm.axes[0].scale - 1.0) < 1e-13

    def test_round_circle_exponential(self):
        dm = _one_step(df.round_circle_family(1.0), 0.01)
        assert float(np.max(np.abs(dm.axes[0].a - math.exp(0.01)))) < 1e-12

    def test_gaussian_matches_closed_form(self):
        dm = _one_step(df.scaled_gaussian_family(2.0, 1), 0.01)
        exact = 1.0 + math.exp(0.01)
        assert abs(dm.axes[0].scale - exact) < 1e-12

    def test_step_size_cap(self):
        with pytest.raises(ConfigurationError):
            RunRequest(family=df.round_circle_family(1.0), horizon=1.0, dt=0.2)

    def test_mode_energy_monitor(self, monkeypatch):
        # a run's threshold is STABILITY_FACTOR (1 + max |geometry|); here it
        # lies below the non-round circle's own mode amplitudes
        monkeypatch.setattr(df.flow, "STABILITY_FACTOR", 1e-3)
        req = RunRequest(family=_VaryingFamily(), horizon=0.01, dt=1e-3, k=1, resolution=32, hermite_order=6,
                         modes=8, track_scalars=False)
        with pytest.raises(StabilityError, match="^circle mode energy"):
            df.run_flow(req)

    def test_positivity_breakdown(self, monkeypatch):
        # the family dies at log 2 < 1: run_flow refuses it before any step,
        # and the stepping loop's own positivity safeguard still fires on it
        req = RunRequest(
            family=df.scaled_gaussian_family(0.5, 1), horizon=1.0, dt=1e-3, cadence=100, k=1,
            track_scalars=False,
        )
        seen = _counting_steps(monkeypatch)
        with pytest.raises(df.ExtinctionError, match=r"^family is extinct at t = 0\.69314718056$"):
            df.run_flow(req)
        assert seen == []
        dm = df.discretize(df.evaluate_family(req.family, 0.0), hermite_order=req.hermite_order)
        with pytest.raises(df.FlowBreakdownError):
            _run_loop(req, _Layout.of(dm), dm, None, *df.flow._output_steps(req))
        assert 0 < len(seen) < req.steps


class TestOutputRecord:
    def test_phi_vanishes_on_shrinker(self):
        phi = soliton_defect_profiles(_manifold(df.scaled_gaussian_family(1.0, 1)))
        assert float(np.max(np.abs(phi[0]))) == 0.0

    def test_two_phi_equals_metric_velocity(self):
        # g_t = u'(t) = u - 1 on the rescaled Gaussian; phi = (u - 1)/2
        fam = df.scaled_gaussian_family(2.0, 1)
        for t in (0.0, 0.4):
            phi = soliton_defect_profiles(_manifold(fam, t))
            u = fam.scale_at(t)
            np.testing.assert_allclose(2.0 * phi[0], u - 1.0, rtol=1e-14)

    def test_volumes_are_the_outputs_weighted_volumes(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.02, cadence=10, k=1, track_scalars=False)
        traj = df.run_flow(req)
        assert traj.volumes.tolist() == [dm.weighted_volume() for dm in traj.manifolds]
        np.testing.assert_allclose(traj.volumes, 2.0 * math.pi, rtol=1e-13)

    def test_the_trajectory_is_frozen(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.002, cadence=1, k=1, track_scalars=False)
        traj = df.run_flow(req)
        assert np.all(np.isnan(traj.residual_ij))  # no scalars: the column is NaN from the start
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.residual_ij = np.zeros(len(traj.times))


def _eigenfunctions(traj, m):
    """Output m's eigenfunctions, re-solved from its manifold as the run solves it."""
    request = traj.request
    return df.lowest_eigenpairs(df.assemble_forms(traj.manifolds[m]), request.k, request.eig_tol).eigenfunctions


class TestRunFlow:
    def test_zero_horizon(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.0, k=1, track_scalars=False)
        traj = df.run_flow(req)
        assert len(traj.times) == 1
        assert traj.eigenvalues[0, 1] == pytest.approx(1.0, abs=1e-11)

    def test_circle_eigenvalue_decay(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.5, dt=1e-3, cadence=25, k=1,
                         track_scalars=False)
        traj = df.run_flow(req)
        lam = traj.eigenvalues[:, 1]
        assert float(np.max(np.abs(lam - np.exp(-traj.times)))) < 1e-8

    def test_sharp_family_matches_formula(self):
        req = RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=LOG2, dt=1e-3,
                         cadence=70, k=1, track_scalars=False)
        traj = df.run_flow(req)
        s = traj.times
        lam = traj.eigenvalues[:, 1]
        formula = 0.25 / (0.5 * (1.0 - np.exp(s)) + np.exp(s))
        np.testing.assert_allclose(lam, formula, rtol=1e-8)

    def test_measure_preserved(self):
        for family in (df.round_circle_family(2.0), df.scaled_gaussian_family(1.5, 1)):
            req = RunRequest(family=family, horizon=1.0, dt=1e-3, cadence=100, k=1, track_scalars=False)
            traj = df.run_flow(req)
            drift = float(np.max(np.abs(traj.volumes / traj.volumes[0] - 1.0)))
            assert drift < 1e-6

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    @pytest.mark.parametrize("per_stack, stacks", [(None, 1), (2, 3), (3, 2), (1, 5)])
    def test_one_stacked_solve_per_stack(self, backend, per_stack, stacks, monkeypatch, recorded_solves):
        # output 0's solve seeds the scalars; then every output, 0 included,
        # is solved in stacks of consecutive outputs, one stacked solve per
        # stack, all by the public assemble_forms and lowest_eigenpairs
        assemble = df.flow.assemble_forms
        assembled = []
        monkeypatch.setattr(df.flow, "assemble_forms", lambda dm: assembled.append(dm) or assemble(dm))
        if per_stack:
            monkeypatch.setattr(df.flow, "_stack_length", lambda points, arrays: per_stack)
        family = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(1.0)])
        req = RunRequest(family=family, horizon=0.02, dt=1e-3, cadence=5, resolution=32, modes=8, k=2, backend=backend)
        traj = df.run_flow(req)
        first, *stacked = recorded_solves
        assert len(traj.times) == 5 and first.t == 0.0 and all(np.ndim(stack.t) == 1 for stack in stacked)
        assert len(stacked) == stacks and len(assembled) == stacks + 1
        assert [t for stack in stacked for t in stack.t] == list(traj.times)
        # output 0's stacked solve has the bits of the solve that seeded the run
        assert _bits(stacked[0], 0) == _bits(first)
        assert (traj.eigenvalues[0].tobytes(), traj.eigen_residuals[0].tobytes()) == _bits(first)[::2]

    def test_bound_columns_respect_horizon(self):
        req = RunRequest(family=df.round_circle_family(0.25), horizon=0.5, dt=1e-3, cadence=50, k=1,
                         track_scalars=False)
        traj = df.run_flow(req)
        # lambda_1(0) = 4 blows up at log(8/7) ~ 0.1335: later bounds are inf
        assert math.isinf(traj.bounds[-1, 0])
        assert np.isfinite(traj.bounds[1, 0])

    @pytest.mark.parametrize("track", [True, False])
    def test_every_per_output_field_has_the_output_axis_first(self, track):
        req = RunRequest(family=_PRODUCT, horizon=0.02, cadence=5, k=2, resolution=32, track_scalars=track)
        traj = df.run_flow(req)
        count = len(traj.times)
        assert count == 5 and len(traj.manifolds) == count
        per_output = {f.name: getattr(traj, f.name) for f in dataclasses.fields(traj)}
        del per_output["request"], per_output["manifolds"]
        per_output.update({f"series {name}": values for name, values in per_output.pop("series").items()})
        factors = per_output.pop("scalar_factors")
        if track:
            assert len(factors) == 2 and all(cols.shape == (count, 2, n) for cols, n in zip(factors, (12, 32)))
        else:
            assert factors is None and "series J" not in per_output
        for name, values in per_output.items():
            assert isinstance(values, np.ndarray) and values.shape[0] == count, name
        assert traj.eigenvalues.shape == traj.eigen_residuals.shape == (count, 3)

    @pytest.mark.parametrize(
        "horizon, cadence, steps", [(0.0, 10, [0]), (0.005, 10, [0, 5]), (0.007, 3, [0, 3, 6, 7])],
        ids=["horizon_0", "cadence_longer_than_the_run", "remainder_step"],
    )
    def test_output_count_is_the_length_of_the_recorded_steps(self, horizon, cadence, steps):
        config = ScenarioConfig.from_dict(
            {"family": "round_circle", "horizon": horizon, "cadence": cadence, "k": 1, "track_scalars": False}
        )
        request = config.to_request()
        traj = df.run_flow(request)
        assert df.flow.output_count(request) == len(traj.times) == len(steps)
        assert df.flow._output_steps(request)[1] == steps
        np.testing.assert_allclose(traj.times, 1e-3 * np.array(steps), rtol=0, atol=1e-15)

    def test_too_many_outputs_are_refused_before_the_steps_are_listed(self):
        # 1e8 steps at cadence 1: a list of the recorded steps alone would take gigabytes
        req = RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=100.0, dt=1e-6, cadence=1, k=1,
                         track_scalars=False)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=" 100000001 outputs "):
                df.run_flow(req)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_eigenvalue_quotients_satisfy_comparison_ode(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.4, dt=1e-3, cadence=10, k=1,
                         track_scalars=False)
        traj = df.run_flow(req)
        lam = traj.eigenvalues[:, 1]
        # the paper's inequality lambda' <= (2 lambda - 1) lambda, on forward difference quotients
        excess = np.diff(lam) / np.diff(traj.times) - (2.0 * lam[:-1] - 1.0) * lam[:-1]
        assert float(np.max(excess)) <= 1e-6


class TestShiftInvariance:
    """The system is autonomous and sees f only through its derivatives, so a
    shift of t0 or f0 leaves the eigenvalues, the bounds and the energies."""

    @staticmethod
    def _run(backend, t0=0.0, f0=0.0):
        family = df.product_family(
            [df.scaled_gaussian_family(2.0, 1, t0=t0), df.round_circle_family(4.0, t0=t0, f0=f0)]
        )
        traj = df.run_flow(RunRequest(family=family, horizon=0.5, dt=1e-3, cadence=50, k=4, backend=backend))
        return traj.eigenvalues, traj.bounds, traj.series["E"]

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    def test_t0_and_f0_shifts(self, backend):
        base = self._run(backend)
        for shift in ({"t0": 100.0}, {"t0": -100.0}, {"f0": 50.0}, {"f0": -50.0}):
            for name, ref, got in zip(("lambda", "bounds", "E"), base, self._run(backend, **shift)):
                deviation = float(np.max(np.abs(got - ref))) / float(np.max(np.abs(ref)))
                assert deviation <= 1e-11, (shift, name, deviation)


@pytest.fixture(scope="module")
def static_traj():
    req = RunRequest(family=df.scaled_gaussian_family(1.0, 1), horizon=0.2, dt=1e-3,
                     cadence=20, k=1)
    return df.run_flow(req)


def _filled(request, dm, columns0):
    """``_run_loop``'s stack of outputs from the scalars ``columns0`` and
    their per-axis columns u = E V at every output (``_factor``), V as
    ``run_flow`` takes it: ``columns0``, or a stepped circle's record."""
    layout = _Layout.of(dm, len(columns0[0]))
    dt, steps = df.flow._output_steps(request)
    rows, integrals, lags, stepped = _run_loop(request, layout, dm, columns0, dt, steps)
    columns = [stepped.get(axis, cols) for axis, cols in enumerate(columns0)]
    return layout.stack(rows, request.family.t0 + np.array(steps) * dt), _factor(layout, columns, integrals, lags)


def _evolved(traj, u0):
    """(manifold, u) per output of the one-axis scalar u0, its own column,
    carried by u_t = L u + u/2 through the run's own Galerkin integration
    (``_run_loop``)."""
    outputs, (scalars,) = _filled(traj.request, traj.manifolds[0], [u0[None]])
    return [(dm, s[0]) for dm, s in zip(outputs, scalars)]


class TestEvolveScalar:
    def test_eigenfunction_at_half_is_stationary(self, static_traj):
        x = static_traj.manifolds[0].axes[0].nodes.copy()
        _, u = _evolved(static_traj, x)[-1]
        assert float(np.max(np.abs(u - x))) < 1e-12

    def test_constant_grows_at_half_rate(self, static_traj):
        ones = np.ones(static_traj.manifolds[0].shape)
        _, u = _evolved(static_traj, ones)[-1]
        np.testing.assert_allclose(u, math.exp(0.1), rtol=1e-10)

    def test_mean_zero_preserved(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.3, dt=1e-3, cadence=30, k=1)
        traj = df.run_flow(req)
        u0 = np.sin(traj.manifolds[0].axes[0].nodes)
        means = [dm.integrate(u) for dm, u in _evolved(traj, u0)]
        assert float(np.max(np.abs(means))) < 1e-9


class TestFunctionalResiduals:
    def test_static_soliton_energy_identity(self):
        req = RunRequest(family=df.scaled_gaussian_family(1.0, 1), horizon=0.05, dt=1e-3,
                         cadence=1, k=1)
        traj = df.run_flow(req)
        # u = x normalized: I = 1 and I - 2E = 0 hold exactly on the shrinker
        I = traj.series["I"][:, 0]
        E = traj.series["E"][:, 0]
        np.testing.assert_allclose(I, 1.0, atol=1e-12)
        np.testing.assert_allclose(I - 2.0 * E, 0.0, atol=1e-12)

    def test_circle_run_identities(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.1, dt=1e-3, cadence=1, k=2)
        traj = df.run_flow(req)
        rep = df.functional_residuals(traj.series)
        assert rep.max_rel_J < 1e-12
        assert rep.max_rel_I < 1e-12
        assert rep.energy_violation <= 1e-8 * rep.energy_scale
        assert np.all(np.isfinite(traj.residual_ij)) and np.max(traj.residual_ij) == rep.max_rel_J

    def test_rates_are_the_time_derivative_of_the_pairings(self):
        # the exact dJ against a central difference of J at cadence 1: O(dt^2)
        req = RunRequest(family=df.round_circle_family(0.5), horizon=0.01, dt=1e-3, cadence=1, k=2)
        traj = df.run_flow(req)
        J, dJ = traj.series["J"], traj.series["dJ"]
        central = (J[2:] - J[:-2]) / 2e-3
        assert np.max(np.abs(central - dJ[1:-1])) < 1e-5 * np.max(np.abs(dJ))

    def test_one_output_has_finite_residuals(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.0, k=2)
        traj = df.run_flow(req)
        assert len(traj.times) == 1
        rep = df.functional_residuals(traj.series)
        assert rep.energy_violation == 0.0 and rep.max_rel_J < 1e-12
        assert np.all(np.isfinite(traj.residual_ij)) and np.all(np.isfinite(traj.residual_commutator))

    def test_requires_tracked_scalars(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.05, dt=1e-3, cadence=10,
                         k=1, track_scalars=False)
        traj = df.run_flow(req)
        with pytest.raises(UsageError):
            df.functional_residuals(traj.series)


def _gram(dm, fields):
    """Weighted-L2 Gram matrix of ``fields`` on the grid."""
    return grid_scalar_pairings(dm, np.stack(fields))[0]


class TestGramSchmidtFrame:
    def test_orthonormal_inputs_give_identity(self):
        dm = df.weighted_circle(64)
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 2)
        gram = _gram(dm, res.eigenfunctions)
        mixing = df.gram_schmidt_frame(gram)
        np.testing.assert_allclose(mixing, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(mixing @ gram @ mixing.T, np.eye(3), atol=1e-10)

    def test_static_diagonal_is_flat(self):
        req = RunRequest(family=df.scaled_gaussian_family(1.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
        traj = df.run_flow(req)
        J, dJ = traj.series["J"][:, 0, 0], traj.series["dJ"][:, 0, 0]
        mixing = np.stack([df.gram_schmidt_frame(gram) for gram in traj.series["J"]])
        np.testing.assert_allclose(mixing[:, 0, 0], J**-0.5, rtol=1e-14, atol=0)
        assert np.max(np.abs(dJ)) < 1e-12

    def test_moving_diagonal_rate(self):
        # a11 = J11^{-1/2}, so a11' = -J11' J11^{-3/2} / 2, -1/4 at t = 0 for u0 = 2
        req = RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=5e-3, dt=1e-3, cadence=1, k=1)
        traj = df.run_flow(req)
        J, dJ = traj.series["J"][:, 0, 0], traj.series["dJ"][:, 0, 0]
        rate = -0.5 * dJ * J**-1.5
        assert abs(rate[0] - (-0.25)) < 1e-12
        mixing = np.stack([df.gram_schmidt_frame(gram) for gram in traj.series["J"]])
        central = (mixing[2:, 0, 0] - mixing[:-2, 0, 0]) / 2e-3
        np.testing.assert_allclose(central, rate[1:-1], rtol=1e-6, atol=0)

    def test_mixing_is_exactly_lower_triangular(self):
        # |gram[1, 0]| > gram[0, 0], so an LU solve of the Cholesky factor pivots
        dm = df.weighted_circle(64)
        u, v = np.cos(dm.axes[0].nodes), np.sin(dm.axes[0].nodes)
        gram = _gram(dm, [u, 3.0 * u + 0.3 * v])
        mixing = df.gram_schmidt_frame(gram)
        assert mixing[0, 1] == 0.0
        np.testing.assert_allclose(mixing @ gram @ mixing.T, np.eye(2), atol=1e-12)

    def test_rank_deficiency(self):
        dm = df.weighted_circle(64)
        u = np.sin(dm.axes[0].nodes)
        with pytest.raises(DegeneracyError):
            df.gram_schmidt_frame(_gram(dm, [u, 2.0 * u]))

    def test_a_stack_fails_as_its_first_failing_matrix_does(self):
        # one Cholesky over a run's (m, k, k) J: the error is the one the first
        # failing matrix gives alone, rank deficient (a tiny pivot) or dependent
        # (Cholesky fails), and a stack that passes gives each matrix's factor
        dm = df.weighted_circle(64)
        u, v = np.sin(dm.axes[0].nodes), np.cos(dm.axes[0].nodes)
        good, tiny, indefinite = _gram(dm, [u, v]), _gram(dm, [u, 2.0 * u]), np.array([[1.0, 2.0], [2.0, 1.0]])
        for stack, message in (
            ([good, tiny, indefinite], "numerically rank deficient"),
            ([good, indefinite, tiny], "linearly dependent"),
            ([indefinite], "linearly dependent"),
        ):
            with pytest.raises(DegeneracyError, match=message):
                df.flow._cholesky_factors(np.stack(stack))
            first_bad = next(gram for gram in stack if gram is not good)
            with pytest.raises(DegeneracyError, match=message):
                df.gram_schmidt_frame(first_bad)
        factors = df.flow._cholesky_factors(np.stack([good, 2.0 * good]))
        assert np.array_equal(factors, np.stack([np.linalg.cholesky(good), np.linalg.cholesky(2.0 * good)]))


class TestCommutatorResidual:
    def test_static_soliton(self):
        req = RunRequest(family=df.scaled_gaussian_family(1.0, 1), horizon=0.02, dt=1e-3,
                         cadence=1, k=1, track_scalars=False)
        traj = df.run_flow(req)
        x = traj.manifolds[0].axes[0].nodes.copy()
        assert df.commutator_residual(x, traj.manifolds, [len(traj.times) // 2])[0] < 1e-12

    def test_constant_field(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.02, dt=1e-3, cadence=1,
                         k=1, track_scalars=False)
        traj = df.run_flow(req)
        assert df.commutator_residual(np.ones(traj.manifolds[0].shape), traj.manifolds, [1])[0] < 1e-14

    def test_circle_cosine(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.05, dt=1e-3, cadence=1,
                         k=1, track_scalars=False)
        traj = df.run_flow(req)
        u = np.cos(traj.manifolds[0].axes[0].nodes)
        assert df.commutator_residual(u, traj.manifolds, [len(traj.times) // 2])[0] < 1e-12

    def test_indices_must_name_outputs(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.02, dt=1e-3, cadence=1,
                         k=1, track_scalars=False)
        traj = df.run_flow(req)
        ones = np.ones(traj.manifolds[0].shape)
        for indices in ([-1], [1, len(traj.times)]):
            with pytest.raises(UsageError):
                df.commutator_residual(ones, traj.manifolds, indices)

    @pytest.mark.parametrize("horizon", [0.006, 0.005])
    def test_run_series_at_every_output(self, horizon):
        # the run's series and each index alone agree bit for bit, at the first
        # and the last output too, a last output short of the cadence included
        req = RunRequest(family=df.round_circle_family(1.0), horizon=horizon, dt=1e-3, cadence=2,
                         k=1, track_scalars=False)
        traj = df.run_flow(req)
        probe = _eigenfunctions(traj, 0)[1]
        got = [df.commutator_residual(probe, traj.manifolds, [m])[0] for m in range(len(traj.times))]
        assert np.array_equal(got, traj.residual_commutator)
        assert np.max(traj.residual_commutator) < 1e-12


def _one_output_stack(dm):
    """``dm`` as a stack of one output."""
    axes = [
        driftflow.axes.CircleAxis(ax.a[None], ax.f[None]) if ax.kind == "circle"
        else driftflow.axes.HermiteLineAxis(ax.size, [[ax.scale]])
        for ax in dm.axes
    ]
    return df.DiscreteWeightedManifold(axes, t=[dm.t])


def _round_product(resolution=64, order=12):
    """The Gaussian x round-circle product at t = 0."""
    fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])
    return df.discretize(df.evaluate_family(fam, 0.0), resolution=resolution, hermite_order=order)


def _wavy_product(resolution=64, order=12):
    """A hand-made non-round circle x Gaussian line, circle first, with a
    constant in the weight: no family reaches it."""
    circle = CircleModel(
        a=lambda th: 4.0 + 0.3 * np.cos(th), f=lambda th: 0.2 * np.sin(th) + 0.1 * np.cos(2 * th) + 0.7
    )
    state = ContinuumState(t=0.0, factors=(circle, GaussianLineModel(1.3)))
    return df.discretize(state, resolution=resolution, hermite_order=order)


def _gaussian_cube():
    return df.discretize(df.evaluate_family(df.scaled_gaussian_family(1.5, 3), 0.0), hermite_order=6)


def _smooth_fields(dm, k, seed=7):
    """k seeded smooth fields on ``dm``: per axis a few Fourier modes or a
    cubic, combined by their product and their sum so that every mixed
    partial is nonzero."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(k):
        profiles = []
        for i, ax in enumerate(dm.axes):
            if ax.kind == "circle":
                prof = sum(rng.uniform(-1, 1) * np.cos(m * ax.nodes + rng.uniform(0, 6)) for m in range(1, 4))
            else:
                prof = sum(rng.uniform(-1, 1) * ax.nodes**p for p in range(4))
            profiles.append(along(prof, i, dm.dimension))
        fields.append(functools.reduce(np.multiply, profiles) + sum(profiles))
    return np.stack(fields)


def _hessian_energy(dm, u):
    """Weighted integral of |Hess u|^2 of one field, term by term: the
    squares of u'' - Gamma u' along each axis over a^2 and twice those of
    each mixed partial over a_i a_j, integrated by ``dm.integrate``."""
    du = partials(dm, u)
    total = np.zeros(dm.shape)
    for i, ax in enumerate(dm.axes):
        ai = np.full(dm.shape, along(ax.a, i, dm.dimension))
        h = ax.d2(u, i) - along(ax.christoffel, i, dm.dimension) * du[i]
        total += h * h / (ai * ai)
        for j in range(i + 1, dm.dimension):
            h = dm.axes[j].d1(du[i], j)
            total += 2.0 * h * h / (ai * along(dm.axes[j].a, j, dm.dimension))
    return dm.integrate(total)


def _count_derivatives(monkeypatch):
    """Record the field of every ``axes.apply_deriv`` call, through which
    each axis applies its d1 and d2."""
    seen, apply = [], driftflow.axes.apply_deriv

    def counted(mat, arr, axis, lead=0):
        seen.append(arr)
        return apply(mat, arr, axis, lead)

    monkeypatch.setattr(driftflow.axes, "apply_deriv", counted)
    return seen


class TestScalarPairings:
    """One output's grid J, D and dJ in one pass over the batch; the Hessian
    energies in another, only where they are read."""

    @pytest.mark.parametrize("make", [_round_product, _wavy_product])
    def test_batched_equals_the_per_pair_definitions(self, make):
        dm = make()
        fields = _smooth_fields(dm, 3)
        du, h = _derivatives(dm, fields)
        J, D, _ = grid_scalar_pairings(dm, fields)
        hess = _hessian_energies(dm, du, h)
        parts = [partials(dm, u) for u in fields]
        J_ref = np.array([[dm.integrate(u * v) for v in fields] for u in fields])
        D_ref = np.array([[dm.integrate(gradient_inner(dm, p, q)) for q in parts] for p in parts])
        for got, ref in ((J, J_ref), (D, D_ref)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(got, got.T)
        np.testing.assert_allclose(hess, [_hessian_energy(dm, u) for u in fields], rtol=1e-13, atol=0)
        assert [hessian_norm_sq(u, dm) for u in fields] == pytest.approx(hess, rel=1e-13)
        for i, batch in enumerate(du):
            ref = np.stack([p[i] for p in parts])
            assert np.max(np.abs(batch - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make, d", [(_round_product, 2), (_wavy_product, 2), (_gaussian_cube, 3)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_derivative_pass_whatever_k(self, monkeypatch, make, d, k):
        # one pass takes d1 and d2 along each axis, each once on the batch;
        # the Hessian energies take each mixed partial once, and every other
        # consumer builds on the same pass
        dm = make()
        fields = _smooth_fields(dm, k)
        one_pass = 2 * d + d * (d - 1) // 2
        seen = _count_derivatives(monkeypatch)
        du, h = _derivatives(dm, fields)
        assert len(seen) == 2 * d
        _hessian_energies(dm, du, h)
        assert len(seen) == one_pass
        assert all(arr.shape == fields.shape for arr in seen)
        for count, call in (
            (2 * d, lambda: grid_scalar_pairings(dm, fields)),
            (2 * d, lambda: df.drift_laplacian(dm, fields[0])),
            (one_pass, lambda: hessian_norm_sq(fields[0], dm)),
            (one_pass, lambda: driftflow.spectral._bochner_terms(fields[0], dm)),
            # one pass on the directions and one on q = (1/4) sum u_i^2
            (2 * one_pass, lambda: driftflow.splitting.certificate_residuals(list(fields), dm)),
        ):
            seen.clear()
            call()
            assert len(seen) == count

    @pytest.mark.parametrize("make", [_round_product, _wavy_product, _gaussian_cube])
    def test_drift_laplacian_is_the_L_of_the_pairings_bitwise(self, monkeypatch, make):
        dm = make()
        u = _smooth_fields(dm, 1)
        images, drift = [], driftflow.spectral._drift

        def recorded(*args):
            images.append(drift(*args))
            return images[-1]

        monkeypatch.setattr(driftflow.oracles, "_drift", recorded)
        grid_scalar_pairings(dm, u)
        (lu,) = images
        assert np.array_equal(lu[0], df.drift_laplacian(dm, u[0]))

    def test_commutator_differentiates_the_probe_once_per_call(self, monkeypatch):
        fam = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)])
        req = RunRequest(family=fam, horizon=0.01, dt=1e-3, cadence=2, k=1, resolution=16, hermite_order=8,
                         track_scalars=False)
        traj = df.run_flow(req)
        probe = _eigenfunctions(traj, 0)[1]
        indices = range(1, len(traj.times) - 1)
        seen = _count_derivatives(monkeypatch)
        got = df.commutator_residual(probe, traj.manifolds, indices)
        assert np.array_equal(got, traj.residual_commutator[1:-1])
        d = 2
        on_probe = [arr for arr in seen if arr.shape == probe.shape and np.array_equal(arr, probe)]
        assert len(on_probe) == 2 * d  # d1 and d2 per axis, for every output at once
        assert len(seen) == 2 * d + d  # then the divergence's d1 per axis, once for the stack of outputs
        assert all(arr.shape == (len(indices), *probe.shape) for arr in seen[2 * d :])

    def test_one_output_pairs_its_columns_in_column_memory(self):
        # a run pairs its scalars from their per-axis columns: at k = 3 on
        # 16 x 256 one output's pass holds at most 12 copies of its columns,
        # where one copy of its k grid fields is 15 copies
        k = 3
        for dm in (_round_product(256, 16), _wavy_product(256, 16)):
            assert dm.size == 16 * 256
            columns = [np.random.default_rng(i).standard_normal((k, n)) for i, n in enumerate(dm.shape)]
            _factored_pairings(dm, columns)  # build the derivative matrices
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                _factored_pairings(dm, columns)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 12 * 8 * k * sum(dm.shape) < 8 * k * dm.size


def _moved(dm, phi, eps):
    """``dm`` moved by ``eps`` along its own rates: a + eps a_t and f + eps f_t
    on a circle, u + eps u_t on a Gaussian line, with a_t = 2 phi."""
    axes = [
        driftflow.axes.CircleAxis(ax.a + eps * 2.0 * p, ax.f + eps * df.flow._weight_rate(ax.hess_f, ax.a))
        if ax.kind == "circle"
        else driftflow.axes.HermiteLineAxis(ax.size, ax.scale + eps * 2.0 * p[0])
        for ax, p in zip(dm.axes, phi)
    ]
    return df.DiscreteWeightedManifold(axes, t=dm.t)


class TestExactRates:
    """d/dt(L u) and dJ from one output's own rates a_t = 2 phi, f_t."""

    @pytest.mark.parametrize("make", [_wavy_product, _round_product])
    def test_rates_of_L_match_a_central_difference_of_L(self, make):
        dm = make()
        phi = soliton_defect_profiles(dm)
        u = _smooth_fields(dm, 1)[0]
        du, d2u = partials(dm, u), [ax.d2(u, i) for i, ax in enumerate(dm.axes)]
        exact = 0.0
        for i, ax in enumerate(dm.axes):
            _, c1, c2 = df.flow._laplacian_rates(ax)
            exact = exact + along(c1, i, dm.dimension) * d2u[i] + along(c2, i, dm.dimension) * du[i]
        eps = 1e-5
        plus, minus = (df.drift_laplacian(_moved(dm, phi, h), u) for h in (eps, -eps))
        central = (plus - minus) / (2.0 * eps)
        assert np.max(np.abs(central - exact)) < 1e-7 * np.max(np.abs(exact))

    def test_commutator_on_a_non_round_circle(self):
        dm = _wavy_product()
        u = _smooth_fields(dm, 1)[0]
        assert df.commutator_residual(u, _one_output_stack(dm), [0])[0] < 1e-10

    def test_a_wrong_weight_rate_fails_the_commutator(self, monkeypatch):
        dm = _wavy_product()
        u = _smooth_fields(dm, 1)[0]
        monkeypatch.setattr(df.flow, "_weight_rate", lambda hess_f, a: 0.5 + hess_f / a)  # the sign of Hess f flipped
        got = df.commutator_residual(u, _one_output_stack(dm), [0])[0]
        assert got > acceptance.VERIFY_TOLERANCES["commutator_rel"]
        assert not check_commutator(types.SimpleNamespace(residual_commutator=np.array([got])))[0].passed

    @pytest.mark.parametrize("make", [_round_product, _wavy_product, _gaussian_cube])
    def test_pairing_rates_are_J_minus_2D(self, make):
        # integration by parts: G + G^T = -2D up to round-off
        dm = make()
        J, D, dJ = grid_scalar_pairings(dm, _smooth_fields(dm, 3))
        assert np.array_equal(dJ, dJ.T)
        assert np.max(np.abs(dJ - (J - 2.0 * D))) < 1e-12 * np.max(np.abs(J - 2.0 * D))

    def test_scaled_stiffness_fails_rel_J(self):
        req = RunRequest(family=df.round_circle_family(1.0), horizon=0.05, k=2)
        traj = df.run_flow(req)
        assert all(c.passed for c in check_functionals(traj))
        scaled = dataclasses.replace(traj, series={**traj.series, "D": traj.series["D"] * (1.0 + 1e-3)})
        records = {c.name: c for c in check_functionals(scaled)}
        assert not records["rel J'"].passed and records["rel J'"].value > 1e-3


class TestConstantRowsSkipTheRoundTrip:
    """A constant circle row has no mode above 0: ``lowpass`` and ``_settle``
    return it as it is.  numpy's rfft/irfft round trip of a constant is
    exact at powers of two and not at Bluestein sizes."""

    @pytest.mark.parametrize("n", [31, 48, 100, 191, 331, 1021])
    def test_constant_rows_are_returned_exactly(self, n):
        rng = np.random.default_rng(n)
        constants = rng.uniform(0.1, 10.0, 20)
        trip = [np.fft.irfft(np.fft.rfft(np.full(n, c)), n=n) for c in constants]
        assert any(not np.array_equal(x, np.full(n, c)) for x, c in zip(trip, constants))  # it would move them
        layout = _full_row_layout(df.weighted_circle(n))
        assert layout.circles == ((0, n),)
        for c in constants:
            rows = np.stack([np.full(n, c), np.full(n, -c)])
            assert np.array_equal(lowpass(rows, n // 4), rows)
            assert np.array_equal(lowpass(rows[0], n // 4), rows[0])
            z = rows.ravel()
            assert np.array_equal(_settle(layout, z, n // 2, 1e-13, 1e6), z)

    def test_a_varying_row_beside_a_constant_one_is_still_filtered(self):
        n = 100
        theta = circle_nodes(n)
        rows = np.stack([np.full(n, 2.7), 1.0 + 0.1 * np.cos(3 * theta) + 0.01 * np.cos(40 * theta)])
        low = lowpass(rows, 20)
        assert np.array_equal(low[0], rows[0])
        assert np.array_equal(low[1], lowpass(rows[1], 20))
        assert float(np.max(mode_amplitudes(low[1])[21:])) < 1e-15
        layout = _Layout.of(df.weighted_circle(n, a=2.7, f=lambda th: 1.0 + 0.1 * np.cos(3 * th)))
        assert layout.circles == ((0, n),)
        settled = _settle(layout, rows.ravel(), 20, 1e-13, 1e6)
        assert np.array_equal(settled[:n], rows[0])
        assert float(np.max(mode_amplitudes(settled[n:])[21:])) < 1e-15

    def test_prime_resolution_round_circle_stays_round(self):
        # 331 nodes, modes 165: a lost positivity at node 198 when the
        # round trip seeded non-round round-off in the stiff top modes
        req = RunRequest(family=df.round_circle_family(0.25), horizon=0.05, resolution=331, modes=165, k=2,
                         track_scalars=False)
        traj = df.run_flow(req)
        assert traj.times[-1] == pytest.approx(0.05)
        for dm in traj.manifolds:
            ax = dm.axes[0]
            assert np.ptp(ax.a) == 0.0 and np.ptp(ax.f) == 0.0
        np.testing.assert_allclose([dm.axes[0].a[0] for dm in traj.manifolds], 0.25 * np.exp(traj.times),
                                   rtol=1e-12)

    def test_below_nyquist_at_100_nodes_a_stays_exactly_constant(self):
        # modes 40 < 50 = n // 2: every stage takes the lowpass of its rows
        req = RunRequest(family=df.round_circle_family(1.3), horizon=0.05, resolution=100, modes=40, k=2,
                         track_scalars=False)
        for dm in df.run_flow(req).manifolds:
            assert np.ptp(dm.axes[0].a) == 0.0 and np.ptp(dm.axes[0].f) == 0.0
        # on full rows the stage formulas of constant rows are exactly (c, 1/2),
        # which the round circle's two numbers take as their rates
        for c in np.random.default_rng(100).uniform(0.1, 10.0, 20):
            dm = df.weighted_circle(100, a=c, f=-0.4)
            layout = _full_row_layout(dm)
            rows = _flow_rhs(layout, 40)(0.0, layout.pack(dm)).reshape(2, 100)
            assert np.array_equal(rows[0], np.full(100, c)) and np.array_equal(rows[1], np.full(100, 0.5))
            compact = _Layout.of(dm)
            assert np.array_equal(_flow_rhs(compact, 40)(0.0, compact.pack(dm)), [c, 0.5])

    @pytest.mark.parametrize("n", [64, 331])
    def test_a_round_circle_takes_no_transform(self, monkeypatch, n):
        # its construction, hess_f, phi and the commutator rates: every row they differentiate is constant
        seen, spectral = [], driftflow.axes._spectral
        monkeypatch.setattr(driftflow.axes, "_spectral", lambda symbol, values: seen.append(values) or spectral(symbol, values))
        dm = _manifold(df.round_circle_family(0.7, f0=0.3), 0.2, resolution=n)
        ax = dm.axes[0]
        phi, c1, c2 = df.flow._laplacian_rates(driftflow.axes.CircleAxis(np.stack([ax.a, ax.a]), np.stack([ax.f, ax.f])))
        assert seen == []
        assert np.array_equal(ax.fprime, np.zeros(n)) and np.array_equal(ax.hess_f, np.zeros(n))
        assert np.array_equal(phi[0], soliton_defect_profiles(dm)[0])
        assert np.array_equal(c2, np.zeros((2, n))) and np.ptp(c1) == 0.0

    def test_a_varying_row_keeps_its_bits(self):
        ax = _wavy_product().axes[0]
        row = _wavy_f(ax.nodes)
        for symbol, deriv in (("ik", ax.d1_vec), ("k2", ax.d2_vec)):
            assert np.array_equal(deriv(row), driftflow.axes._spectral(ax._ops[symbol], row - row[0]))


class TestScalarOrthogonalityAlongFlow:
    def test_distinct_eigenvalue_scalars_stay_orthogonal(self):
        # Jic'(0) is diagonal, so off-diagonal pairings stay at zero initially
        fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])
        req = RunRequest(family=fam, horizon=0.05, dt=1e-3, cadence=5, k=3, hermite_order=8)
        traj = df.run_flow(req)
        J = traj.series["J"]
        offdiag = J.copy()
        for m in range(J.shape[0]):
            np.fill_diagonal(offdiag[m], 0.0)
        assert float(np.max(np.abs(offdiag))) < 1e-8


class TestFlatState:
    def test_batched_scalar_rhs_matches_drift_laplacian(self):
        # u = V_c x V_x on a non-round circle x Gaussian line: the stages apply
        # the circle's operator to its columns V_c, and E the line's c D to
        # V_x, c = 1/u read from the stage; the two are L
        state = ContinuumState(
            t=0.0,
            factors=(
                CircleModel(a=lambda th: 1.0 + 0.3 * np.cos(th), f=lambda th: 0.2 * np.sin(2 * th)),
                GaussianLineModel(1.7),
            ),
        )
        dm = df.discretize(state, resolution=32, hermite_order=8)
        theta, x = dm.axes[0].nodes, dm.axes[1].nodes
        circle = np.stack([np.cos(theta), np.sin(2 * theta) + 0.5, np.cos(3 * theta)])
        line = np.stack([x, x**3, x * x - 2.0])
        layout = _Layout.of(dm, len(circle))
        assert layout.diagonal == (1,) and layout.stepped == (0,) and layout.columns == [(0, 66, 66 + 3 * 32)]
        rhs = _flow_rhs(layout, modes=8)

        def stage(columns):
            dz = rhs(0.0, np.concatenate([layout.pack(dm), [0.0], columns.ravel()]))
            return dz[layout.width], dz[layout.start :].reshape(columns.shape)

        ops = _hermite_ops(8)
        minus_d = ops["vand"] @ (-0.5 * np.arange(8)[:, None] * ops["vinv"])  # -D in the nodes
        c, circle_part = stage(circle)
        assert c == 1.0 / 1.7
        for got, vc, vx in zip(circle_part, circle, line):
            want = df.drift_laplacian(dm, np.outer(vc, vx))
            total = np.outer(got, vx) + c * np.outer(vc, minus_d @ vx)
            assert float(np.max(np.abs(total - want))) <= 1e-13 * float(np.max(np.abs(want)))
        constants = np.stack([np.full(32, 1.0), np.full(32, -2.5), np.full(32, 0.3)])
        assert np.array_equal(stage(constants)[1], np.zeros_like(constants))

    def test_single_step_matches_one_step_run(self):
        fam = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)])
        req = RunRequest(family=fam, horizon=0.01, dt=0.01, cadence=1, k=1, track_scalars=False)
        traj = df.run_flow(req)
        dm0 = traj.manifolds[0]
        layout = _Layout.of(dm0)
        stepped = _settler(layout, req.modes)(_rk4(_flow_rhs(layout, req.modes), 0.0, layout.pack(dm0), 0.01)[0])
        ran = traj.manifolds[-1]
        assert ran.t == 0.01
        assert np.array_equal(layout.pack(ran), stepped)


class _VaryingFamily:
    """A non-round circle times a Gaussian line at t0 = 0, as a family; a
    Galerkin run reads only its start."""

    t0 = 0.0

    def evaluate(self, t):
        circle = CircleModel(a=lambda th: 1.0 + 0.3 * np.cos(th), f=lambda th: 0.2 * np.sin(2 * th))
        return ContinuumState(t=t, factors=(circle, GaussianLineModel(1.7)))


class _WavyCircleFamily(_VaryingFamily):
    """The non-round circle of ``_VaryingFamily`` alone: with scalars, V is
    stepped and no axis is diagonal, so E is the growth e^{s/2} alone."""

    def evaluate(self, t):
        return ContinuumState(t=t, factors=super().evaluate(t).factors[:1])


class _LineTimesWavyCircleFamily(_VaryingFamily):
    """A Gaussian line times a non-round circle, on a wider circle than
    ``_VaryingFamily``'s."""

    def evaluate(self, t):
        circle = CircleModel(a=lambda th: 4.0 + 0.3 * np.cos(th), f=lambda th: 0.2 * np.sin(th))
        return ContinuumState(t=t, factors=(GaussianLineModel(1.0), circle))


def _varying_product():
    return df.discretize(_VaryingFamily().evaluate(0.0), resolution=32, hermite_order=8)


def _circle_z(n, a, f):
    """Layout and geometry vector of one circle with the given node values,
    the layout built from a circle with those samples."""
    theta = circle_nodes(n)
    return _Layout.of(df.weighted_circle(n, a=a, f=f)), np.concatenate([a(theta), f(theta)])


_compact_layout = _Layout.of


def _full_row_layout(dm, count=0):
    """The geometry-only layout of ``dm`` with each round circle stored as
    its 2n equal samples (kind "circle"): stepped by the full stage formulas
    and filtered by ``_settle``, as before round circles became two numbers.
    A full-row circle is never diagonal, so it has no integral."""
    assert count == 0
    axes, offset = [], 0
    for kind, _, n in _compact_layout(dm).axes:
        kind = "circle" if kind == "round" else kind
        axes.append((kind, offset, n))
        offset += 2 * n if kind == "circle" else 1
    return _Layout(tuple(axes))


def _settler(layout, modes):
    return lambda z: _settle(layout, z, modes, 1e-13, 1e6)


def _unsettled(z):
    return z


class _Counted:
    def __init__(self, rhs):
        self.rhs, self.calls = rhs, 0

    def __call__(self, t, z):
        self.calls += 1
        return self.rhs(t, z)


class TestStepPlan:
    @pytest.mark.parametrize("n", [31, 32, 64])
    def test_batched_fourier_rows_match_single_rows(self, n):
        rows = np.random.default_rng(n).standard_normal((2, n))
        low = lowpass(rows, 4)
        amps = mode_amplitudes(rows)
        for i in range(2):
            assert np.array_equal(low[i], lowpass(rows[i], 4))
            assert np.array_equal(amps[i], mode_amplitudes(rows[i]))

    def test_geometry_rhs_matches_axis_formulas(self):
        dm = _varying_product()
        layout = _Layout.of(dm)
        dz = _flow_rhs(layout, modes=16)(0.0, layout.pack(dm))
        ax = dm.axes[0]
        hess_f = ax.d2_vec(ax.f) - ax.christoffel * ax.fprime
        np.testing.assert_allclose(dz[:32], ax.a - 2.0 * hess_f, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(dz[32:64], 0.5 - hess_f / ax.a, rtol=0.0, atol=1e-12)
        assert dz[64] == dm.axes[1].scale - 1.0

    def test_four_evaluations_per_step(self):
        dm = _varying_product()
        layout = _Layout.of(dm)
        rhs, settle = _Counted(_flow_rhs(layout, modes=8)), _settler(layout, 8)
        z = layout.pack(dm)
        z, k1, _ = _array_steps(rhs, settle, layout.blocks, 1.0, 0.0, z, 1e-3, 1, rhs(0.0, z))
        assert rhs.calls == 5  # the first stage, then four per step
        z, k1, _ = _array_steps(rhs, settle, layout.blocks, 1.0, 1e-3, z, 1e-3, 1, k1)
        assert rhs.calls == 9
        assert np.array_equal(k1, _flow_rhs(layout, modes=8)(2e-3, z))  # the last stage is the next first

    def test_one_plan_evaluation_for_a_two_step_run(self, monkeypatch):
        # the round product steps as a list of floats in the list kernel: the
        # step plan gives only the first stage, and each kernel call hands
        # back its last stage, the rates at its state, as the next first
        counted, plan, kernel, handed = [], df.flow._flow_rhs, df.flow._list_steps, []

        def counting_plan(layout, modes):
            counted.append(_Counted(plan(layout, modes)))
            return counted[-1]

        def kept(*args, **kwargs):
            handed.append(kernel(*args, **kwargs))
            return handed[-1]

        monkeypatch.setattr(df.flow, "_flow_rhs", counting_plan)
        monkeypatch.setattr(df.flow, "_list_steps", kept)
        seen = _counting_steps(monkeypatch)
        fam = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)])
        df.run_flow(RunRequest(family=fam, horizon=0.002, dt=1e-3, cadence=1, k=1, resolution=16, modes=8))
        assert [rhs.calls for rhs in counted] == [1] and seen == [list] * 2
        layout = _Layout.of(df.discretize(df.evaluate_family(fam, 0.0), resolution=16), 1)
        for z, k1, _ in handed:
            assert k1 == plan(layout, 8)(0.0, np.array(z)).tolist()

    def test_step_plan_is_autonomous(self):
        # k4 and k5 of a step share the time t + h, so the estimate would miss a dependence on t
        dm = _varying_product()
        layout = _Layout.of(dm, 2)
        columns = np.random.default_rng(3).standard_normal((2, dm.shape[0]))
        z = np.concatenate([layout.pack(dm), [0.3], columns.ravel()])
        rhs = _flow_rhs(layout, modes=8)
        assert np.array_equal(rhs(0.0, z), rhs(0.73, z))

    @pytest.mark.parametrize("node", [5, 64])
    def test_breakdown_names_the_node(self, node):
        dm = _varying_product()
        layout = _Layout.of(dm)
        z = layout.pack(dm)
        z[node] = -0.1  # node 5 of the circle's a, or the Gaussian multiplier
        with pytest.raises(FlowBreakdownError) as info:
            _flow_rhs(layout, modes=8)(0.0, z)
        assert info.value.node_index == (5 if node == 5 else 0)


class TestStepPairs:
    @pytest.mark.parametrize("cadence", [2, 3])
    @pytest.mark.parametrize("steps", [2, 3, 5])
    def test_run_matches_successive_single_steps(self, steps, cadence):
        # cadence 3 puts an output after an odd step; the non-round circle puts
        # V in the state, beside the Gaussian line's integral
        dt = 2.0**-10
        req = RunRequest(
            family=_VaryingFamily(), horizon=steps * dt, dt=dt, cadence=cadence, k=2, resolution=32,
            hermite_order=6, modes=8,
        )
        traj = df.run_flow(req)
        dm0 = traj.manifolds[0]
        circle0, line0 = (cols[0] for cols in traj.scalar_factors)  # output 0's columns, the start
        layout = _Layout.of(dm0, len(circle0))
        assert layout.stepped == (0,) and layout.diagonal == (1,)
        rhs = _flow_rhs(layout, 8)
        vectors = [np.concatenate([layout.pack(dm0), [0.0], circle0.ravel()])]
        for i in range(steps):
            vectors.append(_settle(layout, _rk4(rhs, i * dt, vectors[-1], dt)[0], 8, 1e-13, 1e6))
        out_steps = sorted({steps, *range(0, steps + 1, cadence)})
        assert len(traj.times) == len(out_steps)
        for m, step in enumerate(out_steps):
            z = vectors[step]
            assert np.array_equal(layout.pack(traj.manifolds[m]), z[: layout.width])
            v = z[layout.start :].reshape(circle0.shape)
            got = _factor(layout, [v[None], line0], z[None, layout.width : layout.start], [step * dt])
            for cols, want in zip(traj.scalar_factors, got):
                assert np.array_equal(cols[m], want[0])

    def test_step_memory_stays_below_the_field_estimate(self):
        # the per-step term of _check_field_memory, 16 copies of the k + 1
        # fields, bounds a step of the kernel that _kernel picks and one
        # sub-stack of outputs that applies E: the array kernel's step carries
        # the non-round circle's columns V, the list kernel's step of round
        # axes no field; E acts on columns and holds less than one field per
        # output
        k = 3
        for family in (_PRODUCT, _LineTimesWavyCircleFamily()):
            request = RunRequest(family=family, horizon=1e-3, k=k, resolution=256, hermite_order=16, modes=32,
                                 adaptive_tol=1.0)
            dm = df.discretize(df.evaluate_family(family, 0.0), resolution=256, hermite_order=16)
            assert dm.shape == (16, 256)
            columns = [cols[1:] for cols in df.lowest_eigenpairs(df.assemble_forms(dm), k, 1e-8).columns]
            layout = _Layout.of(dm, k)
            assert layout.stepped == (() if family is _PRODUCT else (1,))
            z = np.concatenate([layout.pack(dm), np.zeros(len(layout.diagonal))] + [columns[i].ravel() for i in layout.stepped])
            advance, y, k1 = _kernel(request, layout, z)
            assert type(y) is (np.ndarray if layout.stepped else list)
            per_stack = _stack_length(dm.size, _loop_arrays(dm, k))  # the outputs of one sub-stack of E
            v = [np.stack([cols] * per_stack) if axis in layout.stepped else cols for axis, cols in enumerate(columns)]
            integrals, lags = np.full((per_stack, len(layout.diagonal)), 0.3), np.full(per_stack, 0.1)
            advance(0.0, y, 1e-3, 1, k1)  # warm the FFT plans
            _factor(layout, v, integrals, lags)
            peaks = []
            tracemalloc.start()
            try:
                for work in (lambda: advance(0.0, y, 1e-3, 1, k1), lambda: _factor(layout, v, integrals, lags)):
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    work()
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert max(peaks) < 8 * dm.size * 16 * (k + 1)
            assert per_stack > 1 and peaks[1] < 8 * dm.size * per_stack  # E on columns: less than one field each
            if not layout.stepped:
                assert peaks[0] < 8 * k * dm.size  # less than one copy of the batch


class TestIntegratingFactor:
    """Scalars u = E V with E = exp(s/2 - sum_i D_i C_i) over the diagonal axes
    (round circles and Gaussian lines), C_i the integral of c_i dt stepped
    with the geometry."""

    def test_matches_plain_rk4_of_the_drift_heat_equation(self):
        # an RK4 of u_t = L u + u/2 on drift_laplacian over the closed-form geometry
        fam = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)])
        req = RunRequest(family=fam, horizon=0.02, dt=1e-3, cadence=5, k=3, resolution=16, modes=8, hermite_order=8)
        traj = df.run_flow(req)

        def rhs(t, u):
            dm = df.discretize(df.evaluate_family(fam, t), resolution=16, hermite_order=8)
            return np.stack([df.drift_laplacian(dm, x) + 0.5 * x for x in u])

        u, h, plain = traj.scalar_fields(0), 1e-3, [traj.scalar_fields(0)]
        for step in range(20):
            u = _rk4(rhs, step * h, u, h)[0]
            if step % 5 == 4:
                plain.append(u)
        plain = np.stack(plain)
        fields = traj.scalar_fields(slice(None))
        assert float(np.max(np.abs(fields - plain))) <= 1e-12 * float(np.max(np.abs(plain)))

    def test_fast_circle_takes_one_step_per_step(self, monkeypatch):
        # a0 = 1e-3: dt k^2 / a reaches 1024 on the top mode, which RK4 stages
        # halved 69,964 times; E takes it exactly.  Its two scalars decay by
        # e^-95 and more below their mean's round-off, so their Gram matrix is
        # rank deficient.
        seen = _counting_steps(monkeypatch)
        req = RunRequest(family=df.round_circle_family(1e-3), horizon=0.1, k=2)
        with pytest.raises(DegeneracyError):
            df.run_flow(req)
        assert len(seen) == 100

    def test_stiff_circle_passes_the_propagator_record(self):
        req = RunRequest(family=df.round_circle_family(0.25), horizon=0.5, k=2, resolution=64)
        records = {c.name: c for c in check_functionals(df.run_flow(req))}
        assert records["scalar propagator"].passed
        assert records["scalar propagator"].value < 1e-12

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    def test_no_backend_calls_the_propagator(self, monkeypatch, backend):
        # both carry the columns by E, the analytic backend with closed-form
        # integrals, so the propagator check compares two computations
        def refuse(*args):
            raise AssertionError("the run called the modal propagator")

        monkeypatch.setattr(driftflow.oracles, "modal_propagator", refuse)
        monkeypatch.setattr(acceptance, "modal_propagator", refuse)
        fam = df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)])
        req = RunRequest(family=fam, horizon=0.01, dt=1e-3, cadence=5, k=2, resolution=16, modes=8, backend=backend)
        assert [cols.shape for cols in df.run_flow(req).scalar_factors] == [(3, 2, 12), (3, 2, 16)]

    def test_analytic_scalars_need_round_circles(self):
        # E carries a circle's columns by its Fourier modes, which only a round circle keeps
        req = RunRequest(family=_VaryingFamily(), horizon=0.01, k=2, resolution=16, hermite_order=6, modes=8,
                         backend="analytic")
        with pytest.raises(UsageError, match="the analytic backend's scalars need round circles"):
            df.run_flow(req)
        assert df.run_flow(dataclasses.replace(req, track_scalars=False)).scalar_factors is None

    @pytest.mark.parametrize("n", [16, 31, 48, 64, 100, 128])
    def test_round_circle_stays_exactly_round(self, n):
        # constants have exactly zero derivatives, and the cutoff and the
        # settle round trip keep full rows of equal samples equal, and equal
        # to the round circle's two numbers
        dm = df.weighted_circle(n, a=0.7, f=-3.1)
        for modes in sorted({n // 2, n // 4}):
            layout, compact = _full_row_layout(dm), _Layout.of(dm, 2)
            assert layout.circles == ((0, n),) and compact.diagonal == (0,) and not compact.stepped
            rhs, z = _flow_rhs(layout, modes), layout.pack(dm)
            two, y = _flow_rhs(compact, modes), np.concatenate([compact.pack(dm), [0.0]])
            for step in range(5):
                z = _settle(layout, _rk4(rhs, step * 1e-3, z, 1e-3)[0], modes, 1e-13, 1e6)
                y = _settle(compact, _rk4(two, step * 1e-3, y, 1e-3)[0], modes, 1e-13, 1e6)
                assert np.array_equal(z[:n], np.full(n, y[0])) and np.array_equal(z[n:], np.full(n, y[1]))
            assert y[-1] == pytest.approx((1.0 - math.exp(-5e-3)) / 0.7, rel=1e-13)  # C = int 1/a dt, a = 0.7 e^t

    def test_geometry_is_bitwise_the_same_without_scalars(self):
        # the scalars left the geometry's error norm
        fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])
        runs = [
            df.run_flow(RunRequest(family=fam, horizon=0.1, cadence=5, k=3, track_scalars=track))
            for track in (True, False)
        ]
        with_scalars, without = runs
        assert with_scalars.scalar_factors is not None and without.scalar_factors is None
        for m, (a, b) in enumerate(zip(with_scalars.manifolds, without.manifolds)):
            layout = _Layout.of(a)
            assert np.array_equal(layout.pack(a), layout.pack(b))
        for name in ("times", "eigenvalues", "eigen_residuals", "volumes", "bounds", "residual_commutator"):
            assert np.array_equal(getattr(with_scalars, name), getattr(without, name), equal_nan=True), name


def _gaussian_request(u0, horizon, **kw):
    kw = {"dt": 1e-3, "cadence": 10, "k": 1, "track_scalars": False, **kw}
    return RunRequest(family=df.scaled_gaussian_family(u0, 1, kw.pop("t0", 0.0)), horizon=horizon, **kw)


def _counting_steps(monkeypatch, errors=None, states=None):
    """Replace ``flow``'s step kernels by wrappers that record the state type
    of every step they attempt, halved ones included: a kernel call of
    ``count`` steps attempts all of them unless one raises, and each halving
    recurses through the kernel as a call of two steps, with ``depth`` by
    keyword.  Of each segment that ``_run_loop`` hands a kernel, ``errors``
    gets the worst estimate and ``states`` the entries of the state, as
    ``float.hex``."""
    seen = []

    def counted(kernel):
        def wrapper(*args, **kwargs):
            z, count = args[-4], args[-2]  # of (t, z, h, count, k1)
            seen.extend([type(z)] * count)
            kept = kernel(*args, **kwargs)
            if not kwargs:  # a segment of _run_loop, not a halving
                for record, value in ((errors, float(kept[2]).hex()), (states, _hex(kept[0]))):
                    if record is not None:
                        record.append(value)
            return kept

        return wrapper

    for name in ("_array_steps", "_float_steps", "_list_steps"):
        monkeypatch.setattr(df.flow, name, counted(getattr(df.flow, name)))
    return seen


class TestOneNumberState:
    """A geometry-only run of one Gaussian line steps its multiplier as a
    Python float, with the operations and bits of the one-element array."""

    @pytest.mark.parametrize(
        "family, track_scalars, state_type",
        [
            (df.scaled_gaussian_family(2.0, 1), False, float),
            (df.scaled_gaussian_family(2.0, 3), False, list),
            (df.scaled_gaussian_family(2.0, 1), True, list),
            (df.round_circle_family(2.0), False, list),
            (df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(3.0)]), False, list),
            (_WavyCircleFamily(), False, np.ndarray),
            (_VaryingFamily(), True, np.ndarray),  # a Gaussian line beside a non-round circle, V stepped
        ],
        ids=["one_line", "n3", "scalars", "circle", "product", "wavy_circle", "wavy_product_scalars"],
    )
    def test_float_form_exactly_for_one_number(self, monkeypatch, family, track_scalars, state_type):
        seen = _counting_steps(monkeypatch)
        df.run_flow(RunRequest(family=family, horizon=0.003, dt=1e-3, cadence=1, k=1, resolution=16, modes=8,
                               hermite_order=6, track_scalars=track_scalars))
        assert seen == [state_type] * 3


def _round_request(family, horizon, **kw):
    kw = {"dt": 1e-3, "cadence": 1, "k": 2, **kw}
    return RunRequest(family=family, horizon=horizon, **kw)


_PRODUCT = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])


def _loop_record(monkeypatch, request, layout_of=_compact_layout):
    """``_run_loop``'s stack of outputs for ``request`` on the layout that
    ``layout_of`` gives, and of each segment between outputs the entries of
    its state and its worst estimate as ``float.hex``, and the count of
    steps attempted, halvings included (``_counting_steps``)."""
    dm = df.discretize(
        df.evaluate_family(request.family, request.family.t0),
        resolution=request.resolution, hermite_order=request.hermite_order,
    )
    columns0 = None
    if request.track_scalars:
        columns0 = [cols[1:] for cols in df.lowest_eigenpairs(df.assemble_forms(dm), request.k).columns]
    layout, (dt, steps) = layout_of(dm, 0 if columns0 is None else request.k), df.flow._output_steps(request)
    states, errors = [], []
    with monkeypatch.context() as patch:
        seen = _counting_steps(patch, errors, states)
        rows = _run_loop(request, layout, dm, columns0, dt, steps)[0]
    return layout.stack(rows, request.family.t0 + np.array(steps) * dt), states, errors, len(seen)


class TestRoundCircleState:
    """A round circle is two numbers, a and f, in the integrator state; its
    full rows of 2n equal samples give the same bits."""

    @pytest.mark.parametrize(
        "request_",
        [
            _round_request(df.round_circle_family(1.0), 0.3),  # C04's circle
            _round_request(_PRODUCT, 0.1, cadence=5),  # product_scalars' geometry
            _round_request(df.round_circle_family(0.25), 0.05, resolution=331, modes=165),  # a Bluestein size
            _round_request(_PRODUCT, 0.3, cadence=2, modes=8),  # below n // 2, where full-row stages call lowpass
            _round_request(df.round_circle_family(1.0), 0.05, dt=0.01, adaptive_tol=1e-14),  # halves
        ],
        ids=["c04", "product_scalars", "bluestein_331", "modes_8", "halving"],
    )
    def test_compact_steps_match_full_rows_bitwise(self, monkeypatch, request_):
        # geometry only: a full-row circle has no integral, and the kernel
        # table checks the integrals of the compact state
        request_ = dataclasses.replace(request_, track_scalars=False)
        full, _, full_errors, full_calls = _loop_record(monkeypatch, request_, _full_row_layout)
        got, _, errors, calls = _loop_record(monkeypatch, request_)
        assert calls == full_calls and errors == full_errors  # the same steps, halvings and worst estimates
        assert len(got) == len(full) == len(df.flow._output_steps(request_)[1])
        assert np.array_equal(got.t, full.t)
        for ax, ax_full in zip(got.axes, full.axes):
            assert np.array_equal(ax.a, ax_full.a) and np.array_equal(ax.f, ax_full.f)
        if request_.adaptive_tol == 1e-14:
            assert calls > request_.steps  # the step control halved

    @pytest.mark.parametrize("n", [16, 31, 331, 1024])
    def test_a_round_circle_takes_two_entries(self, n):
        layout = _Layout.of(df.weighted_circle(n, a=0.7, f=-3.1), 2)
        assert layout.axes == (("round", 0, n),) and layout.width == 2 and layout.circles == ()
        assert layout.diagonal == (0,) and not layout.stepped and layout.start == 3  # after its integral

    @pytest.mark.parametrize("row", [0, 1])
    def test_one_differing_sample_keeps_full_rows(self, row):
        n = 32
        rows = [np.full(n, 0.7), np.full(n, -3.1)]
        rows[row][5] = np.nextafter(rows[row][5], np.inf)
        layout = _Layout.of(df.DiscreteWeightedManifold([driftflow.axes.CircleAxis(*rows)]), 2)
        assert layout.axes == (("circle", 0, n),) and layout.width == 2 * n and layout.circles == ((0, n),)
        assert layout.diagonal == () and layout.stepped

    def test_a_gaussian_line_takes_one_entry(self):
        assert _Layout.of(df.gaussian_line(2.0)).width == 1
        dm = df.discretize(df.evaluate_family(df.scaled_gaussian_family(1.5, 3), 0.0), hermite_order=6)
        assert [kind for kind, _, _ in _Layout.of(dm).axes] == ["hermite"] * 3 and _Layout.of(dm).width == 3

    def test_stepping_takes_no_transform_and_no_derivative_matrix(self, monkeypatch):
        # modes 8 < 32 = n // 2, where full rows took a lowpass per stage; the
        # step plan builds no derivative pair, and the steps transform nothing
        calls, stepping = [], [False]

        def counted(name, call, always=False):
            def wrapper(*args, **kwargs):
                if stepping[0] or always:
                    calls.append(name)
                return call(*args, **kwargs)

            return wrapper

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        monkeypatch.setattr(df.flow, "_fourier_dense", counted("_fourier_dense", df.flow._fourier_dense, True))
        monkeypatch.setattr(df.flow, "lowpass", counted("lowpass", df.flow.lowpass, True))

        def stepped(kernel):
            def wrapper(*args, **kwargs):
                stepping[0] = True
                try:
                    return kernel(*args, **kwargs)
                finally:
                    stepping[0] = False

            return wrapper

        for name in ("_array_steps", "_float_steps", "_list_steps"):
            monkeypatch.setattr(df.flow, name, stepped(getattr(df.flow, name)))
        seen = _counting_steps(monkeypatch)
        for family in (df.round_circle_family(1.0), _PRODUCT):
            traj = df.run_flow(_round_request(family, 0.01, cadence=5, k=2, modes=8))
            assert traj.scalar_factors is not None and len(traj.times) == 3
        assert calls == [] and seen == [list] * 20

    def test_a_round_product_with_scalars_keeps_no_batch(self, monkeypatch):
        dm = df.discretize(df.evaluate_family(_PRODUCT, 0.0))
        layout = _Layout.of(dm, 3)
        assert [kind for kind, _, _ in layout.axes] == ["hermite", "round"]
        assert not layout.stepped and layout.diagonal == (0, 1) and layout.start == 5
        sizes, kernel = [], df.flow._list_steps

        def sized(*args, **kwargs):
            sizes.extend([len(args[-4])] * args[-2])  # of (t, z, h, count, k1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(df.flow, "_list_steps", sized)
        df.run_flow(_round_request(_PRODUCT, 0.003, k=3))
        assert sizes == [5] * 3  # the multiplier, a, f and two integrals


_SHRINKER = df.product_family([df.scaled_gaussian_family(0.6, 1, -0.3), df.round_circle_family(1.0, -0.3)])


class TestListState:
    """A state without a full-row circle, a few numbers, is stepped as a list
    of Python floats by the list kernel, each entry its own error block; the
    kernel table (``TestStepKernels``) checks its bits."""

    def test_each_entry_is_its_own_error_block(self, monkeypatch):
        # the list norm reads no blocks: it holds only where every entry is one
        families = [df.round_circle_family(1.0), _PRODUCT] + [df.scaled_gaussian_family(1.5, n) for n in (1, 2, 3, 4)]
        for family in families:
            dm = df.discretize(df.evaluate_family(family, 0.0), resolution=16, hermite_order=4)
            for count in (0, 2):
                layout = _Layout.of(dm, count)
                assert not layout.circles and not layout.stepped
                assert layout.blocks == list(range(layout.start))
        # a circle that is not round, and one beside a Gaussian line with V stepped, stay arrays
        for family, track in ((_WavyCircleFamily(), False), (_VaryingFamily(), True)):
            assert _Layout.of(df.discretize(family.evaluate(0.0), resolution=16, hermite_order=6), 2).circles
            with monkeypatch.context() as patch:
                seen = _counting_steps(patch)
                traj = df.run_flow(RunRequest(family=family, horizon=0.002, dt=1e-3, cadence=1, k=2, resolution=16,
                                              modes=8, hermite_order=6, track_scalars=track))
            assert seen == [np.ndarray] * 2 and (traj.scalar_factors is not None) == track


def _hex(z):
    """The entries of a float, list or array state as ``float.hex``."""
    return [x.hex() for x in np.atleast_1d(z).tolist()]


def _start(request):
    """The layout and start vector of a Galerkin run, as ``_run_loop`` builds them."""
    dm = df.discretize(df.evaluate_family(request.family, request.family.t0), resolution=request.resolution,
                       hermite_order=request.hermite_order)
    layout = _Layout.of(dm, request.k if request.track_scalars else 0)
    parts = [layout.pack(dm), np.zeros(len(layout.diagonal))]
    if layout.stepped:
        columns = df.lowest_eigenpairs(df.assemble_forms(dm), request.k).columns
        parts += [columns[axis][1:].ravel() for axis in layout.stepped]
    return layout, np.concatenate(parts)


def _reference_steps(request, layout, z, attempts):
    """The per-step reference of a run's kernel from the start ``z`` of
    ``_start``, written apart from the kernels: a plain loop of ``_rk4`` on
    the array, ``_settle`` as ``_kernel`` settles full rows, the estimate
    h/6 max |k4 - k5| and above the tolerance the largest over the error
    blocks of their max |k4 - k5| / max(1, max |z1|), and a step above the
    tolerance redone as two of h / 2, at most 12 times over.  Yields after
    each step its state, its first stage and its estimate as ``float.hex``;
    ``attempts`` gets the depth of each step tried, halvings included."""
    rhs, t0, tol = _flow_rhs(layout, request.modes), request.family.t0, request.adaptive_tol
    threshold = df.flow.STABILITY_FACTOR * (1.0 + float(np.max(np.abs(z[: layout.width]))))
    blocks = list(zip(layout.blocks, layout.blocks[1:] + [len(z)]))

    def step(t, z, h, k1, depth):
        attempts.append(depth)
        z1, k4 = _rk4(rhs, t, z, h, k1)
        z1 = _settle(layout, z1, request.modes, df.flow.NOISE_FLOOR, threshold)
        k5 = rhs(t + h, z1)
        diff = np.abs(k4 - k5)
        err = h / 6.0 * float(np.max(diff))
        if err > tol:
            relative = [np.max(diff[lo:hi]) / max(1.0, np.max(np.abs(z1[lo:hi]))) for lo, hi in blocks]
            err = h / 6.0 * float(np.max(relative))
        if err <= tol:
            return z1, k5, err
        if depth == 12:
            raise StabilityError(f"step error {err:.3e} persists after 12 halvings")
        half, k_half, first = step(t, z, h / 2, k1, depth + 1)
        z1, k5, second = step(t + h / 2, half, h / 2, k_half, depth + 1)
        return z1, k5, max(first, second)

    dt, k1 = df.flow._output_steps(request)[0], rhs(t0, z)
    for s in range(request.steps):
        z, k1, err = step(t0 + s * dt, z, dt, k1, 0)
        yield _hex(z), _hex(k1), float(err).hex()


_WAVY_CIRCLE = {"family": _WavyCircleFamily(), "k": 1, "resolution": 16, "modes": 8, "track_scalars": False}
_WAVY_PRODUCT = {"family": _VaryingFamily(), "k": 2, "resolution": 16, "modes": 8, "hermite_order": 6}

# A run, and the steps it attempts, halvings included.
_KERNEL_CASES = {
    "circle": (_round_request(df.round_circle_family(1.0), 0.05, track_scalars=False), 50),
    "circle_k2": (_round_request(df.round_circle_family(1.0), 0.05, k=2), 50),
    "product_k3": (_round_request(_PRODUCT, 0.05, cadence=5, k=3), 50),
    "n3": (_round_request(df.scaled_gaussian_family(1.5, 3), 0.05, cadence=5, k=3, hermite_order=8), 50),
    "n4": (_round_request(df.scaled_gaussian_family(1.5, 4), 0.02, cadence=5, k=2, hermite_order=4), 20),
    "halving": (_round_request(_PRODUCT, 0.2, dt=0.05, k=1, adaptive_tol=1e-12), 252),
    "relative": (_round_request(df.round_circle_family(1e8), 0.2, dt=0.05, k=1, adaptive_tol=1e-14), 508),
    "halving_in_a_segment": (
        _round_request(df.round_circle_family(1e8), 0.2, dt=0.05, cadence=3, k=1, adaptive_tol=1e-14), 508
    ),
    "t0_shift": (_round_request(_SHRINKER, 0.1, cadence=10, k=1), 100),
    "horizon_0": (_round_request(_PRODUCT, 0.0, k=1), 0),
    "eternal": (_gaussian_request(2.0, 5.0, cadence=50), 5000),
    "float_halving_in_a_segment": (_gaussian_request(3.0, 0.2, dt=0.05, cadence=3, adaptive_tol=1e-12), 124),
    "float_halving_small": (_gaussian_request(0.6, 0.5, dt=0.05, cadence=1, adaptive_tol=1e-12), 310),
    "float_relative": (_gaussian_request(1e8, 0.5, dt=0.05, cadence=1, adaptive_tol=1e-14), 1270),
    "float_t0_shift": (_gaussian_request(2.0, 1.0, t0=-100.0), 1000),
    "wavy_circle": (RunRequest(horizon=0.005, dt=1e-3, cadence=2, **_WAVY_CIRCLE), 5),
    "wavy_circle_halving": (RunRequest(horizon=0.003, dt=1e-3, cadence=2, adaptive_tol=1e-13, **_WAVY_CIRCLE), 45),
    "wavy_product_scalars": (RunRequest(horizon=0.004, dt=1e-3, cadence=3, **_WAVY_PRODUCT), 4),
    "wavy_product_halving": (RunRequest(horizon=0.002, dt=1e-3, cadence=2, adaptive_tol=1e-12, **_WAVY_PRODUCT), 14),
}

_FULL_ROW_LAYOUTS = {"full_row_circle": df.round_circle_family(1.0), "full_row_product": _PRODUCT}


def _layout_case(name):
    """(layout, start vector, modes) of a layout the flow tests step: a run
    of the kernel table, or the full-row layout of a round circle or of a
    Gaussian x round circle product."""
    if name in _KERNEL_CASES:
        request_ = _KERNEL_CASES[name][0]
        return (*_start(request_), request_.modes)
    dm = _manifold(_FULL_ROW_LAYOUTS[name], resolution=32)
    layout = _full_row_layout(dm)
    return layout, layout.pack(dm), 8


class TestFlowRhsWritesEverySlot:
    """``_flow_rhs`` starts its result from ``np.empty_like``, so each stage
    must write every slot of the state: geometry, integrals and V."""

    @pytest.mark.parametrize("name", [*_KERNEL_CASES, *_FULL_ROW_LAYOUTS])
    def test_no_slot_keeps_the_buffer(self, monkeypatch, name):
        layout, z, modes = _layout_case(name)
        empty_like = np.empty_like

        def nan_like(*args, **kwargs):
            out = empty_like(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty_like", nan_like)
        assert np.isnan(np.empty_like(z)).all()
        dz = _flow_rhs(layout, modes)(0.0, z)
        assert dz.shape == z.shape and not np.isnan(dz).any()

    def test_no_layout_names_a_full_row_circle_diagonal(self):
        # everything but the axes and the scalar count follows from them
        layout = _Layout((("circle", 0, 8), ("hermite", 16, 6), ("round", 17, 8)), 2)
        assert (layout.width, layout.shape, layout.circles) == (19, (8, 6, 8), ((0, 8),))
        assert layout.diagonal == (1, 2) and layout.stepped and layout.start == 21
        assert _Layout((("round", 0, 8),), 2).diagonal == (0,) and not _Layout((("round", 0, 8),), 2).stepped
        assert _Layout((("round", 0, 8),)).diagonal == ()


# Two hand-built full-row rows of the kernel table, with the sha256 of
# their states' entries at the outputs (geometry rows, integrals and V) as
# ``float.hex``, one line per output, and each output's worst estimate, as
# the array kernel gave them before it stepped inline: a change to the array
# path keeps these bits.
_PINNED_RUNS = {
    # the state's V is the circle's (k, n) columns, so its digest is not that
    # of the (k, *shape) grid batch it replaced; its geometry, its error
    # estimates and its steps are
    "wavy_product_scalars": (
        "13aafebc1f7fa913daa2f881e6142543ce90fd51505a6d577ae4c905e20f8aa5",
        ["0x0.0p+0", "0x1.b4bcbe5b7a328p-35", "0x1.d183bf900aec3p-35"],
    ),
    "wavy_circle_halving": (
        "2a21914ba711172440a18b9baa5e98e1206dc1f04218a7456b4ea30ba41b9087",
        ["0x0.0p+0", "0x1.ba39bfd44f307p-47", "0x1.d706402bb0cf8p-47"],
    ),
}


class TestStepKernels:
    """``_run_loop`` advances from one output to the next with one call of
    the run's kernel (``_kernel``): the array, float and list kernels each
    keep the bits of the per-step reference, its steps and its halvings."""

    @pytest.mark.parametrize("request_, attempts", list(_KERNEL_CASES.values()), ids=list(_KERNEL_CASES))
    def test_kernel_matches_the_per_step_reference(self, monkeypatch, request_, attempts):
        layout, z = _start(request_)
        tried = []
        expected = list(_reference_steps(request_, layout, z, tried))
        assert len(tried) == attempts
        t0, (dt, recorded) = request_.family.t0, df.flow._output_steps(request_)
        rhs = _flow_rhs(layout, request_.modes)
        with monkeypatch.context() as patch:
            seen = _counting_steps(patch)
            advance, y, k1 = _kernel(request_, layout, z)
            assert (_hex(y), _hex(k1)) == (_hex(z), _hex(rhs(t0, z)))
            done = 0
            for step in recorded:  # one call per output: the state and first stage at each
                y, k1, err = advance(t0 + done * dt, y, dt, step - done, k1)
                assert (_hex(y), _hex(k1)) == (expected[step - 1][:2] if step else (_hex(z), _hex(rhs(t0, z))))
                worst = max([float.fromhex(e) for _, _, e in expected[done:step]], default=0.0)
                assert err == worst  # the worst estimate of the segment
                done = step
        assert len(seen) == attempts  # the same steps and halvings
        assert set(seen) <= {np.ndarray if layout.circles else float if z.size == 1 else list}
        advance, y, k1 = _kernel(request_, layout, z)
        for s, record in enumerate(expected):  # one call per step: each step's estimate
            y, k1, err = advance(t0 + s * dt, y, dt, 1, k1)
            assert (_hex(y), _hex(k1), float(err).hex()) == record
        if request_.dt == 0.05 or request_.adaptive_tol < 1e-9 and request_.dt == 1e-3:
            assert attempts > request_.steps  # the step control halved

    @pytest.mark.parametrize("name", [name for name in _KERNEL_CASES if not name.startswith("wavy")])
    def test_float_and_list_kernels_keep_the_array_kernels_bits(self, monkeypatch, name):
        # the same numbers stepped as an array, with the layout's error blocks
        request_, attempts = _KERNEL_CASES[name]
        layout, z = _start(request_)
        assert not layout.circles
        rhs, t0, (dt, recorded) = _flow_rhs(layout, request_.modes), request_.family.t0, df.flow._output_steps(request_)
        runs = []
        for as_array in (False, True):
            with monkeypatch.context() as patch:
                seen, record, done = _counting_steps(patch), [], 0  # the kernels are bound after they are counted
                advance, y, k1 = _kernel(request_, layout, z)
                if as_array:
                    advance, y, k1 = functools.partial(df.flow._array_steps, rhs, _settler(layout, request_.modes),
                                                       layout.blocks, request_.adaptive_tol), z, rhs(t0, z)
                for step in recorded:
                    y, k1, err = advance(t0 + done * dt, y, dt, step - done, k1)
                    record.append((_hex(y), _hex(k1), float(err).hex()))
                    done = step
            runs.append((record, len(seen)))
        assert runs[0] == runs[1] and runs[1][1] == attempts

    @pytest.mark.parametrize("name", list(_PINNED_RUNS))
    def test_the_array_kernel_keeps_its_bits(self, monkeypatch, name):
        (request_, attempts), (digest, errors) = _KERNEL_CASES[name], _PINNED_RUNS[name]
        outputs, states, got, calls = _loop_record(monkeypatch, request_)
        assert type(outputs.axes[0]) is driftflow.axes.CircleAxis and outputs.axes[0].a.shape[1] == 16  # full rows
        assert hashlib.sha256("\n".join(" ".join(state) for state in states).encode()).hexdigest() == digest
        assert got == errors and calls == attempts

    @pytest.mark.parametrize("line_first", [True, False, None])  # None: the line alone, a float
    def test_breakdown_in_the_middle_of_a_segment(self, line_first):
        # u0 = 0.5 dies at log 2, within the segment of steps 600 to 700
        factors = [df.scaled_gaussian_family(0.5, 1), df.round_circle_family(1.0)]
        request_ = (_gaussian_request(0.5, 1.0, cadence=100) if line_first is None else
                    _round_request(df.product_family(factors if line_first else factors[::-1]), 1.0, cadence=100, k=1))
        layout, z = _start(request_)
        expected = []
        with pytest.raises(FlowBreakdownError) as reference_info:
            for record in _reference_steps(request_, layout, z, []):
                expected.append(record)
        broken, cadence, dt = len(expected), request_.cadence, request_.dt  # steps kept before the breakdown
        assert 0 < broken < request_.steps and broken % cadence != 0
        advance, y, k1 = _kernel(request_, layout, z)
        for done in range(0, broken - broken % cadence, cadence):
            y, k1, _ = advance(done * dt, y, dt, cadence, k1)
            assert (_hex(y), _hex(k1)) == expected[done + cadence - 1][:2]
        with pytest.raises(FlowBreakdownError) as info:
            advance(broken * dt, y, dt, cadence, k1)
        advance, y, k1 = _kernel(request_, layout, z)
        for s in range(broken):
            y, k1, _ = advance(s * dt, y, dt, 1, k1)
        with pytest.raises(FlowBreakdownError):
            advance(broken * dt, y, dt, 1, k1)  # the same step breaks down
        assert info.value.node_index == reference_info.value.node_index == 0

    @pytest.mark.parametrize("n", [1, 2, None])  # n Gaussian lines, or None: the wavy circle
    def test_a_nan_entry_gives_up_after_twelve_halvings(self, monkeypatch, n):
        # the last entry is NaN, and so is its rate: the second of two on a
        # list, and the circle's last f sample on an array, which NaN spreads over
        request_ = (RunRequest(horizon=0.05, dt=0.01, cadence=5, **_WAVY_CIRCLE) if n is None else
                    _round_request(df.scaled_gaussian_family(1.0, n), 0.05, dt=0.01, cadence=5, track_scalars=False))
        layout, z = _start(request_)
        z[-1] = math.nan
        with pytest.raises(StabilityError) as reference_info:
            list(_reference_steps(request_, layout, z, []))
        seen = _counting_steps(monkeypatch)
        advance, y, k1 = _kernel(request_, layout, z)
        assert type(y) is {1: float, 2: list, None: np.ndarray}[n]
        with pytest.raises(StabilityError) as info:
            advance(0.0, y, 0.01, 5, k1)
        assert str(info.value) == str(reference_info.value) == "step error nan persists after 12 halvings"
        assert len(seen) == 5 + 2 * 12  # the five steps asked, then two per halving


def _stage_formulas(n, a, f):
    """The circle rows of a stage, computed as the stage computes them."""
    ops = _fourier_dense(n)
    fprime = ops["d1"] @ (f - f[0])
    gamma = ops["d1"] @ (a - a[0]) / (2.0 * a)
    hess_f = ops["d2"] @ (f - f[0]) - gamma * fprime
    return np.stack((a - 2.0 * hess_f, 0.5 - hess_f / a))


def _wavy_a(th):
    return 1.0 + 0.2 * np.cos(th) + 0.05 * np.sin(13 * th)


def _wavy_f(th):
    return 0.3 * np.sin(2 * th) + 0.01 * np.cos(14 * th)


class TestStageProjection:
    @pytest.mark.parametrize("n, modes", [(64, 8), (32, 15), (31, 14)])
    def test_below_nyquist_the_stage_is_the_lowpass_of_the_formulas(self, n, modes):
        layout, z = _circle_z(n, _wavy_a, _wavy_f)
        a, f = z[:n], z[n:]
        rows = _flow_rhs(layout, modes)(0.0, z).reshape(2, n)
        formulas = _stage_formulas(n, a, f)
        assert np.array_equal(rows, lowpass(formulas, modes))
        assert float(np.max(mode_amplitudes(formulas)[:, modes + 1 :])) > 1e-3  # the cutoff has work to do
        assert float(np.max(mode_amplitudes(rows)[:, modes + 1 :])) < 1e-15

    @pytest.mark.parametrize("n", [64, 32, 31])
    def test_at_nyquist_the_stage_writes_the_formulas(self, n):
        layout, z = _circle_z(n, _wavy_a, _wavy_f)
        a, f = z[:n], z[n:]
        rows = _flow_rhs(layout, n // 2)(0.0, z).reshape(2, n)
        assert np.array_equal(rows, _stage_formulas(n, a, f))

    @pytest.mark.parametrize("track_scalars", [False, True])
    def test_a_cutoff_at_or_past_nyquist_keeps_every_mode(self, track_scalars):
        # at modes = n // 2 the grid is the truncation: no stage projects and
        # _settle zeroes nothing above the cutoff, so a larger cutoff is the same run
        runs = [df.run_flow(RunRequest(horizon=0.006, dt=1e-3, cadence=2, **{**_WAVY_PRODUCT, "modes": modes},
                                       track_scalars=track_scalars))
                for modes in (8, 16)]
        assert runs[0].manifolds.axes[0].kind == "circle" and not runs[0].manifolds.axes[0].is_round
        for name in ("times", "eigenvalues", "eigen_residuals", "volumes", "residual_commutator", "residual_ij"):
            assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
        for ax, same in zip(runs[0].manifolds.axes, runs[1].manifolds.axes):
            assert ax.a.tobytes() == same.a.tobytes() and ax.f.tobytes() == same.f.tobytes()
        for name, value in runs[0].series.items():
            assert value.tobytes() == runs[1].series[name].tobytes(), name
        for cols, same in zip(runs[0].scalar_factors or (), runs[1].scalar_factors or ()):
            assert cols.tobytes() == same.tobytes()

    def test_two_ffts_per_kept_step(self, monkeypatch):
        layout, z = _circle_z(64, _wavy_a, _wavy_f)
        rhs = _flow_rhs(layout, 32)
        calls = []

        def counted(name, fft):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fft(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
        _array_steps(rhs, _settler(layout, 32), layout.blocks, 1.0, 0.0, z, 1e-3, 1, rhs(0.0, z))
        assert calls == ["rfft", "irfft"]


class TestSafeguardsFire:
    def test_settle_cuts_modes_above_the_cutoff(self):
        layout, z = _circle_z(32, lambda th: 1.0 + 0.1 * np.cos(10 * th), lambda th: 0.1 * np.cos(2 * th))
        out = _settle(layout, z, modes=4, floor=1e-13, threshold=1e6)
        assert float(np.max(mode_amplitudes(out[:32])[5:])) < 1e-17
        assert float(np.max(np.abs(out[32:] - z[32:]))) < 1e-16
        assert mode_amplitudes(z[:32])[10] == pytest.approx(0.05)  # the input is left alone

    def test_settle_zeroes_coefficients_below_the_noise_floor(self):
        def a(th):
            return 2.0 + 1e-14 * np.cos(3 * th) + 1e-10 * np.cos(5 * th)

        layout, z = _circle_z(32, a, lambda th: np.zeros_like(th))
        kept = mode_amplitudes(_settle(layout, z, modes=16, floor=0.0, threshold=1e6)[:32])
        settled = mode_amplitudes(_settle(layout, z, modes=16, floor=1e-13, threshold=1e6)[:32])
        assert kept[3] == pytest.approx(5e-15, rel=0.1)
        assert settled[3] < 1e-18
        assert settled[5] == pytest.approx(5e-11, rel=1e-4)

    def test_mode_energy_monitor_reports_the_metric_row_first(self):
        layout, z = _circle_z(32, lambda th: 1.0 + 0.02 * np.cos(th), lambda th: 0.2 * np.cos(th))
        message = (
            r"^circle mode energy 1\.000e-02 exceeds threshold 1\.000e-03; "
            r"use a shorter horizon or a lower mode cutoff$"
        )
        with pytest.raises(StabilityError, match=message):
            _settle(layout, z, modes=16, floor=1e-13, threshold=1e-3)

    def test_step_pair_halves_on_a_stiff_rhs(self):
        # two successive steps, each halved
        rhs = _Counted(lambda t, z: -50.0 * z)
        z = np.ones(1)
        z, _, err = _array_steps(rhs, _unsettled, [0], 1e-9, 0.0, z, 0.05, 2, rhs(0.0, z))
        assert err <= 1e-9  # the worst of the two
        assert rhs.calls > 11
        assert abs(z[0] - math.exp(-5.0)) < 1e-9

    def test_single_step_halves_on_a_stiff_rhs(self):
        rhs = _Counted(lambda t, z: -50.0 * z)
        z, _, _ = _array_steps(rhs, _unsettled, [0], 1e-9, 0.0, np.ones(1), 0.05, 1, -50.0 * np.ones(1))
        assert rhs.calls > 11
        assert abs(z[0] - math.exp(-2.5)) < 1e-7

    def test_step_doubling_gives_up_after_twelve_halvings(self):
        # k4 and k5 share their time, so a jump in t would not show in the
        # estimate; a rate that even a step of 0.05 / 2**12 cannot follow does
        with pytest.raises(StabilityError, match="persists after 12 halvings"):
            _array_steps(lambda t, z: -1e12 * z, _unsettled, [0], 1e-9, 0.0, np.ones(1), 0.05, 1, np.full(1, -1e12))

    @pytest.mark.parametrize("h", [0.05, 0.02, 0.01])
    def test_estimate_bounds_the_true_local_error(self, h):
        z, _, err = _array_steps(lambda t, z: -5.0 * z, _unsettled, [0], 1.0, 0.0, np.ones(1), h, 1, np.full(1, -5.0))
        assert err >= abs(z[0] - math.exp(-5.0 * h))

    def test_block_scales_keep_a_large_block_from_halving(self):
        # the plain estimate of u' = -5u from u = 1e8 exceeds the tolerance,
        # its estimate relative to max |u| does not
        rhs = _Counted(lambda t, z: -5.0 * z)
        z = np.array([1e8, 1.0])
        z, _, err = _array_steps(rhs, _unsettled, [0, 1], 1e-9, 0.0, z, 0.002, 1, rhs(0.0, z))
        assert rhs.calls == 5
        assert 1e-11 < err <= 1e-9

    def test_a_block_below_one_keeps_its_absolute_estimate(self):
        # max(1, max |z1|) scales a block: a fast block of size 1/2 beside a
        # large slow one is not scaled up to its relative estimate, twice
        # its absolute one, which would halve
        rates = np.array([-5.0, -20.0])
        _, _, unit = _array_steps(lambda t, z: rates[1:] * z, _unsettled, [0], 1.0, 0.0, np.ones(1), 0.01, 1, rates[1:])
        rhs = _Counted(lambda t, z: rates * z)
        z = np.array([1e8, 0.5])
        _, _, err = _array_steps(rhs, _unsettled, [0, 1], 0.75 * unit, 0.0, z, 0.01, 1, rhs(0.0, z))
        assert rhs.calls == 5
        assert err == pytest.approx(0.5 * unit, rel=1e-12)


def _bits(result, m=None):
    """The bytes of the eigenvalues, eigenfunctions and residuals of a
    one-output solve, or of output m of a stacked one."""
    arrays = (result.eigenvalues, result.eigenfunctions, result.residuals)
    return tuple((arr if m is None else arr[m]).tobytes() for arr in arrays)


def _full_rows(monkeypatch):
    monkeypatch.setattr(df.flow._Layout, "of", classmethod(lambda cls, dm, count=0: _full_row_layout(dm, count)))


class TestStackedOutputPass:
    """A run solves its outputs' spectra and commutator residuals in stacks
    over a leading output axis (one loop of ``run_flow``), each output in the
    bits of its own one-output solve."""

    @pytest.mark.parametrize(
        "request_, patch, stacks",
        [
            (RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=1.0, cadence=10, k=1, track_scalars=False),
             None, 1),
            (RunRequest(family=_PRODUCT, horizon=0.05, cadence=5, k=3, resolution=32), None, 1),
            (RunRequest(family=_PRODUCT, horizon=0.05, cadence=5, k=3, resolution=32, backend="analytic"), None, 1),
            (RunRequest(family=_VaryingFamily(), horizon=0.01, k=2, resolution=32, hermite_order=6, modes=8,
                        track_scalars=False), None, 1),
            (RunRequest(family=df.round_circle_family(1.0), horizon=0.1, cadence=1, k=2, track_scalars=False),
             _full_rows, 1),
            (RunRequest(family=_PRODUCT, horizon=0.08, cadence=5, k=1, resolution=512, track_scalars=False), None, 5),
        ],
        ids=["eternal_like", "round_product", "analytic", "non_round_circle", "full_row_circle", "several_stacks"],
    )
    def test_every_output_has_the_bits_of_its_own_solve(self, monkeypatch, recorded_solves, request_, patch, stacks):
        if patch:
            patch(monkeypatch)
        traj = df.run_flow(request_)
        points, count = traj.manifolds[0].size, len(traj.times)
        assert len(range(0, count, _stack_length(points, _loop_arrays(traj.manifolds, request_.k)))) == stacks
        # the solve that seeds the run, then one stacked solve per stack of outputs 0, 1, ...
        first, *stacked = recorded_solves
        assert len(stacked) == stacks and all(stack.eigenfunctions.shape[0] == len(stack.t) for stack in stacked)
        solved = [_bits(stack, i) for stack in stacked for i in range(len(stack.t))]
        assert solved[0] == _bits(first)
        probe = first.eigenfunctions[1]
        for m, dm in enumerate(traj.manifolds):
            alone = df.lowest_eigenpairs(df.assemble_forms(dm), request_.k, request_.eig_tol)
            assert solved[m] == _bits(alone)
            assert (traj.eigenvalues[m].tobytes(), traj.eigen_residuals[m].tobytes()) == _bits(alone)[::2]
            assert df.commutator_residual(probe, traj.manifolds, [m])[0] == traj.residual_commutator[m]
        if patch:
            assert all(ax.kind == "circle" and ax.is_round for dm in traj.manifolds for ax in dm.axes)

    def test_an_output_keeps_its_bits_in_any_stack(self):
        req = RunRequest(family=_PRODUCT, horizon=0.03, cadence=5, k=3, resolution=32, track_scalars=False)
        traj = df.run_flow(req)
        probe = _eigenfunctions(traj, 0)[1]
        whole = df.lowest_eigenpairs(df.assemble_forms(traj.manifolds), 3)
        assert len(traj.manifolds) == 7 and np.array_equal(whole.t, traj.times)
        assert whole.eigenvalues.shape == whole.residuals.shape == (7, 4)
        assert isinstance(whole.eigenfunctions, np.ndarray) and whole.eigenfunctions.shape == (7, 4, 12, 32)
        for grouping in ([[m] for m in range(7)], [[6, 5, 4, 3, 2, 1, 0]], [[0, 3], [5, 1, 2], [4, 6]]):
            for group in grouping:
                got = df.lowest_eigenpairs(df.assemble_forms(traj.manifolds[group]), 3)
                assert all(_bits(got, i) == _bits(whole, m) for i, m in enumerate(group))
                got = df.commutator_residual(probe, traj.manifolds, group)
                assert np.array_equal(got, traj.residual_commutator[group])

    def test_the_first_failing_output_names_the_error(self):
        # the same SolverError as solving one output at a time: the first
        # output, in stack order, whose worst residual exceeds the tolerance
        stack = df.DiscreteWeightedManifold([driftflow.axes.HermiteLineAxis(12, [[1.0], [1e-7], [1e-8]])], t=[0.0] * 3)
        worst = df.lowest_eigenpairs(df.assemble_forms(stack), 1, math.inf).residuals.max(axis=1)
        tol = 1e-15  # between output 0's round-off and that of the two narrow lines
        assert worst[0] < tol < min(worst[1:])
        with pytest.raises(df.SolverError) as alone:
            df.lowest_eigenpairs(df.assemble_forms(stack[1]), 1, tol)
        with pytest.raises(df.SolverError) as stacked:
            df.lowest_eigenpairs(df.assemble_forms(stack), 1, tol)
        assert str(stacked.value) == str(alone.value) and stacked.value.best_residual == alone.value.best_residual

    def test_a_sub_stack_solve_holds_no_eigenfunction(self):
        # the loop's solve checks each pair on its per-axis columns: on a
        # 16 x 256 product at k = 3 it peaks below one batch of the k + 1
        # fields per output that its outputs' eigenfunctions would fill
        req = RunRequest(family=_PRODUCT, horizon=0.005, dt=1e-3, cadence=1, k=3, resolution=256, hermite_order=16,
                         track_scalars=False)
        traj = df.run_flow(req)  # also warms the caches and FFT plans
        [sub, *_] = df.flow._sub_stacks(len(traj.times), traj.manifolds.size, _loop_arrays(traj.manifolds, req.k))
        stack = traj.manifolds[sub]
        forms = df.assemble_forms(stack)
        tracemalloc.start()
        try:
            solved = df.flow._eigensolve(forms, req.k, req.eig_tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.size == 16 * 256 and len(stack) == 6 and solved[0].shape == (6, req.k + 1)
        assert peak < 8 * (req.k + 1) * stack.size * len(stack)

    def test_stack_lengths(self):
        # the eternal Gaussian's 101 outputs take one stack; on products a
        # sub-stack holds OUTPUT_ARRAYS grid arrays per output at any k to 8,
        # 34 outputs of 12 x 64 and 6 of 16 x 256; on one axis the columns
        # are grid arrays, and a 64-node circle goes 8 (k + 1) of them per
        # output, 56 outputs at a time at k = 8
        line = _manifold(df.scaled_gaussian_family(2.0, 1), hermite_order=12)
        assert _stack_length(line.size, _loop_arrays(line, 1)) >= 101
        for order, resolution, per_stack in ((12, 64, 34), (16, 256, 6)):
            dm = _manifold(_PRODUCT, resolution=resolution, hermite_order=order)
            assert all(_loop_arrays(dm, k) == df.flow.OUTPUT_ARRAYS for k in range(1, 9))
            assert _stack_length(dm.size, _loop_arrays(dm, 3)) == per_stack
        circle = _manifold(df.round_circle_family(1.0), resolution=64)
        assert [_loop_arrays(circle, k) for k in (1, 8)] == [16, 72]
        assert _stack_length(circle.size, _loop_arrays(circle, 8)) == 56

    def test_the_loop_stays_within_the_field_estimate(self, monkeypatch):
        req = RunRequest(family=_PRODUCT, horizon=0.5, cadence=5, k=1, resolution=32, track_scalars=False)
        df.run_flow(dataclasses.replace(req, horizon=0.01))  # warm the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = df.run_flow(req)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        points, outputs = traj.manifolds.size, len(traj.times)
        per_stack = _stack_length(points, _loop_arrays(traj.manifolds, req.k))
        assert outputs == 101 and per_stack == 68 and len(range(0, outputs, per_stack)) == 2
        # the run keeps its columns and geometry rows, less than one output's k + 1 fields each: no eigenfunction
        assert kept - before < outputs * 8 * points * (req.k + 1)
        assert peak - before < _estimate(monkeypatch, req)
        # the temporaries of its steps, its seeding solve and each sub-stack's
        # solve, commutator and volumes, above what it keeps, fit the stack budget
        assert peak - kept < STACK_BYTES

    @pytest.mark.parametrize("order, resolution, per_stack", [(12, 64, 34), (16, 256, 6)])
    def test_the_sub_stack_count_does_not_depend_on_k_or_scalars(self, monkeypatch, order, resolution, per_stack):
        # one output of a product's sub-stack holds OUTPUT_ARRAYS grid
        # arrays whatever its k, and its scalars are per-axis columns
        solves = []
        _recording(monkeypatch, df.flow, "_eigensolve", solves)
        for k in (1, 8):
            for scalars in (False, True):
                req = RunRequest(family=_PRODUCT, horizon=2 * per_stack * 1e-3, dt=1e-3, cadence=1, k=k,
                                 resolution=resolution, hermite_order=order, track_scalars=scalars)
                solves.clear()
                traj = df.run_flow(req)
                assert len(traj.times) == 2 * per_stack + 1
                assert [len(args[0].manifold) for args, _ in solves] == [per_stack, per_stack, 1], (k, scalars)

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("order, resolution, per_stack", [(12, 64, 34), (16, 256, 6)])
    def test_a_sub_stack_holds_at_most_its_budget(self, monkeypatch, k, order, resolution, per_stack):
        # each full sub-stack of the loop, scalars filled and paired, holds
        # at most STACK_BYTES above what it started with, and at least half
        req = RunRequest(family=_PRODUCT, horizon=2 * per_stack * 1e-3, dt=1e-3, cadence=1, k=k,
                         resolution=resolution, hermite_order=order)
        df.run_flow(req)  # warm the caches and FFT plans
        peaks = _sub_stack_peaks(monkeypatch, req)
        assert len(peaks) == 3
        assert all(STACK_BYTES / 2 < peak < STACK_BYTES for peak in peaks[:2]), peaks

    @pytest.mark.parametrize(
        "family, grid, k",
        [
            (df.round_circle_family(1.0), {"resolution": 64}, 8),
            (df.round_circle_family(1.0), {"resolution": 1024}, 3),
            (df.scaled_gaussian_family(2.0, 1), {"hermite_order": 32}, 3),
            (df.scaled_gaussian_family(2.0, 1), {"hermite_order": 64}, 1),
        ],
        ids=["circle_64", "circle_1024", "line_32", "line_64"],
    )
    def test_a_one_axis_sub_stack_holds_at_most_its_budget(self, monkeypatch, family, grid, k):
        # on one axis the columns are grid arrays, and a line holds its n x n
        # stiffness block per output: sized at OUTPUT_ARRAYS alone, its
        # sub-stacks would hold more than three times as many outputs
        dm = _manifold(family, **grid)
        per_stack = _stack_length(dm.size, _loop_arrays(dm, k))
        assert 3 * per_stack < _stack_length(dm.size, df.flow.OUTPUT_ARRAYS)
        req = RunRequest(family=family, horizon=2 * per_stack * 1e-3, dt=1e-3, cadence=1, k=k, **grid)
        df.run_flow(req)  # warm the caches and FFT plans
        peaks = _sub_stack_peaks(monkeypatch, req)
        assert len(peaks) == 3 and max(peaks) < STACK_BYTES, peaks


class _WatchedStacks:
    """The sub-stacks of ``run_flow``'s loop, recording in ``peaks`` the most
    memory traced while each is worked on above what was traced as it
    began."""

    def __init__(self, subs):
        self.subs, self.peaks = subs, []

    def __iter__(self):
        for sub in self.subs:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            yield sub
            self.peaks.append(tracemalloc.get_traced_memory()[1] - start)


def _sub_stack_peaks(monkeypatch, request) -> list:
    """The temporary memory of each sub-stack of ``run_flow``'s loop for
    ``request``, in bytes, under tracemalloc."""
    sub_stacks, watched = df.flow._sub_stacks, []

    def watching(*args):
        watched.append(_WatchedStacks(sub_stacks(*args)))
        return watched[-1]

    monkeypatch.setattr(df.flow, "_sub_stacks", watching)
    tracemalloc.start()
    try:
        df.run_flow(request)
    finally:
        tracemalloc.stop()
    [loop] = watched
    return loop.peaks


def _estimate(monkeypatch, request) -> int:
    """The bytes of field memory that ``_check_field_memory`` estimates for a
    run, read from its refusal at a limit of zero."""
    monkeypatch.setattr(df.flow, "MAX_FIELD_BYTES", 0)
    state = df.evaluate_family(request.family, request.family.t0)
    with pytest.raises(ConfigurationError) as err:
        df.flow._check_field_memory(request, state)
    estimate = int(re.search(r"estimated (\d+) bytes", str(err.value)).group(1))
    assert estimate == df.flow._field_bytes(request, state)
    return estimate


class TestRetainedMemory:
    """A finished run keeps its trajectory and no eigenfunction: at most its
    outputs times the per-output term of the field-memory estimate.  While
    it runs, it holds at most the whole estimate."""

    @pytest.mark.parametrize(
        "request_",
        [
            RunRequest(family=_PRODUCT, horizon=0.5, cadence=1, k=1, track_scalars=False),
            RunRequest(family=df.scaled_gaussian_family(1.0, 2), horizon=0.3, cadence=1, k=1, hermite_order=32,
                       track_scalars=False),
            RunRequest(family=_PRODUCT, horizon=0.2, cadence=1, k=3),
        ],
        ids=["product", "gaussian_n2", "product_scalars"],
    )
    def test_a_run_peaks_below_its_estimate(self, monkeypatch, request_):
        # without scalars the per-output term is geometry rows and columns,
        # so one grid-sized field per output (a stack of ones for the
        # volumes, say) would exceed it
        df.run_flow(dataclasses.replace(request_, horizon=0.01))  # warm the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = df.run_flow(request_)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(traj.times) > 200
        assert peak <= _estimate(monkeypatch, request_)

    @pytest.mark.parametrize(
        "request_",
        [
            RunRequest(family=df.round_circle_family(1.0), horizon=0.3, cadence=1, k=2),
            RunRequest(family=_PRODUCT, horizon=0.2, cadence=1, k=3),
        ],
        ids=["circle", "product"],
    )
    def test_a_run_keeps_at_most_its_per_output_estimate(self, monkeypatch, request_):
        df.run_flow(request_)  # warm the caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = df.run_flow(request_)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        outputs = len(traj.times)
        start_only = dataclasses.replace(request_, horizon=0.0)
        per_output = _estimate(monkeypatch, request_) - _estimate(monkeypatch, start_only)
        assert outputs > 200 and per_output % (outputs - 1) == 0
        assert kept <= outputs * per_output // (outputs - 1)

    def test_a_run_keeps_no_grid_field_of_its_scalars(self):
        # per output, k = 3 tracked scalars on a 12 x 64 product add their
        # columns, k (12 + 64) numbers, and their pairings J, D, dJ, I and E,
        # within 5 %: a tenth of their k grid fields, and no grid-sized array
        request_ = RunRequest(family=_PRODUCT, horizon=0.2, cadence=1, k=3)
        kept, runs = {}, {}
        for track in (True, False):
            run = dataclasses.replace(request_, track_scalars=track)
            df.run_flow(run)  # warm the caches
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                runs[track] = df.run_flow(run)
                kept[track] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        traj = runs[True]
        k, count, (n0, n1) = 3, 201, traj.manifolds.shape
        arrays = [v for v in vars(traj).values() if isinstance(v, np.ndarray)]
        arrays += list(traj.series.values()) + list(traj.scalar_factors)
        assert max(a.size for a in arrays) == count * k * n1  # the circle's columns
        columns_and_pairings = 8 * count * (k * (n0 + n1) + 3 * k * k + 2 * k)
        assert columns_and_pairings <= kept[True] - kept[False] < 1.05 * columns_and_pairings

    def test_kept_scalars_count_their_columns(self, monkeypatch):
        # per output the estimate counts the k sum_i n_i numbers of the
        # scalars' columns, not the k prod_i n_i of their grid fields: at
        # k = 8 on 64 x 1024, 301 outputs, which a count of grid fields put
        # at 1.26 GiB, above the limit, need 0.11 GiB, and the refusal moves
        # out to the 8219th output
        k, sizes = 8, (64, 1024)
        request_ = RunRequest(family=_PRODUCT, horizon=0.3, cadence=1, k=k, resolution=1024, hermite_order=64)
        with monkeypatch.context() as patch:
            estimate = _estimate(patch, request_)
            without = _estimate(patch, dataclasses.replace(request_, track_scalars=False))
        assert estimate - without == 301 * 8 * (k * sum(sizes) + 3 * k * k + 2 * k)
        grid_count = estimate + 301 * 8 * k * (math.prod(sizes) - sum(sizes))
        assert estimate < df.flow.MAX_FIELD_BYTES < grid_count
        state = df.evaluate_family(_PRODUCT, 0.0)
        df.flow._check_field_memory(dataclasses.replace(request_, horizon=8.217), state)  # 8218 outputs
        with pytest.raises(ConfigurationError, match=" 8219 outputs "):
            df.flow._check_field_memory(dataclasses.replace(request_, horizon=8.218), state)


def _built_alone(layout, row, t):
    """One output's manifold built from its geometry row alone: each axis
    from its own samples, as a one-output manifold."""
    axes = []
    for kind, off, n in layout.axes:
        if kind == "circle":
            axes.append(driftflow.axes.CircleAxis(row[off : off + n].copy(), row[off + n : off + 2 * n].copy()))
        elif kind == "round":
            axes.append(driftflow.axes.CircleAxis(np.full(n, row[off]), np.full(n, row[off + 1])))
        else:
            axes.append(driftflow.axes.HermiteLineAxis(n, float(row[off])))
    return df.DiscreteWeightedManifold(axes, t=t)


def _same_manifold(got, want):
    """Array for array the same bits: each axis's a, f, wdens, f', Gamma,
    Hess f (and a line's scale), and the time."""
    assert type(got.t) is float and got.t == want.t and got.shape == want.shape
    for ax, ref in zip(got.axes, want.axes):
        assert ax.kind == ref.kind
        names = ["a", "f", "wdens", "fprime", "christoffel", "hess_f"] + ["scale"] * (ax.kind == "hermite")
        for name in names:
            x, y = getattr(ax, name), getattr(ref, name)
            assert np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes(), name


def _integrate_alone(dm, values):
    """The quadrature of one field, contracted axis by axis from the last."""
    out = values
    for ax in reversed(dm.axes):
        out = out @ ax.wdens
    return float(out)


_ROUND_PRODUCT_RUN = RunRequest(family=_PRODUCT, horizon=0.05, cadence=5, k=3, resolution=32)
_CUBE_RUN = RunRequest(family=df.scaled_gaussian_family(1.5, 3), horizon=0.05, cadence=10, k=3, hermite_order=8)


class TestOneStackPerRun:
    """A run builds its outputs once, as one stack; each output of the stack
    is the manifold that output's geometry gives alone."""

    @pytest.mark.parametrize(
        "request_",
        [
            _ROUND_PRODUCT_RUN,
            _CUBE_RUN,
            RunRequest(family=_VaryingFamily(), horizon=0.01, cadence=5, k=2, resolution=32, hermite_order=6, modes=8),
        ],
        ids=["round_product", "gaussian_cube", "non_round_product"],
    )
    def test_every_output_is_its_manifold_built_alone(self, request_):
        traj = df.run_flow(request_)
        stack = traj.manifolds
        assert stack.stacked and len(stack) == len(traj.times) > 2 and stack.t is traj.times
        layout = _Layout.of(stack[0])
        for m, dm in enumerate(stack):
            _same_manifold(dm, _built_alone(layout, layout.pack(dm), float(traj.times[m])))
        _same_manifold(stack[0], df.discretize(df.evaluate_family(request_.family, 0.0), resolution=request_.resolution,
                                               hermite_order=request_.hermite_order))

    @pytest.mark.parametrize("request_", [_ROUND_PRODUCT_RUN, _CUBE_RUN], ids=["round_product", "gaussian_cube"])
    def test_the_analytic_stack_is_each_closed_form_discretized(self, request_):
        traj = df.run_flow(dataclasses.replace(request_, backend="analytic"))
        for m, dm in enumerate(traj.manifolds):
            state = df.evaluate_family(request_.family, traj.times[m])
            _same_manifold(dm, df.discretize(state, resolution=request_.resolution, hermite_order=request_.hermite_order))
            assert np.array_equal(_Layout.of(dm).pack(state), _Layout.of(dm).pack(dm))

    def test_a_sub_stack_is_its_outputs(self):
        stack = df.run_flow(_ROUND_PRODUCT_RUN).manifolds
        for index in (slice(1, 4), [5, 0, 3], slice(None, None, -1)):
            sub = stack[index]
            assert np.array_equal(sub.t, stack.t[index])
            for got, m in zip(sub, np.arange(len(stack))[index]):
                _same_manifold(got, stack[int(m)])
        with pytest.raises(IndexError):
            stack[len(stack)]

    @pytest.mark.parametrize("request_", [_ROUND_PRODUCT_RUN, _CUBE_RUN], ids=["round_product", "gaussian_cube"])
    def test_integrals_over_a_stack_are_each_outputs_bitwise(self, request_):
        stack = df.run_flow(request_).manifolds
        fields = np.random.default_rng(3).standard_normal((len(stack), *stack.shape))
        integrals, volumes = stack.integrate(fields), stack.weighted_volume()
        assert integrals.shape == volumes.shape == (len(stack),)
        for m, dm in enumerate(stack):
            assert integrals[m] == dm.integrate(fields[m]) == _integrate_alone(dm, fields[m])
            assert volumes[m] == dm.weighted_volume() == _integrate_alone(dm, np.ones(dm.shape))
        # a Fortran-ordered field, as the commutator's temporaries can be
        fields = np.asfortranarray(fields)
        assert all(x == _integrate_alone(dm, f) for x, dm, f in zip(stack.integrate(fields), stack, fields))
        with pytest.raises(UsageError):
            stack.integrate(fields[0])

    def test_the_layout_places_the_error_blocks(self):
        dm = _varying_product()
        layout = _Layout.of(dm, 2)
        assert layout.stepped == (0,) and layout.width == 2 * 32 + 1 and layout.start == 66
        assert layout.blocks == [0, 32, 64, 65, 66, 66 + 32]  # one block per scalar's column of the circle's V
        compact = _Layout.of(_round_product(), 3)  # a Gaussian multiplier, a round circle's a and f, two integrals
        assert not compact.stepped and compact.blocks == [0, 1, 2, 3, 4]


def _factor_alone(layout, columns, integrals, s):
    """u = E V of one output alone, axis by axis on its (k, n) columns, one
    matrix per Hermite axis and one gain row per circle: the one-output
    reference of the stacked ``_factor``."""
    if s == 0.0:
        return [cols.copy() for cols in columns]
    out, lag = list(columns), s / 2.0
    for axis, c in zip(layout.diagonal, integrals):
        kind, _, n = layout.axes[axis]
        if kind == "hermite":
            ops = _hermite_ops(n)
            matrix = ops["vand"] @ (np.exp(lag - 0.5 * np.arange(n) * c)[:, None] * ops["vinv"])
            out[axis] = driftflow.axes.apply_along(matrix.__matmul__, columns[axis], 1)
        else:
            coef = np.fft.rfft(columns[axis], axis=1) * np.exp(lag - np.arange(n // 2 + 1) ** 2.0 * c)
            out[axis] = np.fft.irfft(coef, n=n, axis=1)
        lag = 0.0
    if lag:
        out[0] = math.exp(lag) * out[0]
    return out


def _grid_factor(layout, fields, integrals, s):
    """E applied to one output's (k, *shape) fields on the whole grid, axis
    by axis along the grid's axes: the grid reference of ``_factor``."""
    u, lag = fields, s / 2.0
    for axis, c in zip(layout.diagonal, integrals):
        kind, _, n = layout.axes[axis]
        if kind == "hermite":
            ops = _hermite_ops(n)
            matrix = ops["vand"] @ (np.exp(lag - 0.5 * np.arange(n) * c)[:, None] * ops["vinv"])
            u = driftflow.axes.apply_along(matrix.__matmul__, u, axis + 1)
        else:
            coef = np.fft.rfft(u, axis=axis + 1)
            coef *= along(np.exp(lag - np.arange(n // 2 + 1) ** 2.0 * c), axis, u.ndim - 1)
            u = np.fft.irfft(coef, n=n, axis=axis + 1)
        lag = 0.0
    return math.exp(lag) * u


def _propagate_alone(u0, start, end):
    """The modal propagator to one end state alone, axis by axis with
    explicit transposes: the one-output reference of ``modal_propagator``."""
    u = np.array(u0, dtype=float)
    s = float(end.t) - float(start.t)
    if s == 0.0:
        return u
    first = u.ndim - len(start.factors)
    for axis, (fac0, fac1) in enumerate(zip(start.factors, end.factors), start=first):
        n = u.shape[axis]
        perm, inverse = driftflow.axes.axis_to_front(u.ndim, axis)
        moved = u.transpose(perm)
        diff = (moved - moved[:1]).reshape(n, -1)
        if isinstance(fac0, CircleModel):
            gain = np.exp(-np.arange(n // 2 + 1) ** 2.0 * (1.0 / fac0.a - 1.0 / fac1.a))
            diff = np.fft.irfft(gain[:, None] * np.fft.rfft(diff, axis=0), n=n, axis=0)
        else:
            ops = _hermite_ops(n)
            gain = np.exp(-0.5 * np.arange(n) * (s - math.log(fac1.scale / fac0.scale)))
            diff = ops["vand"] @ (gain[:, None] * (ops["vinv"] @ diff))
        u = (moved[:1] + diff.reshape(moved.shape)).transpose(inverse)
    return math.exp(s / 2.0) * u


_SCALAR_RUNS = {
    "gauss_x_circle": RunRequest(family=_PRODUCT, horizon=0.02, cadence=5, k=3, resolution=32, hermite_order=8),
    "gauss_n2": RunRequest(family=df.scaled_gaussian_family(2.0, 2), horizon=0.02, cadence=5, k=3, hermite_order=8),
    "stepped_v": RunRequest(family=_VaryingFamily(), horizon=4 * 2.0**-10, dt=2.0**-10, cadence=1, k=2,
                            resolution=32, hermite_order=6, modes=8),
    "stepped_v_alone": RunRequest(family=_WavyCircleFamily(), horizon=4 * 2.0**-10, dt=2.0**-10, cadence=1, k=2,
                                  resolution=32, modes=8),
    "analytic": RunRequest(family=_PRODUCT, horizon=0.02, cadence=5, k=3, resolution=32, hermite_order=8,
                           backend="analytic"),
}


def _stack_budget(monkeypatch, request, per_stack):
    """Set STACK_BYTES so that a sub-stack of ``run_flow``'s loop, sized at
    ``_loop_arrays`` grid arrays per output, holds ``per_stack`` outputs of
    the run ``request``."""
    state = df.evaluate_family(request.family, request.family.t0)
    dm = df.discretize(state, resolution=request.resolution, hermite_order=request.hermite_order)
    arrays = _loop_arrays(dm, request.k)
    monkeypatch.setattr(df.flow, "STACK_BYTES", math.ceil(per_stack * 8 * dm.size * arrays))
    assert _stack_length(dm.size, arrays) == per_stack


def _check_stacks(traj) -> int:
    """The sub-stacks of the propagator check, sized for each output's k scalars."""
    return len(df.flow._sub_stacks(len(traj.times), traj.manifolds.size, df.flow.FIELD_COPIES * traj.request.k))


def _recording(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so that each call appends (args, result) to ``calls``,
    its array arguments, and the arrays of its list arguments, copied as
    they were at the call."""
    wrapped = getattr(module, name)

    def held(arg):
        if isinstance(arg, list):
            return [held(x) for x in arg]
        return arg.copy() if isinstance(arg, np.ndarray) else arg

    def recorded(*args):
        calls.append(([held(arg) for arg in args], wrapped(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recorded)


def _factor_rows(layout, calls) -> list:
    """(columns, integrals, lag) of each output, in output order, from the
    recorded ``_factor`` calls of a run: a stepped circle's V its own, a
    diagonal axis's columns the shared ones."""
    return [([v[j] if axis in layout.stepped else v for axis, v in enumerate(columns)], c[j], s[j])
            for (_, columns, c, s), _ in calls for j in range(len(s))]


class TestStackedScalarPass:
    """A run applies E, pairs its scalars and checks them against the
    propagator on sub-stacks of consecutive outputs, each output in the bits
    of its one-output computation, whatever sub-stack holds it."""

    @pytest.mark.parametrize("per_stack", [1, 2, 3])
    @pytest.mark.parametrize("name", list(_SCALAR_RUNS))
    def test_every_output_has_the_bits_of_its_one_output_computation(self, monkeypatch, name, per_stack):
        request_ = _SCALAR_RUNS[name]
        _stack_budget(monkeypatch, request_, per_stack)
        factors, propagated = [], []
        _recording(monkeypatch, df.flow, "_factor", factors)
        _recording(monkeypatch, acceptance, "modal_propagator", propagated)
        traj = df.run_flow(request_)
        count, columns = len(traj.times), traj.scalar_factors
        assert count == 5  # not a multiple of 2 or 3: the last sub-stack is not full
        stacks = -(-count // per_stack)

        # E: each output's columns are the one-output E of its V, integrals and lag
        layout = _Layout.of(traj.manifolds[0], request_.k)
        assert len(factors) == stacks and bool(layout.stepped) == name.startswith("stepped")
        rows = _factor_rows(layout, factors)
        assert len(rows) == count
        for m, (v, c, s) in enumerate(rows):
            for got, want in zip(columns, _factor_alone(layout, v, c, s)):
                assert np.array_equal(got[m], want), m
        if request_.backend == "analytic":  # the closed-form integrals and lags
            start = df.evaluate_family(request_.family, request_.family.t0)
            for m, (_, c, s) in enumerate(rows):
                end = df.evaluate_family(request_.family, traj.times[m])
                assert s == end.t - start.t
                assert c.tolist() == [s - math.log(end.factors[0].scale / start.factors[0].scale),
                                      1.0 / start.factors[1].a - 1.0 / end.factors[1].a]

        # J, D and dJ: each output's are its one-output pairings on its own manifold
        for m, dm in enumerate(traj.manifolds):
            alone = _factored_pairings(dm, [cols[m] for cols in columns])
            for key, want in zip(("J", "D", "dJ"), alone):
                assert traj.series[key][m].tobytes() == want.tobytes(), (key, m)

        # the propagator check: each end state's exact batch is its one-output propagator
        if not name.startswith("stepped"):
            records = {c.name: c for c in check_functionals(traj)}
            assert len(propagated) == _check_stacks(traj)
            ends = [end for (_, _, states), _ in propagated for end in states]
            exact = [row for _, result in propagated for row in result]
            assert [end.t for end in ends] == list(traj.times)
            worst, start = 0.0, traj.scalar_fields(0)
            for m, (end, got) in enumerate(zip(ends, exact)):
                want = _propagate_alone(start, ends[0], end)
                assert np.array_equal(got, want), m
                fields = traj.scalar_fields(m)
                worst = max(worst, float(np.max(np.abs(fields - want)) / np.max(np.abs(want))))
            assert records["scalar propagator"].value == worst

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    @pytest.mark.parametrize("per_stack", [1, 2, 3])
    def test_one_call_per_sub_stack(self, monkeypatch, backend, per_stack):
        # the solve, the commutator, the pairings, E and the check's
        # propagator each run once per sub-stack of consecutive outputs,
        # never once per output; one more solve, the only one that builds
        # eigenfunctions, seeds the scalars, and the run never differentiates
        # a grid field of its scalars
        request_ = dataclasses.replace(_SCALAR_RUNS["gauss_x_circle"], backend=backend)
        _stack_budget(monkeypatch, request_, per_stack)
        calls = {name: [] for name in ("lowest_eigenpairs", "_eigensolve", "_commutator_stack", "_factored_pairings",
                                       "_factor", "acceptance.modal_propagator")}
        for name, seen in calls.items():
            module, _, attr = name.rpartition(".")
            _recording(monkeypatch, acceptance if module == "acceptance" else df.flow, attr, seen)
        derivatives = []
        _recording(monkeypatch, driftflow.spectral, "_derivatives", derivatives)
        traj = df.run_flow(request_)
        check_functionals(traj)
        stacks = -(-len(traj.times) // per_stack)
        expected = {
            "lowest_eigenpairs": 1, "_eigensolve": stacks, "_commutator_stack": stacks, "_factored_pairings": stacks,
            "_factor": stacks, "acceptance.modal_propagator": _check_stacks(traj),
        }
        assert {name: len(seen) for name, seen in calls.items()} == expected and derivatives == []
        # consecutive outputs, a full sub-stack each but the last
        count = len(traj.times)
        sizes = [min(per_stack, count - lo) for lo in range(0, count, per_stack)]
        for name in ("_commutator_stack", "_factored_pairings"):
            assert [args[1 if name == "_commutator_stack" else 0].t.tolist() for args, _ in calls[name]] == [
                traj.times[lo : lo + per_stack].tolist() for lo in range(0, count, per_stack)
            ]
        shapes = [[cols.shape for cols in args[1]] for args, _ in calls["_factored_pairings"]]
        assert shapes == [[(n, request_.k, size) for size in traj.manifolds.shape] for n in sizes]

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    @pytest.mark.parametrize("track_scalars", [True, False])
    def test_one_layout_and_one_stack_per_run(self, monkeypatch, backend, track_scalars):
        # the backends return arrays: run_flow builds the run's one layout and
        # its one stack of outputs, and sets the scalars to E V once per
        # sub-stack of its loop, never without scalars
        request_ = dataclasses.replace(_SCALAR_RUNS["gauss_x_circle"], backend=backend, track_scalars=track_scalars)
        _stack_budget(monkeypatch, request_, 2)
        layouts, stacks, factors = [], [], []
        layout_of, stack = _Layout.of, _Layout.stack
        monkeypatch.setattr(_Layout, "of", classmethod(lambda cls, *args: layouts.append(args) or layout_of(*args)))
        monkeypatch.setattr(_Layout, "stack", lambda self, *args: stacks.append(args) or stack(self, *args))
        _recording(monkeypatch, df.flow, "_factor", factors)
        traj = df.run_flow(request_)
        assert len(traj.times) == 5 and len(layouts) == len(stacks) == 1
        assert len(factors) == (3 if track_scalars else 0)

    @pytest.mark.parametrize("wavy", [False, True], ids=["round_product", "stepped_v"])
    def test_the_scalar_pass_holds_no_grid_field_per_output(self, wavy):
        # k = 3 on 16 x 256, six outputs, all in one sub-stack: E and the
        # pairings act on columns and hold at most 12 copies of each of its
        # outputs' columns above what they keep, a round product's whole loop
        # included, where one copy of an output's k grid fields is 15
        # copies; the propagator check, which builds the fields of one
        # sub-stack at a time, holds at most STACK_BYTES
        k = 3
        family = _VaryingFamily() if wavy else _PRODUCT
        req = RunRequest(family=family, horizon=0.005, dt=1e-3, cadence=1, k=k, resolution=256, hermite_order=16,
                         modes=8 if wavy else 32)
        dm = df.discretize(df.evaluate_family(family, 0.0), resolution=req.resolution, hermite_order=req.hermite_order)
        per_stack = _stack_length(dm.size, _loop_arrays(dm, k))
        assert dm.size == 16 * 256 and per_stack == 6
        columns0 = [cols[1 : k + 1] for cols in df.lowest_eigenpairs(df.assemble_forms(dm), k, 1e-8).columns]
        traj = df.run_flow(req)  # also warms the caches and FFT plans
        assert len(traj.times) == 6
        subs = df.flow._sub_stacks(len(traj.times), dm.size, _loop_arrays(dm, k))
        assert subs == [slice(0, per_stack)]
        passes = {
            "pairings": lambda: [_factored_pairings(traj.manifolds[sub], [c[sub] for c in traj.scalar_factors])
                                 for sub in subs],
            "E": lambda: _factor(_Layout.of(dm, k), [c[None] if wavy and axis == 0 else c
                                                     for axis, c in enumerate(columns0)], np.full((1, 1), 0.3), [0.1]),
        }
        if not wavy:
            passes["filled"] = lambda: _filled(req, dm, columns0)
            passes["propagator"] = lambda: check_functionals(traj)
        for name, work in passes.items():
            work()
            tracemalloc.start()
            try:
                result = work()  # what the pass keeps stays traced
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # E takes one output here, the pairings and the filled loop a sub-stack of them
            outputs = 1 if name == "E" else per_stack
            budget = STACK_BYTES if name == "propagator" else 12 * 8 * k * sum(dm.shape) * outputs
            assert result is not None and peak - kept < budget, name


_GAUSS_N2_X_CIRCLE = df.product_family([df.scaled_gaussian_family(1.0, 2), df.round_circle_family(4.0)])
_GAUSS_N3_X_CIRCLE = df.product_family([df.scaled_gaussian_family(1.0, 3), df.round_circle_family(4.0)])

# Runs on 1 to 4 axes whose scalars are paired on their columns: round and
# stepped circles, Gaussian lines, and both backends.
_FACTORED_RUNS = {
    "circle": RunRequest(family=df.round_circle_family(1.0), horizon=0.02, cadence=5, k=2, resolution=32),
    "line": RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=0.02, cadence=5, k=2, hermite_order=8),
    "stepped_circle": _SCALAR_RUNS["stepped_v_alone"],
    "gauss_x_circle": _SCALAR_RUNS["gauss_x_circle"],
    "stepped_v": _SCALAR_RUNS["stepped_v"],
    "analytic": _SCALAR_RUNS["analytic"],
    "gauss_n2_x_circle": RunRequest(family=_GAUSS_N2_X_CIRCLE, horizon=0.02, cadence=5, k=3, resolution=16,
                                    hermite_order=6),
    "gauss_n3_x_circle": RunRequest(family=_GAUSS_N3_X_CIRCLE, horizon=0.02, cadence=10, k=3, resolution=16,
                                    hermite_order=5),
}


def _dropped_cross_term():
    """``spectral._factored_pairings`` with the last axis's M left out of
    the first term of D and G: on two axes the cross term S_0 M_1 of D
    becomes S_0."""
    source = textwrap.dedent(inspect.getsource(driftflow.spectral._factored_pairings))
    mutated = source.replace("M[:i] + M[i + 1 :], part)", "M[:i] + M[i + 1 :][: len(M) - 2 if i == 0 else None], part)")
    assert mutated != source
    namespace = dict(vars(driftflow.spectral))
    exec(mutated, namespace)
    return namespace["_factored_pairings"]


def _pairing_gap(dm, columns, pairings=_factored_pairings) -> float:
    """The largest difference between (J, D, dJ) of the scalars whose
    columns are ``columns`` on the one-output manifold ``dm``, paired by
    ``pairings`` on the columns and on the grid fields they build
    (``oracles.grid_scalar_pairings``), relative to the largest entry; on
    one axis 0.0 when they agree in their bits, and inf otherwise."""
    worst = 0.0
    for a, b in zip(pairings(dm, columns), grid_scalar_pairings(dm, _product_fields(columns))):
        if dm.dimension == 1:
            worst = max(worst, 0.0 if a.tobytes() == b.tobytes() else math.inf)
        else:
            worst = max(worst, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))
    return worst


def _random_columns(dm, k=3, seed=5) -> list:
    """k scalars of seeded random per-axis columns on ``dm``: unlike the
    eigenfunctions, no two share a column or are orthogonal on an axis."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((k, n)) for n in dm.shape]


class TestFactoredScalarPass:
    """A run carries each scalar as per-axis columns and pairs them from
    per-axis Grams.  Against the grid reference, on 1 to 4 axes, its
    pairings, E and the fields its columns build agree to 1e-13 of the
    largest entry, and on one axis in their bits."""

    @pytest.fixture(scope="class", params=list(_FACTORED_RUNS))
    def run(self, request):
        return request.param, df.run_flow(_FACTORED_RUNS[request.param])

    def test_the_pairings_match_the_grid(self, run):
        name, traj = run
        assert len(traj.scalar_factors) == traj.manifolds.dimension
        for m, dm in enumerate(traj.manifolds):
            columns = [cols[m] for cols in traj.scalar_factors]
            series = tuple(traj.series[key][m] for key in ("J", "D", "dJ"))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(series, _factored_pairings(dm, columns))), m
            assert _pairing_gap(dm, columns) <= 1e-13, m
            assert _pairing_gap(dm, _random_columns(dm)) <= 1e-13, m

    def test_output_0_builds_its_eigenfunctions(self, run):
        name, traj = run
        request_ = traj.request
        spectrum0 = df.lowest_eigenpairs(df.assemble_forms(traj.manifolds[0]), request_.k, request_.eig_tol)
        assert traj.scalar_fields(0).tobytes() == spectrum0.eigenfunctions[1:].tobytes()

    def test_dropping_a_cross_term_fails(self, run):
        # on random columns: on eigenfunctions that share a column or are
        # orthogonal on an axis, M_l is 1 or 0 where S_i is not 0
        name, traj = run
        if traj.manifolds.dimension > 1:
            for dm in (traj.manifolds[0], traj.manifolds[-1]):
                assert _pairing_gap(dm, _random_columns(dm), _dropped_cross_term()) > 1e-3

    def test_the_built_fields_match_e_on_the_grid(self, monkeypatch, run):
        # each output's fields are E applied on the grid to the fields of its
        # V, at its integrals and lag; an analytic run's also match the
        # modal propagator
        name, _ = run
        request_ = _FACTORED_RUNS[name]
        calls = []
        _recording(monkeypatch, df.flow, "_factor", calls)
        traj = df.run_flow(request_)
        layout = _Layout.of(traj.manifolds[0], request_.k)
        rows = _factor_rows(layout, calls)
        one_axis = traj.manifolds.dimension == 1
        for m, (v, c, s) in enumerate(rows):
            got = traj.scalar_fields(m)
            want = _product_fields(v) if s == 0.0 else _grid_factor(layout, _product_fields(v), c, s)
            if one_axis:
                assert got.tobytes() == want.tobytes(), m
            else:
                assert float(np.max(np.abs(got - want))) <= 1e-13 * float(np.max(np.abs(want))), m
        if request_.backend == "analytic":
            states = [df.evaluate_family(request_.family, t) for t in traj.times]
            exact = df.modal_propagator(traj.scalar_fields(0), states[0], states)
            fields = traj.scalar_fields(slice(None))
            assert float(np.max(np.abs(fields - exact))) <= 1e-13 * float(np.max(np.abs(exact)))

    @pytest.mark.parametrize("name", ["circle", "line", "gauss_x_circle", "stepped_v", "gauss_n2_x_circle",
                                      "gauss_n3_x_circle"])
    def test_e_matches_the_grid(self, name):
        # random columns on each layout, three outputs at once, each output's
        # E on its columns against E on its fields along the grid's axes
        request_ = _FACTORED_RUNS[name]
        dm = df.discretize(df.evaluate_family(request_.family, 0.0), resolution=request_.resolution,
                           hermite_order=request_.hermite_order)
        layout = _Layout.of(dm, 2)
        rng = np.random.default_rng(len(name))
        columns = [rng.standard_normal((3, 2, n) if axis in layout.stepped else (2, n))
                   for axis, n in enumerate(dm.shape)]
        integrals = 0.1 * rng.random((3, len(layout.diagonal)))
        lags = np.array([0.05, 0.1, 0.2])
        got = _factor(layout, columns, integrals, lags)
        for j in range(3):
            v = [cols[j] if axis in layout.stepped else cols for axis, cols in enumerate(columns)]
            want = _grid_factor(layout, _product_fields(v), integrals[j], lags[j])
            fields = _product_fields([cols[j] for cols in got])
            if dm.dimension == 1:
                assert fields.tobytes() == want.tobytes(), j
            else:
                assert float(np.max(np.abs(fields - want))) <= 1e-13 * float(np.max(np.abs(want))), j


_PARTITION_CONFIG = {
    "name": "partition", "family": "product", "factors": "scaled_gaussian:u0=1,n=1;round_circle:a0=4", "horizon": 0.02,
    "cadence": 1, "k": 3, "resolution": 32, "modes": 16, "hermite_order": 8, "check_functionals": True,
    "check_commutator": True,
}


def _trajectory_bytes(traj) -> dict:
    """The bytes of every array of a trajectory: its columns, its series and
    its scalars' per-axis columns, and each output's geometry rows."""
    arrays = {}
    for f in dataclasses.fields(traj):
        value = getattr(traj, f.name)
        if isinstance(value, np.ndarray):
            arrays[f.name] = value.tobytes()
        elif isinstance(value, tuple):
            arrays.update({f"{f.name}.{axis}": cols.tobytes() for axis, cols in enumerate(value)})
        elif isinstance(value, dict):
            arrays.update({f"{f.name}.{key}": arr.tobytes() for key, arr in value.items()})
    layout = _Layout.of(traj.manifolds[0])
    arrays["manifolds"] = b"".join(layout.pack(dm).tobytes() for dm in traj.manifolds)
    return arrays


class TestPartitionInvariance:
    """A run's results do not depend on how its outputs fall into sub-stacks:
    one output per sub-stack and the whole run in one give the same bits."""

    @pytest.mark.parametrize("name", ["galerkin", "analytic", "stepped_v"])
    def test_one_output_per_sub_stack_and_one_sub_stack_agree(self, monkeypatch, tmp_path, name):
        config = None
        if name == "stepped_v":
            request_ = dataclasses.replace(_SCALAR_RUNS["stepped_v"], horizon=12 * 2.0**-10)
        else:
            config = ScenarioConfig.from_dict({**_PARTITION_CONFIG, "backend": name})
            request_ = config.to_request()
        count, k = df.flow.output_count(request_), request_.k
        dm = _manifold(request_.family, resolution=request_.resolution, hermite_order=request_.hermite_order)
        points, arrays = dm.size, _loop_arrays(dm, k)
        budgets = {"one": 0, "whole": math.ceil(count * 8 * points * arrays)}
        runs = {}
        for budget, stack_bytes in budgets.items():
            monkeypatch.setattr(df.flow, "STACK_BYTES", stack_bytes)
            assert len(df.flow._sub_stacks(count, points, arrays)) == (count if budget == "one" else 1)
            traj = df.run_flow(request_)
            assert traj.scalar_factors is not None and len(traj.times) == count > 10
            files = {}
            if config is not None:
                out_dir = execute(config, out_root=str(tmp_path / budget)).out_dir
                for file in ("trajectory.csv", "spectra.json", "bounds.csv"):
                    with open(os.path.join(out_dir, file), "rb") as fh:
                        files[file] = fh.read()
            runs[budget] = (_trajectory_bytes(traj), files)
        assert runs["one"] == runs["whole"]
