import math

import numpy as np
import pytest

import driftflow as df
from driftflow.axes import along
from driftflow.errors import ConfigurationError, DomainError, ExtinctionError
from driftflow.spectral import soliton_defect_profiles

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


class TestScaledGaussianFamily:
    def test_static_fixed_point(self):
        fam = df.scaled_gaussian_family(1.0, 1, 0.0)
        for t in (-3.0, 0.0, 0.7, 12.0):
            assert fam.scale_at(t) == 1.0

    def test_growth_closed_form(self):
        fam = df.scaled_gaussian_family(2.0, 1, 0.0)
        # u = 1 + (2 - 1) * e^{log 2} = 3
        assert fam.scale_at(math.log(2.0)) == pytest.approx(3.0, rel=1e-15)

    def test_reference_time_reproduces_parameters(self):
        fam = df.scaled_gaussian_family(1.7, 2, t0=0.4)
        state = df.evaluate_family(fam, 0.4)
        assert state.t == 0.4
        assert len(state.factors) == 2
        assert all(f.scale == pytest.approx(1.7, rel=1e-15) for f in state.factors)

    def test_weight_log_term_rides_the_scale(self):
        # the per-line weight is x^2/4 + (1/2) log u(t); that sign is the one
        # compatible with the weight equation and keeps e^{-f} dv constant
        fam = df.scaled_gaussian_family(2.0, 1, 0.0)
        dm = df.discretize(df.evaluate_family(fam, math.log(2.0)))
        ax = dm.axes[0]
        expected = ax.nodes**2 / 4.0 + 0.5 * math.log(3.0)
        np.testing.assert_allclose(ax.f, expected, rtol=1e-14)

    def test_lowest_eigenvalue_matches_half_inverse_scale(self):
        fam = df.scaled_gaussian_family(2.0, 1, 0.0)
        dm = df.discretize(df.evaluate_family(fam, 0.0))
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 1)
        assert res.eigenvalues[1] == pytest.approx(0.25, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            df.scaled_gaussian_family(-1.0, 1)
        with pytest.raises(DomainError):
            df.scaled_gaussian_family(0.0, 1)
        with pytest.raises(DomainError):
            df.scaled_gaussian_family(1.0, 0)

    def test_extinction(self):
        fam = df.scaled_gaussian_family(0.5, 1, 0.0)
        assert fam.extinction_time == pytest.approx(math.log(2.0), rel=1e-15)
        # still alive just before
        assert fam.scale_at(0.69) > 0.0
        with pytest.raises(ExtinctionError) as err:
            df.evaluate_family(fam, 0.7)
        assert err.value.extinction_time == pytest.approx(math.log(2.0), rel=1e-12)


class TestRoundCircleFamily:
    def test_identity_at_reference_time(self):
        state = df.evaluate_family(df.round_circle_family(1.0), 0.0)
        assert state.factors[0].a == pytest.approx(1.0)

    def test_exponential_metric_and_linear_weight(self):
        fam = df.round_circle_family(2.0, t0=0.5, f0=0.3)
        state = df.evaluate_family(fam, 1.5)
        assert state.factors[0].a == pytest.approx(2.0 * math.e, rel=1e-15)
        assert state.factors[0].f == pytest.approx(0.8, rel=1e-15)

    def test_eigenvalue_scaling(self):
        dm = df.discretize(df.evaluate_family(df.round_circle_family(4.0), 0.0))
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 2)
        np.testing.assert_allclose(res.eigenvalues, [0.0, 0.25, 0.25], atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            df.round_circle_family(-1.0)


class TestProductFamily:
    def test_mismatched_reference_time(self):
        with pytest.raises(ConfigurationError):
            df.product_family(
                [df.scaled_gaussian_family(1.0, 1, 0.0), df.round_circle_family(1.0, t0=1.0)]
            )

    def test_two_circles_rejected(self):
        with pytest.raises(ConfigurationError):
            df.product_family([df.round_circle_family(1.0), df.round_circle_family(2.0)])

    def test_single_factor_degenerates(self):
        fam = df.product_family([df.round_circle_family(1.0)])
        assert isinstance(fam, df.geometry.RoundCircleFamily)

    def test_minkowski_spectrum(self):
        fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(4.0)])
        dm = df.discretize(df.evaluate_family(fam, 0.0), resolution=64, hermite_order=10)
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 4)
        # gaussian {0, 1/2, 1, ...} + circle {0, 1/4, 1/4, 1, ...}
        np.testing.assert_allclose(res.eigenvalues, [0.0, 0.25, 0.25, 0.5, 0.75], atol=1e-12)

    def test_lowest_comes_from_gaussian_factor_when_circle_is_small(self):
        fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(0.25)])
        dm = df.discretize(df.evaluate_family(fam, 0.0), resolution=64, hermite_order=10)
        res = df.lowest_eigenpairs(df.assemble_forms(dm), 1)
        assert res.eigenvalues[1] == pytest.approx(0.5, abs=1e-12)
        # the eigenfunction is the gaussian coordinate: flat along the circle
        u = res.eigenfunctions[1]
        assert float(np.max(np.abs(u - u[:, :1]))) < 1e-10


class TestDiscretize:
    def test_uniform_circle_weights(self):
        dm = df.weighted_circle(64)
        np.testing.assert_allclose(dm.axes[0].weights, 2.0 * math.pi / 64.0)
        assert dm.weighted_volume() == pytest.approx(2.0 * math.pi, rel=1e-14)

    def test_gaussian_volume(self):
        dm = df.gaussian_line(1.0)
        assert dm.weighted_volume() == pytest.approx(TWO_SQRT_PI, rel=1e-13)

    def test_resolution_floor(self):
        state = df.evaluate_family(df.round_circle_family(1.0), 0.0)
        with pytest.raises(ConfigurationError):
            df.discretize(state, resolution=4)

    def test_volume_constant_along_families(self):
        # the weighted volume element is preserved by the evolution
        for fam in (
            df.scaled_gaussian_family(2.0, 1),
            df.scaled_gaussian_family(0.5, 1),
            df.round_circle_family(0.5),
            df.product_family([df.scaled_gaussian_family(3.0, 1), df.round_circle_family(1.0)]),
        ):
            vols = [
                df.discretize(df.evaluate_family(fam, t), resolution=32, hermite_order=8).weighted_volume()
                for t in (0.0, 0.3, 0.6)
            ]
            np.testing.assert_allclose(vols, vols[0], rtol=1e-12)

    def test_volume_converges_spectrally_in_circle_resolution(self):
        # f = 2 cos(theta): closed-form weighted length is 2 pi I_0(2)
        from scipy.special import iv

        exact = 2.0 * math.pi * float(iv(0, 2.0))
        errors = {}
        for n in (8, 16):
            dm = df.weighted_circle(n, f=lambda th: 2.0 * np.cos(th))
            errors[n] = abs(dm.weighted_volume() - exact) / exact
        assert errors[8] < 1e-3
        assert errors[16] < 1e-12  # far beyond any algebraic rate

    def test_hermite_axis_differentiates_the_gaussian_weight(self):
        # f = x^2/4 + (1/2) log u has f' = x/2 and Hess f = 1/2.  The nodal
        # derivative matrices lose digits as the order grows: at the default
        # order 12 the defects read at most 2.2e-12 (d1) and 3.7e-12 (d2).
        for u0 in (0.7, 1.0, 2.0):
            ax = df.discretize(df.evaluate_family(df.scaled_gaussian_family(u0, 1), 0.1)).axes[0]
            assert float(np.max(np.abs(ax.d1(ax.f, 0) - ax.nodes / 2.0))) < 1e-11
            assert float(np.max(np.abs(ax.d2(ax.f, 0) - 0.5))) < 1e-11

    @pytest.mark.parametrize("u0", [0.7, 1.0, 2.0, 1e-8, 1e8])
    def test_hermite_axis_samples_its_constant_hessian(self, u0):
        # Hess f = 1/2 exactly, so phi = a/2 - Hess f is the bits of 0.5 a - 0.5
        ax = df.discretize(df.evaluate_family(df.scaled_gaussian_family(u0, 1), 0.0), hermite_order=10).axes[0]
        assert ax.hess_f.tobytes() == np.full(10, 0.5).tobytes()
        (phi,) = soliton_defect_profiles(df.DiscreteWeightedManifold([ax]))
        assert phi.tobytes() == np.full(10, 0.5 * ax.a - 0.5).tobytes()

    def test_along_is_a_read_only_view(self):
        # a Hermite axis's a and Gamma are floats: they pass through as they
        # are, with no grid-sized allocation; a vector becomes a read-only
        # view of itself that broadcasts along its own axis of the grid
        fam = df.product_family([df.scaled_gaussian_family(1.5, 1), df.round_circle_family(2.0)])
        dm = df.discretize(df.evaluate_family(fam, 0.0), resolution=16, hermite_order=8)
        gauss, circle = dm.axes
        assert along(gauss.a, 0, dm.dimension) is gauss.a
        assert along(gauss.christoffel, 0, dm.dimension) is gauss.christoffel
        for idx, values in ((0, gauss.fprime), (1, circle.a)):
            profile = along(values, idx, dm.dimension)
            assert np.broadcast_shapes(profile.shape, dm.shape) == dm.shape and profile.size == values.size
            assert not profile.flags.writeable and np.shares_memory(profile, values)
            assert np.array_equal(
                np.broadcast_to(profile, dm.shape),
                np.broadcast_to(np.reshape(values, (-1, 1) if idx == 0 else (1, -1)), dm.shape),
            )
        # and along the same axis of a (k, *shape) batch, leading axes kept in front
        rows = np.stack([circle.a, circle.f])
        assert along(rows, 1, dm.dimension).shape == (2, 1, 16)
        # the views leave their bases as they were: a circle's own samples
        # writeable, a Gaussian line's f', shared from the per-order cache, read-only
        assert circle.a.flags.writeable and not gauss.fprime.flags.writeable


def _closed_form_rates(family, t: float) -> list:
    """Exact (metric, weight) rates of each axis at t, from the family's own parameters.

    A round circle a0 e^{t - t0} with weight f0 + (t - t0)/2 has
    a' = a0 e^{t - t0} and f' = 1/2.  A Gaussian line with multiplier
    u = 1 + (u0 - 1) e^{t - t0} has u' = (u0 - 1) e^{t - t0}, and its weight
    x^2/4 + (1/2) log u has f' = u' / (2u).
    """
    rates = []
    for fam in getattr(family, "factors", (family,)):
        grow = math.exp(t - fam.t0)
        if isinstance(fam, df.geometry.RoundCircleFamily):
            rates.append((fam.a0 * grow, 0.5))
        else:
            u_rate = (fam.u0 - 1.0) * grow
            rates += [(u_rate, 0.5 * u_rate / (1.0 + u_rate))] * fam.n
    return rates


def _sampled_metric(ax):
    return ax.a if ax.kind == "circle" else ax.scale


def _flow_equation_residual(family, t: float, resolution: int = 64) -> dict:
    """Sup-norm defect of the flow equations for a closed-form family at t.

    The family's closed-form rates are compared against the right-hand sides
    a - 2 Hess f and 1/2 - Hess f / a (Ric = S = 0) of its sampled state.  A
    circle's Hess f comes from its own derivatives; a Gaussian line's weight
    has Hess f = 1/2, sampled as ``hess_f`` (its differentiated Hessian is
    checked in ``TestDiscretize``).
    """
    dm = df.discretize(df.evaluate_family(family, t), resolution=resolution)
    metric_res = 0.0
    weight_res = 0.0
    for ax, (a_rate, f_rate) in zip(dm.axes, _closed_form_rates(family, t), strict=True):
        hess_f = ax.hess_f
        a = _sampled_metric(ax)
        metric_res = max(metric_res, float(np.max(np.abs(a_rate - (a - 2.0 * hess_f)))))
        weight_res = max(weight_res, float(np.max(np.abs(f_rate - (0.5 - hess_f / a)))))
    return {"metric": metric_res, "weight": weight_res}


def _time_difference_defect(family, t: float, dt: float, resolution: int = 64) -> float:
    """Sup-norm gap between the closed-form rates at t and central time
    differences of the sampled (a, f); O(dt^2) when the family evaluates the
    closed form whose rates ``_closed_form_rates`` gives."""
    dms = [df.discretize(df.evaluate_family(family, t + s), resolution=resolution) for s in (-dt, dt)]
    defect = 0.0
    for i, (a_rate, f_rate) in enumerate(_closed_form_rates(family, t)):
        before, after = dms[0].axes[i], dms[1].axes[i]
        a_dot = (_sampled_metric(after) - _sampled_metric(before)) / (2.0 * dt)
        f_dot = (after.f - before.f) / (2.0 * dt)
        defect = max(defect, float(np.max(np.abs(a_dot - a_rate))), float(np.max(np.abs(f_dot - f_rate))))
    return defect


_FAMILIES = [
    df.scaled_gaussian_family(2.0, 1),
    df.scaled_gaussian_family(0.7, 1),
    df.round_circle_family(1.5),
    df.product_family([df.scaled_gaussian_family(2.0, 1), df.round_circle_family(1.0)]),
]


class TestFlowEquationResiduals:
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_families_solve_the_flow_to_round_off(self, family):
        for t in (0.0, 0.1, 0.2):
            res = _flow_equation_residual(family, t)
            assert res["metric"] < 1e-14 and res["weight"] < 1e-14

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_families_move_at_their_closed_form_rates(self, family):
        # a family whose evaluate drifts from its closed form (a wrong
        # exponent in a or u, a wrong slope in f) misses these rates by O(1)
        coarse = _time_difference_defect(family, t=0.1, dt=1e-2)
        fine = _time_difference_defect(family, t=0.1, dt=5e-3)
        assert coarse < 1e-3
        # halving dt divides an O(dt^2) defect by about 4, unless the defect
        # already sits at the floating-point floor
        assert fine < max(coarse / 3.0, 1e-13)

    def test_static_soliton_exact(self):
        # u0 = 1: the multiplier is exactly 1.0 at every t and every rate is 0
        fam = df.scaled_gaussian_family(1.0, 1)
        assert _flow_equation_residual(fam, t=0.2) == {"metric": 0.0, "weight": 0.0}
        assert _time_difference_defect(fam, t=0.2, dt=1e-3) == 0.0
