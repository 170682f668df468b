import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

import driftflow as df
from driftflow import acceptance
from driftflow.axes import along
from driftflow.errors import UsageError
from driftflow.flow import RunRequest, _factor, _Layout, _output_steps, _run_loop, output_index
from driftflow.oracles import gradient_inner
from driftflow.spectral import partials

WINDOW = acceptance.splitting_tolerances("galerkin")["eigenvalue"]


@pytest.fixture(scope="module")
def product_traj():
    fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(0.25)])
    req = RunRequest(family=fam, horizon=0.1, dt=1e-3, cadence=10, k=3, track_scalars=False)
    return df.run_flow(req)


@pytest.fixture(scope="module")
def product_cert(product_traj):
    return df.detect_splitting(product_traj, product_traj.times[0], product_traj.times[-1], WINDOW)


class TestDetection:
    def test_certificate_fires_and_is_valid(self, product_cert):
        assert isinstance(product_cert, df.SplittingCertificate)
        assert product_cert.k == 1
        assert not acceptance.failed({"splitting": acceptance.check_splitting(product_cert, "galerkin")})

    def test_residuals_are_tiny_on_exact_product(self, product_cert):
        res = product_cert.residuals
        assert float(np.max(res["hessian_energies"])) < 1e-9
        assert res["gradient_norm_deviation"] < 1e-9
        assert res["gradient_gram_deviation"] < 1e-9
        assert res["weight_decomposition"] < 1e-9
        assert res["metric_block"] < 1e-9
        assert res["factor_equation_1"] < 1e-9
        assert res["factor_equation_2"] < 1e-9

    def test_direction_is_the_gaussian_coordinate(self, product_cert, product_traj):
        dm = product_traj.manifolds[0]
        x = along(dm.axes[0].nodes, 0, dm.dimension)
        u = product_cert.directions[0]
        sign = math.copysign(1.0, float(np.sum(u * x)))
        assert float(np.max(np.abs(sign * u - x))) < 1e-8

    def test_negative_control_gaussian(self):
        traj = df.run_flow(
            RunRequest(family=df.scaled_gaussian_family(2.0, 1), horizon=0.05, dt=1e-3,
                       cadence=10, k=2, track_scalars=False)
        )
        out = df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)
        assert isinstance(out, df.SplittingHypothesisFailure)
        assert not out
        assert acceptance.failed({"splitting": acceptance.check_splitting(out, "galerkin")}) == ["splitting"]

    def test_negative_control_circle(self):
        traj = df.run_flow(
            RunRequest(family=df.round_circle_family(4.0), horizon=0.05, dt=1e-3,
                       cadence=10, k=2, track_scalars=False)
        )
        out = df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)
        assert isinstance(out, df.SplittingHypothesisFailure)
        assert out.violated == "lambda_k(t0) = 1/2"
        [check] = acceptance.check_splitting(out, "galerkin")
        assert check.value == abs(out.lambda_cluster_t0 - 0.5) and check.tol == WINDOW and not check.passed
        # lambda_1 = lambda_2 = 1/4 on the round circle: a tie names the first
        assert traj.eigenvalues[0, 1] == traj.eigenvalues[0, 2] and check.name == "|lambda_1(t0) - 1/2|"

    def test_hypothesis_record_names_the_eigenvalue_nearest_half(self):
        # lambda_j = j / 3.8 at t0: 0.263 and 0.526, so lambda_2 is the nearest to 1/2
        traj = df.run_flow(
            RunRequest(family=df.scaled_gaussian_family(1.9, 1), horizon=0.05, dt=1e-3,
                       cadence=10, k=2, track_scalars=False)
        )
        out = df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)
        lam = traj.eigenvalues[0]
        assert out.violated == "lambda_k(t0) = 1/2" and out.lambda_cluster_t0 == lam[2]
        assert "lambda_2 = 0.526316" in out.message
        [check] = acceptance.check_splitting(out, "galerkin")
        assert check.name == "|lambda_2(t0) - 1/2|"
        assert check.value == min(abs(lam[1] - 0.5), abs(lam[2] - 0.5)) == pytest.approx(0.02631578947368, rel=1e-12)
        assert not check.passed

    def test_lambda_1_dropping_below_half_is_one_failing_record(self):
        # lambda_1 = e^-t / 2 on the round circle with a0 = 2: at 1/2 only at t = 0
        traj = df.run_flow(
            RunRequest(family=df.round_circle_family(2.0), horizon=0.05, dt=1e-3,
                       cadence=10, k=2, track_scalars=False)
        )
        out = df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)
        assert out.violated == "lambda_1(t1) >= 1/2"
        [check] = acceptance.check_splitting(out, "galerkin")
        assert not check.passed
        assert check.margin == pytest.approx(out.lambda_1_t1 - (0.5 - WINDOW))

    def test_certificate_is_frozen(self, product_cert):
        with pytest.raises(dataclasses.FrozenInstanceError):
            product_cert.residuals = {}

    def test_window_ordering_checked(self, product_traj):
        with pytest.raises(UsageError):
            df.detect_splitting(product_traj, product_traj.times[-1], product_traj.times[0], WINDOW)

    def test_window_of_one_output_refused(self, product_traj):
        # outputs every 0.01: t0 = 0.098 and t1 = 0.1 both read the last output
        with pytest.raises(UsageError, match="read outputs 10 and 10"):
            df.detect_splitting(product_traj, 0.098, 0.1, WINDOW)

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    def test_output_index_is_the_nearest_recorded_output(self, backend):
        # off cadence, so the last output interval is shorter than the others
        fam = df.product_family([df.scaled_gaussian_family(1.0, 2, 0.3), df.round_circle_family(0.25, 0.3)])
        req = RunRequest(family=fam, horizon=0.301, dt=1e-3, cadence=20, k=2, backend=backend, track_scalars=False)
        times = df.run_flow(req).times
        ts = [*np.linspace(0.29, 0.61, 321), *times, *(times[1:] + times[:-1]) / 2]
        for t in ts:
            # the rule on the recorded times: the first nearest, within half the first interval
            want = int(np.argmin(np.abs(times - t)))
            if abs(times[want] - t) > 0.5 * (times[1] - times[0]):
                with pytest.raises(UsageError):
                    output_index(req, t)
            else:
                assert output_index(req, t) == want, t

    @pytest.mark.parametrize("backend", ["galerkin", "analytic"])
    def test_a_later_window_has_the_bits_of_its_outputs_stacked_solve(self, recorded_solves, backend):
        # a run keeps no eigenfunction; the certificate re-solves output i0
        # alone, in the bits of the run's stacked solve of that output
        fam = df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(0.25)])
        req = RunRequest(family=fam, horizon=0.2, dt=1e-3, cadence=20, k=3, backend=backend, track_scalars=False)
        traj = df.run_flow(req)
        i0 = 6
        window = acceptance.splitting_tolerances(backend)["eigenvalue"]
        cert = df.detect_splitting(traj, traj.times[i0], traj.times[-1], window)
        assert cert and cert.k == 1
        # the solve that seeds the run, then the stacks of outputs 0, 1, ...; output i0 is not the first of its stack
        rows = [(stack, i) for stack in recorded_solves[1:] for i in range(len(stack.t))]
        stack, i = rows[i0]
        assert stack.t[i] == traj.times[i0] and i > 0
        dm, u = traj.manifolds[i0], stack.eigenfunctions[i, 1]  # lambda_1 = 1/2, the Gaussian coordinate
        du = partials(dm, u)
        want = u * math.sqrt(dm.weighted_volume() / dm.integrate(gradient_inner(dm, du, du)))
        assert cert.directions[0].tobytes() == want.tobytes()


class TestCertificateResiduals:
    def test_recompute_matches_stored(self, product_cert, product_traj):
        res = df.certificate_residuals(product_cert.directions, product_traj.manifolds[0])
        assert float(np.max(res["hessian_energies"])) < 1e-9
        assert res["weight_decomposition"] < 1e-9

    def test_bad_direction_has_large_hessian_energy(self, product_traj):
        dm = product_traj.manifolds[0]
        theta = along(dm.axes[1].nodes, 1, dm.dimension)
        res = df.certificate_residuals([np.broadcast_to(np.cos(theta), dm.shape)], dm)
        # |Hess cos|^2 = a^{-2} cos^2 on the circle factor, integrated with
        # sqrt(a) = 1/2 against the gaussian volume 2 sqrt(pi)
        expected = 16.0 * math.pi * 0.5 * 2.0 * math.sqrt(math.pi)
        assert res["hessian_energies"][0] == pytest.approx(expected, rel=1e-10)
        assert res["hessian_energies"][0] > acceptance.splitting_tolerances("galerkin")["hessian_energy"]

    def test_no_directions_are_trivially_valid(self, product_traj):
        res = df.certificate_residuals([], product_traj.manifolds[0])
        assert res["weight_decomposition"] == 0.0
        assert res["factor_equation_1"] == 0.0


class TestToleranceMonotonicity:
    def test_shrinking_tolerance_only_invalidates(self, product_cert, monkeypatch):
        assert not acceptance.failed({"splitting": acceptance.check_splitting(product_cert, "galerkin")})
        for field, tol in zip(acceptance.splitting_tolerances("galerkin"), (1e-16, 1e-30, 1e-30, 1e-30, 1e-30, 1e-30)):
            monkeypatch.setitem(acceptance.VERIFY_TOLERANCES, f"splitting_{field}_galerkin", tol)
        # all real residuals exceed absurdly tight budgets
        assert acceptance.failed({"splitting": acceptance.check_splitting(product_cert, "galerkin")}) == ["splitting"]


class TestStationarityOfDirections:
    def test_direction_field_barely_moves(self, product_cert, product_traj):
        u0 = product_cert.directions[0]
        # u0 = x (x) 1, a product of its row and column through its largest
        # entry, carried by u_t = L u + u/2 through the run's own Galerkin
        # integration, which carries such per-axis columns
        i, j = np.unravel_index(np.argmax(np.abs(u0)), u0.shape)
        columns0 = [u0[:, j][None], (u0[i] / u0[i, j])[None]]
        assert np.max(np.abs(np.outer(*columns0) - u0)) < 1e-15 * np.max(np.abs(u0))
        request, dm0 = product_traj.request, product_traj.manifolds[0]
        layout = _Layout.of(dm0, 1)  # both axes diagonal: E carries the columns, and nothing is stepped
        rows, integrals, lags, _ = _run_loop(request, layout, dm0, columns0, *_output_steps(request))
        factors = _factor(layout, columns0, integrals, lags)
        dm_last = layout.stack(rows, product_traj.times)[-1]
        diff = np.outer(factors[0][-1, 0], factors[1][-1, 0]) - u0
        change = math.sqrt(dm_last.integrate(diff * diff))
        assert change < 1e-8


class TestSerialization:
    def test_json_payload(self, product_cert, product_traj):
        doc = product_cert.to_json_dict()
        assert doc["k"] == 1
        assert set(doc["hypotheses"]) == {"lambda_cluster_t0", "lambda_1_t1"}
        # one name per residual: the certificate's own, those of certificate_residuals
        assert doc["residuals"] == product_cert.residuals
        names = set(df.certificate_residuals([], product_traj.manifolds[0]))
        assert set(doc["residuals"]) == names | {"eigenvalue_window_deviation"}
        assert isinstance(doc["residuals"]["hessian_energies"], list)
        # the verdict and the tolerances come from acceptance; certificate.json
        # carries them too (tests/test_cli.py::test_splitting_scenario)
        assert "valid" not in doc and "tolerances" not in doc


# Splitting runs by the number of directions they certify, the last on 16^4 = 65536 points.
_RUNS = {
    1: dict(family=df.product_family([df.scaled_gaussian_family(1.0, 1), df.round_circle_family(0.25)]),
            horizon=0.2, cadence=20, k=3),
    2: dict(family=df.product_family([df.scaled_gaussian_family(1.0, 2), df.round_circle_family(0.25)]),
            horizon=0.2, cadence=20, k=4),
    3: dict(family=df.scaled_gaussian_family(1.0, 3), hermite_order=8, horizon=0.1, k=4),
    4: dict(family=df.scaled_gaussian_family(1.0, 4), hermite_order=16, horizon=0.05, k=4),
}


@functools.cache
def _splitting_run(count: int):
    traj = df.run_flow(RunRequest(dt=1e-3, track_scalars=False, **_RUNS[count]))
    return traj, df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)


@pytest.fixture(params=list(_RUNS))
def splitting_run(request):
    return request.param, *_splitting_run(request.param)


def _per_pair_residuals(directions, dm) -> dict:
    """The certificate residuals by their definitions, one direction and one
    pair at a time: each field's partials, the per-pair gradient inner
    products of ``oracles``, the strength of each axis over the directions,
    and loops over the axes for f_N, the metric block and the factor
    equations; each direction's Hessian energy from ``hessian_norm_sq``."""
    d, k = dm.dimension, len(directions)
    grads = [partials(dm, u) for u in directions]
    volume = dm.weighted_volume()
    norm_dev = gram_dev = gram_sum = 0.0
    for i in range(k):
        for j in range(i, k):
            pij = gradient_inner(dm, grads[i], grads[j])
            dev = float(np.max(np.abs(pij - (1.0 if i == j else 0.0))))
            if i == j:
                norm_dev = max(norm_dev, dev)
            else:
                gram_dev = max(gram_dev, dev)
            gram_sum += dm.integrate(pij) / volume

    strengths = np.zeros(d)
    for m in range(d):
        for du in grads:
            strengths[m] = max(strengths[m], float(np.max(np.abs(du[m]))))
    split = [m for m in range(d) if strengths[m] > 1e-3 * max(float(np.max(strengths)), 1e-300)]
    q = 0.25 * sum(u * u for u in directions)
    fbar = dm.f_field() - q
    f_n = fbar
    for m in split:
        w = dm.axes[m].wdens
        f_n = np.sum(f_n * along(w / np.sum(w), m, d), axis=m, keepdims=True)

    metric = check1 = lap_q = 0.0
    dq = partials(dm, q)
    for m, ax in enumerate(dm.axes):
        a = along(ax.a, m, d)
        speed = sum(du[m] * du[m] for du in grads) / a
        metric = max(metric, float(np.max(np.abs(speed - (1.0 if m in split else 0.0)))))
        hq = ax.d2(q, m) - along(ax.christoffel, m, d) * dq[m]
        block = a - 2.0 * along(ax.hess_f, m, d) if m in split else 2.0 * hq
        check1 = max(check1, float(np.max(np.abs(block))))
        for n in range(m + 1, d):
            check1 = max(check1, float(np.max(np.abs(2.0 * dm.axes[n].d1(dq[m], n)))))
        lap_q = lap_q + hq / a

    return {
        "hessian_energies": np.array([df.hessian_norm_sq(u, dm) for u in directions]),
        "gradient_gram_mean": gram_sum / (k * (k + 1) / 2),
        "gradient_gram_deviation": max(gram_dev, norm_dev),
        "gradient_norm_deviation": norm_dev,
        "weight_decomposition": float(np.max(np.abs(fbar - f_n))),
        "metric_block": metric,
        "factor_equation_1": check1,
        "factor_equation_2": float(np.max(np.abs(lap_q - k / 2.0))),
    }


class TestPerPairReference:
    def test_directions_are_unit_gradient_fields_of_the_cluster(self, splitting_run):
        count, traj, cert = splitting_run
        assert cert and cert.k == count
        dm = traj.manifolds[0]
        solve = df.lowest_eigenpairs(df.assemble_forms(dm), traj.request.k, traj.request.eig_tol)
        for u, want in zip(solve.eigenfunctions[1 : cert.k + 1], cert.directions):
            du = partials(dm, u)
            scaled = u * math.sqrt(dm.weighted_volume() / dm.integrate(gradient_inner(dm, du, du)))
            assert scaled.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mixed", [False, True])
    @pytest.mark.parametrize("output", [0, -1])
    def test_residuals_have_the_bits_of_their_per_pair_definitions(self, splitting_run, output, mixed):
        count, traj, cert = splitting_run
        dm = traj.manifolds[output]
        # mixed: u_i + 0.75 sum_{j > i} u_j, neither unit nor orthogonal, an off-diagonal Gram entry the worst
        mix = np.eye(count) + np.triu(np.full((count, count), 0.75 if mixed else 0.0), 1)
        directions = np.tensordot(mix, cert.directions, 1)
        got, want = df.certificate_residuals(directions, dm), _per_pair_residuals(directions, dm)
        assert got.keys() == want.keys()
        # the batch's integrals and the one field's sum in different orders
        np.testing.assert_allclose(got.pop("hessian_energies"), want.pop("hessian_energies"), rtol=1e-12, atol=0)
        assert got == want

    # tracemalloc peaks of one detect_splitting call when each direction took
    # its own partials and each pair its own gradient_inner
    @pytest.mark.parametrize("count, mib", [(2, 2.9), (4, 35.0)])
    def test_one_certificate_holds_no_more_than_the_per_pair_build(self, count, mib):
        traj, _ = _splitting_run(count)
        tracemalloc.start()
        try:
            df.detect_splitting(traj, traj.times[0], traj.times[-1], WINDOW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20
