"""Tests of the benchmark's own code: the closed-form checkers and the spans.

    python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import closed_forms as cf  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def test_closed_form_spectra():
    assert list(cf.circle_spectrum(4.0, 5)) == [0.0, 0.25, 0.25, 1.0, 1.0]
    assert list(cf.gaussian_spectrum(2.0, 3)) == [0.0, 0.25, 0.5]
    # Gaussian (k/2) times circle a = 4: 0, 1/4, 1/4, 1/2, 3/4, 3/4, 1, 1
    assert list(cf.minkowski(8, cf.gaussian_spectrum(1.0, 8), cf.circle_spectrum(4.0, 8))) == [
        0.0, 0.25, 0.25, 0.5, 0.75, 0.75, 1.0, 1.0
    ]
    # three Gaussian lines with u = 1/2: 0, then 1 three times, then 2 six times
    assert list(cf.minkowski(10, *[cf.gaussian_spectrum(0.5, 10)] * 3)) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2]


def _product_series(n=11, horizon=0.1, k=3):
    times = np.linspace(0.0, horizon, n)
    lam = np.stack([cf.product_scalars_spectrum(t, k + 1) for t in times])
    # bound curve started at each lambda_j(0); it dominates every exact curve here
    bounds = np.stack(
        [[l0 / (2 * l0 * (1 - math.exp(t)) + math.exp(t)) for l0 in lam[0, 1:]] for t in times]
    )
    volumes = np.full(n, 44.5466)
    return times, lam, bounds, volumes


@pytest.mark.parametrize("factor", [2.0, 10.0])
def test_product_checker_rejects_perturbed_eigenvalue(factor):
    times, lam, bounds, volumes = _product_series()
    assert cf.product_scalars_problems(times, lam, bounds, volumes) == []
    lam[5, 2] += factor * cf.EIG_TOL * max(1.0, lam[5, 2])
    assert cf.product_scalars_problems(times, lam, bounds, volumes)


def test_product_checker_accepts_deviation_inside_tolerance():
    times, lam, bounds, volumes = _product_series()
    lam[5, 2] -= 0.5 * cf.EIG_TOL
    assert cf.product_scalars_problems(times, lam, bounds, volumes) == []


def test_product_checker_rejects_bound_violation_and_volume_drift():
    times, lam, bounds, volumes = _product_series()
    bounds[4, 0] = lam[4, 1] - 2 * cf.BOUND_SLACK
    assert any("bound" in p for p in cf.product_scalars_problems(times, lam, bounds, volumes))
    times, lam, bounds, volumes = _product_series()
    volumes[-1] *= 1.0 + 2 * cf.VOLUME_TOL
    assert any("volume" in p for p in cf.product_scalars_problems(times, lam, bounds, volumes))


def test_eternal_checker():
    times = np.linspace(0.0, 5.0, 101)
    lam1 = np.array([cf.eternal_lambda1(t) for t in times])
    assert cf.eternal_problems(times, lam1) == []
    bad = lam1.copy()
    bad[37] += 2 * cf.EIG_TOL
    assert cf.eternal_problems(times, bad)
    # the series of the static shrinker (u = 1) sits at 1/2 and must fail
    assert cf.eternal_problems(times, np.full(times.size, 0.5))


def test_spectrum_checker_on_ladder_spectra():
    for expected in (
        cf.circle_spectrum(1.7, 7),
        cf.minkowski(7, cf.gaussian_spectrum(0.8, 7), cf.circle_spectrum(2.5, 7)),
        cf.minkowski(7, *[cf.gaussian_spectrum(1.3, 7)] * 3),
    ):
        assert cf.spectrum_problems("rung", expected.copy(), expected) == []
        for j in range(expected.size):
            bad = expected.copy()
            bad[j] += 2 * cf.EIG_TOL * max(1.0, expected[j])
            assert cf.spectrum_problems("rung", bad, expected), j
        assert cf.spectrum_problems("rung", expected[:-1], expected)


def test_orthonormality_checker():
    rng = np.random.default_rng(0)
    mass = rng.uniform(0.5, 2.0, 50)
    q, _ = np.linalg.qr(rng.standard_normal((50, 4)))
    fields = (q / np.sqrt(mass)[:, None]).T  # orthonormal in sum(u v mass)
    assert cf.orthonormality_problems("rung", fields, mass) == []
    bad = fields.copy()
    bad[2] *= 1.0 + 2 * cf.ORTHO_TOL
    assert cf.orthonormality_problems("rung", bad, mass)


def test_verify_report_checker():
    report = [{"id": i, "passed": True, "detail": ""} for i in range(1, 11)]
    assert cf.verify_report_problems(report) == []
    report[6]["passed"] = False
    assert cf.verify_report_problems(report) == ["C07 did not pass: "]
    assert cf.verify_report_problems(report[:9])


# --------------------------------------------------------------------------
# machine-speed scaling
# --------------------------------------------------------------------------


def test_speed_scale_uses_the_median_of_every_reference_time():
    # a machine at half the nominal speed, with one outlier either way
    workers = [
        {"nominal_s": 0.05, "reference_s": [0.1, 0.1, 0.5, 0.1]},
        {"nominal_s": 0.05, "reference_s": [0.1, 0.01]},
    ]
    assert run.speed_scale(workers) == pytest.approx(0.5)


@pytest.mark.parametrize("kind", sorted(reference.KINDS))
def test_reference_computation_is_finite_and_timed(kind):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(math.isfinite(part()) for part in reference.KINDS[kind])
        assert reference.seconds(kind) > 0.0


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


class ScriptedClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_of_nested_spans():
    # run [0, 10] contains step [1, 4] (which contains lap [2, 3]) and
    # step [5, 9] (which contains lap [6, 6.5] and lap [7, 8.5]).
    tracer = spans.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 6, 6.5, 7, 8.5, 9, 10]))
    tracer.enter("run")
    tracer.enter("step")
    tracer.enter("lap")
    tracer.exit()
    tracer.exit()
    tracer.enter("step")
    tracer.enter("lap")
    tracer.exit()
    tracer.enter("lap")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    t = tracer.totals()
    assert (t["run.calls"], t["step.calls"], t["lap.calls"]) == (1, 2, 3)
    assert (t["run.s"], t["step.s"], t["lap.s"]) == (10, 7, 3)
    assert (t["run.self_s"], t["step.self_s"], t["lap.self_s"]) == (3, 4, 3)


def test_recursive_span_counts_inclusive_time_once():
    tracer = spans.Tracer(clock=ScriptedClock([0, 1, 3, 4]))
    tracer.enter("f")
    tracer.enter("f")
    tracer.exit()
    tracer.exit()
    t = tracer.totals()
    assert (t["f.calls"], t["f.s"], t["f.self_s"]) == (2, 4, 4)


def test_install_wraps_every_lookup_site_and_restores():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import driftflow.acceptance as acceptance
    import driftflow.flow as flow
    import driftflow.runner as runner
    import driftflow.spectral as spectral
    from driftflow.axes import HermiteLineAxis
    from driftflow.geometry import scaled_gaussian_family

    originals = (flow.drift_laplacian, spectral.drift_laplacian, runner.execute, HermiteLineAxis.__init__)
    criteria = list(acceptance.CRITERIA)
    with spans.install(spans.Tracer()) as tracer:
        assert flow.drift_laplacian is spectral.drift_laplacian is not originals[0]
        assert acceptance.CRITERIA != criteria
        req = flow.RunRequest(family=scaled_gaussian_family(2.0, 1), horizon=0.002, dt=1e-3, cadence=1, k=1)
        flow.run_flow(req)
    assert (flow.drift_laplacian, spectral.drift_laplacian, runner.execute, HermiteLineAxis.__init__) == originals
    assert acceptance.CRITERIA == criteria
    t = tracer.totals()
    assert t["flow.run_flow.calls"] == 1
    # tracked scalar: 2 steps x 3 RK4 steps x 4 stages, plus the commutator probe at 3 outputs
    assert t["spectral.drift_laplacian.calls"] == 2 * 3 * 4 + 3
    assert t["axes.HermiteLineAxis.calls"] > 0
    assert 0.0 < t["flow.run_flow.self_s"] < t["flow.run_flow.s"]
