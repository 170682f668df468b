"""Acceptance gate: every criterion at its stated tolerance, one line each.

The ten criteria run once, through ``driftflow verify --out``, and each test
reads its criterion's entry of the ``acceptance_report.json`` that writes.
Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines,
or ``driftflow verify`` for the same suite outside pytest.
"""

import json
import math

import numpy as np
import pytest

from driftflow import acceptance, flow, spectral
from driftflow.cli import main
from driftflow.config import ScenarioConfig
from driftflow.flow import RunRequest, run_flow
from driftflow.geometry import (
    gaussian_line, product_family, round_circle_family, scaled_gaussian_family, weighted_circle,
)
from driftflow.splitting import detect_splitting


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    main(["verify", "--out", str(out)])
    return {entry["id"]: entry for entry in json.loads((out / "acceptance_report.json").read_text())}


def _check(report, cid):
    entry = report[cid]
    assert entry["passed"], entry["detail"]


def test_c01_sharpness(report):
    _check(report, 1)


def test_c02_eternal_below_half(report):
    _check(report, 2)


def test_c03_bound_compliance(report):
    _check(report, 3)


def test_c04_evolution_identities(report):
    _check(report, 4)


def test_c05_bochner_identity(report):
    _check(report, 5)


def test_c06_commutator(report):
    _check(report, 6)


def test_c07_comparison_suite(report):
    _check(report, 7)


def test_c07_values_keep_their_bits(report):
    # C07 integrates its seeded ODEs in plain Python loops; a rewrite of them must not move their values
    values = {check["name"]: float(check["value"]).hex() for check in report[7]["checks"]}
    assert values["bound vs RK4"] == "0x1.4c00000000000p-48"
    assert values["envelope excess"] == "-0x1.f37ef7b064000p-15"


def test_c08_gram_schmidt_derivative(report):
    _check(report, 8)


def test_c09_splitting(report):
    _check(report, 9)


def test_c10_spectral_correctness(report):
    _check(report, 10)


def test_every_criterion_is_covered(report):
    assert len(acceptance.CRITERIA) == 10
    assert sorted(report) == list(range(1, 11))


def test_report_records_follow_the_one_rule(report):
    for entry in report.values():
        assert entry["checks"]
        for record in entry["checks"]:
            assert record["passed"] == (record["value"] <= record["tol"])
            assert record["margin"] == record["tol"] - record["value"]
        assert entry["passed"] == all(record["passed"] for record in entry["checks"])
        assert set(entry) == {"id", "name", "passed", "detail", "seconds", "checks"}


@pytest.mark.parametrize(
    "value, tol, passed",
    [
        (math.nan, 1.0, False),
        (1e-6, 1e-6, True),
        (2e-6, 1e-6, False),
        (-math.inf, 1e-6, True),
        # a strict "< 0", as C03's strict margin: exactly 0 fails, the next float below passes
        (0.0, math.nextafter(0.0, -math.inf), False),
        (-5e-324, math.nextafter(0.0, -math.inf), True),
    ],
)
def test_check_passes_exactly_when_value_is_at_most_tol(value, tol, passed):
    check = acceptance.Check("x", value, tol)
    assert check.passed is passed
    assert acceptance.failed({"group": [check]}) == ([] if passed else ["group"])


def test_an_empty_group_fails():
    assert acceptance.failed({"empty": [], "full": [acceptance.Check("x", 0.0, 0.0)]}) == ["empty"]


def test_every_tolerance_is_read_by_a_check(monkeypatch):
    windows = {backend: acceptance.splitting_tolerances(backend)["eigenvalue"] for backend in ("galerkin", "analytic")}
    read = set()

    class Tracking(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(acceptance, "VERIFY_TOLERANCES", Tracking(acceptance.VERIFY_TOLERANCES))
    family = product_family([scaled_gaussian_family(1.0, 1), round_circle_family(0.25)])
    for backend, window in windows.items():
        traj = run_flow(RunRequest(family=family, horizon=0.01, dt=1e-3, cadence=5, k=3, backend=backend))
        checks = (
            acceptance.check_bounds(traj)
            + acceptance.check_functionals(traj)
            + acceptance.check_commutator(traj)
            + acceptance.check_bochner(traj.manifolds[0], 0)
            + acceptance.check_splitting(detect_splitting(traj, traj.times[0], traj.times[-1], window), backend)
        )
        assert not acceptance.failed({backend: checks})
    assert read == set(acceptance.VERIFY_TOLERANCES)


def test_analytic_scalars_of_a_fast_circle_stay_bounded():
    # Stepped with plain RK4 far outside its stability interval, these scalars
    # reached 7e72 and E' violation 1.4e184; propagated exactly, they decay.
    config = ScenarioConfig.from_dict({
        "family": "round_circle", "a0": 0.001, "horizon": 0.01, "cadence": 1, "k": 2, "backend": "analytic",
        "check_functionals": True,
    })
    traj = run_flow(config.to_request())
    peak = np.max(np.abs(traj.scalar_values), axis=(1, 2))
    assert np.all(peak <= peak[0])
    checks = {c.name: c for c in acceptance.check_functionals(traj)}
    assert checks["E' violation"].passed and checks["scalar mean"].passed


def _drop_half_dirichlet(monkeypatch):
    sides = acceptance.bochner_sides

    def broken(u, dm):
        lhs, rhs, dirichlet = sides(u, dm)
        return lhs, rhs - 0.5 * dirichlet, dirichlet

    monkeypatch.setattr(acceptance, "bochner_sides", broken)


def _flip_phi(monkeypatch):
    profiles = spectral.soliton_defect_profiles
    monkeypatch.setattr(spectral, "soliton_defect_profiles", lambda dm: [-p for p in profiles(dm)])


def _flip_hess_f_in_phi(monkeypatch):
    monkeypatch.setattr(spectral, "soliton_defect_profiles", lambda dm: [0.5 * ax.a + ax.hess_f for ax in dm.axes])


class TestBochnerResidual:
    """check_bochner and C05 share one residual, |lhs - rhs| over
    max(|lhs|, |rhs|, D/2).  On the static shrinker phi = 0, both sides are
    zero and the old scale max(|lhs|, |rhs|) read round-off over itself, 1.0."""

    @pytest.mark.parametrize("order", [8, 12, 16, 24])
    def test_the_shrinker_passes(self, order):
        dm = gaussian_line(1.0, order=order)
        assert all(np.array_equal(p, np.zeros(order)) for p in spectral.soliton_defect_profiles(dm))
        (check,) = acceptance.check_bochner(dm, 0)
        assert check.passed and check.value < 1e-11

    def test_c05_passes(self):
        assert acceptance.criterion_5_bochner().passed

    # -phi equals phi = 0 on the shrinker, so there phi breaks through the sign of Hess f
    @pytest.mark.parametrize("brk", [_drop_half_dirichlet, _flip_hess_f_in_phi])
    @pytest.mark.parametrize("order", [8, 24])
    def test_a_broken_identity_fails_on_the_shrinker(self, monkeypatch, brk, order):
        brk(monkeypatch)
        (check,) = acceptance.check_bochner(gaussian_line(1.0, order=order), 0)
        assert not check.passed and check.value > 0.1

    @pytest.mark.parametrize("brk", [_drop_half_dirichlet, _flip_phi, _flip_hess_f_in_phi])
    def test_a_broken_identity_fails_on_a_c05_circle(self, monkeypatch, brk):
        brk(monkeypatch)
        result = acceptance.criterion_5_bochner()
        assert not result.passed and result.checks[0].value > 1e-3
        dm = weighted_circle(64, f=lambda th: 0.5 * np.cos(th) - 0.3 * np.sin(2 * th))
        (check,) = acceptance.check_bochner(dm, 0)
        assert not check.passed


# The static shrinker's configs of every dimension: each tracked eigenvalue is 1/2.
SHRINKERS = [
    {"n": 1, "k": 1},
    {"n": 2, "k": 2},
    {"n": 2, "k": 2, "backend": "analytic"},
    {"n": 3, "k": 3},
]


def _shrinker_run(**overrides):
    return run_flow(ScenarioConfig.from_dict({"family": "scaled_gaussian", "u0": 1.0, **overrides}).to_request())


def _scale_d(J, D, dJ):
    return J, D * (1.0 + 1e-3), dJ


def _drop_g_transpose(J, D, dJ):
    # the scalars are eigenfunctions, so G = (dJ - J) / 2 is symmetric
    return J, D, J + (dJ - J) / 2.0


class TestFunctionalsOnTheShrinker:
    """J - 2D and J' are both round-off where every tracked eigenvalue is
    1/2, so the identity defects are measured against at least
    flow.RATE_FLOOR max |J| there (the configs pass, see test_cli); a broken
    identity still fails."""

    @pytest.mark.parametrize("brk", [_scale_d, _drop_g_transpose])
    @pytest.mark.parametrize("overrides", SHRINKERS)
    def test_a_broken_identity_fails_on_the_shrinker(self, monkeypatch, brk, overrides):
        pairings = flow._scalar_pairings
        monkeypatch.setattr(flow, "_scalar_pairings", lambda *args: brk(*pairings(*args)))
        checks = {c.name: c for c in acceptance.check_functionals(_shrinker_run(**overrides))}
        assert not checks["rel J'"].passed and not checks["rel I'"].passed
        assert checks["rel J'"].value > 0.1
