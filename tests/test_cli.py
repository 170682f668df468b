import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from driftflow import acceptance, cli, config, flow
from driftflow.cli import main
from driftflow.config import ScenarioConfig, load_config
from driftflow.errors import ConfigurationError, DegeneracyError, SolverError, StabilityError

LOG2 = math.log(2.0)


def _write_config(path, **overrides):
    doc = {
        "name": "sharp",
        "family": "scaled_gaussian",
        "u0": 2.0,
        "horizon": LOG2,
        "dt": 1e-3,
        "cadence": 10,
        "k": 1,
        "track_scalars": False,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(x) for x in line.split(",")] for line in fh])
    return header, rows


class TestConfigSchema:
    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ScenarioConfig.from_dict({"name": "x", "wrong": 1})

    def test_range_checks(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"a0": -1.0, "family": "round_circle"})
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"dt": 1.0})
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"modes": 64, "resolution": 64})

    def test_type_checks(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"horizon": "long"})
        with pytest.raises(ConfigurationError):
            ScenarioConfig.from_dict({"k": 2.5})

    # The type of every config key, and values of other types it refuses.
    KEY_TYPES = {
        "a string": (("name", "family", "factors", "backend", "out_dir"), (1, None, True, ["x"])),
        "a boolean": (
            ("track_scalars", "check_bounds", "check_functionals", "check_commutator", "check_bochner",
             "check_splitting"),
            (1, 0, "true", None),
        ),
        "an integer": (("cadence", "resolution", "hermite_order", "modes", "k", "n", "seed"), (2.0, True, "2", None)),
        "a number": (
            ("u0", "a0", "f0", "t0", "horizon", "dt", "eig_tol", "adaptive_tol", "splitting_t0", "splitting_t1"),
            ("1", True, [1.0]),
        ),
    }

    def test_every_key_is_type_checked(self):
        keys = [key for names, _ in self.KEY_TYPES.values() for key in names]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ScenarioConfig))
        for what, (names, wrong) in self.KEY_TYPES.items():
            for key in names:
                for value in wrong:
                    with pytest.raises(ConfigurationError) as err:
                        ScenarioConfig.from_dict({key: value})
                    assert str(err.value) == f"config key {key} must be {what}"

    @pytest.mark.parametrize("key", ["splitting_t0", "splitting_t1"])
    def test_splitting_window_must_lie_in_the_run(self, key):
        # checked without check_splitting too; with it, an end alone at the run's
        # other end is a window of one output (test_a_splitting_window_of_one_output_...)
        base = {"t0": 1.0, "horizon": 0.5}
        for val in (1.0, 1.5):  # the run's two ends are inside
            assert getattr(ScenarioConfig.from_dict({**base, key: val}), key) == val
        for val in (0.99, 1.51, 7.0):
            with pytest.raises(ConfigurationError, match=rf"^config key {key} = {val} outside \[1\.0, 1\.5\]$"):
                ScenarioConfig.from_dict({**base, key: val})

    def test_a_long_run_checks_its_splitting_window_without_listing_its_outputs(self):
        # 10^8 + 1 outputs: the window check reads only the outputs next to its ends
        raw = {"horizon": 100.0, "dt": 1e-6, "cadence": 1, "check_splitting": True}
        tracemalloc.start()
        try:
            assert ScenarioConfig.from_dict({**raw, "splitting_t0": 99.9999991}).splitting_t0 == 99.9999991
            with pytest.raises(ConfigurationError, match="read outputs 100000000 and 100000000 of 0..100000000"):
                ScenarioConfig.from_dict({**raw, "splitting_t0": 99.9999999})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_product_factor_string(self, tmp_path):
        cfg = ScenarioConfig.from_dict(
            {
                "family": "product",
                "factors": "scaled_gaussian:u0=1,n=1;round_circle:a0=0.25",
                "horizon": 0.1,
            }
        )
        family = cfg.build_family()
        assert len(family.factors) == 2

    def test_run_keys_share_their_defaults(self):
        # every run key with a default has the same default in the config,
        # so a config that leaves it out runs as the request would
        config = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}
        keys = [f for f in dataclasses.fields(flow.RunRequest) if f.default is not dataclasses.MISSING]
        assert len(keys) == 10  # all but the family and the horizon
        for f in keys:
            assert f.name in config and config[f.name] == f.default and type(config[f.name]) is type(f.default), f.name

    def test_to_request_passes_every_run_key(self):
        values = {"horizon": 0.25, "dt": 2e-3, "cadence": 3, "resolution": 48, "hermite_order": 9, "modes": 7,
                  "k": 3, "backend": "analytic", "eig_tol": 1e-9, "adaptive_tol": 1e-8, "track_scalars": False}
        request = ScenarioConfig.from_dict(values).to_request()
        assert {key: getattr(request, key) for key in values} == values
        assert request.family.t0 == 0.0

    def test_hash_stability(self, tmp_path):
        c1 = ScenarioConfig.from_dict({"name": "a", "horizon": 0.25})
        c2 = ScenarioConfig.from_dict({"horizon": 0.25, "name": "a"})
        assert c1.config_hash() == c2.config_hash()

    def test_load_config_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigurationError):
            load_config(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ConfigurationError):
            load_config(str(bad))


class TestRunCommand:
    def test_sharpness_scenario(self, tmp_path):
        cfg = _write_config(tmp_path / "sharp.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        run_dir = out / "sharp"
        header, rows = _read_csv(run_dir / "trajectory.csv")
        lam1 = rows[:, header.index("lambda_1")]
        bound1 = rows[:, header.index("bound_1")]
        # the rescaled Gaussian saturates its own bound
        np.testing.assert_allclose(lam1, bound1, rtol=1e-8)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == {"trajectory.csv", "bounds.csv", "spectra.json", "manifest.json"}
        for name in manifest["files"]:
            assert (run_dir / name).exists()
        assert manifest["config_hash"] == load_config(str(cfg)).config_hash()
        assert manifest["oracle_reports"]

    @pytest.mark.parametrize("order", [8, 12, 16])
    def test_bochner_on_the_static_shrinker_passes(self, tmp_path, order):
        # phi = 0 there, so both sides of the identity are zero; this exited 5 with "bochner rel 1.000e+00"
        cfg = _write_config(
            tmp_path / "shrinker.json", name="shrinker", u0=1, horizon=0.05, k=2, hermite_order=order,
            check_bochner=True,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) == 0
        manifest = json.loads((tmp_path / "out" / "shrinker" / "manifest.json").read_text())
        (check,) = manifest["verifications"]["bochner"]
        assert check["passed"] and check["value"] < 1e-11

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "sharp.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        b1 = (out1 / "sharp" / "trajectory.csv").read_bytes()
        b2 = (out2 / "sharp" / "trajectory.csv").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("horizon, cadence", [(0.3, 1), (0.301, 2)])
    def test_default_adaptive_tol_never_halves_and_the_floor_runs(self, tmp_path, monkeypatch, horizon, cadence):
        # the shape of criterion 4, whose step estimate h^4 / 72 lies just above the schema floor 1e-14;
        # the round circle steps as a list, and each halving recurses through the list kernel
        calls = []
        kernel = flow._list_steps

        def counted(*args, **kwargs):
            calls.extend([args[-3]] * args[-2])  # h for each of the count steps of (t, z, h, count, k1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(flow, "_list_steps", counted)
        for tol in (1e-9, 1e-14):
            calls.clear()
            cfg = _write_config(
                tmp_path / "circle.json", name="circle", family="round_circle", a0=1.0, horizon=horizon,
                cadence=cadence, k=2, track_scalars=True, adaptive_tol=tol,
            )
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / f"o{tol}")]) == 0
            steps = round(horizon / 1e-3)
            if tol == 1e-9:
                assert calls == [1e-3] * steps  # one call per step, none halved
            else:
                assert len(calls) > steps  # the floor halves steps

    @pytest.mark.parametrize(
        "overrides",
        [
            {"family": "round_circle", "a0": 1e8, "horizon": 0.5},
            {"family": "scaled_gaussian", "u0": 1e8, "horizon": 0.5},
            {"family": "round_circle", "f0": 50.0, "horizon": 0.1},
        ],
    )
    def test_large_values_at_the_schema_bounds_run(self, tmp_path, overrides):
        # each block's estimate is relative to its own size, so no step halves on these
        cfg = _write_config(tmp_path / "big.json", name="big", k=2, track_scalars=True, **overrides)
        start = time.perf_counter()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert time.perf_counter() - start < 5.0

    def test_round_circle_run_does_not_import_scipy(self, tmp_path):
        cfg = _write_config(tmp_path / "circle.json", name="circle", family="round_circle", a0=1.0, horizon=0.01)
        script = (
            "import sys; from driftflow.cli import main; print('scipy' in sys.modules); "
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print('scipy' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(flow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        lines = result.stdout.splitlines()
        assert [lines[0], lines[-1]] == ["False", "False"]  # after the import, after the run

    def test_run_does_not_import_multiprocessing(self, tmp_path):
        # only a sweep with more than one worker needs the process pool
        cfg = _write_config(tmp_path / "g.json", name="g", horizon=0.01)
        script = (
            "import sys; from driftflow.cli import main; "
            f"assert main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(flow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert result.stdout.splitlines()[-1] == "[]"

    def test_config_error_leaves_no_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "bad.json", family="round_circle", a0=-1.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", ".", "..", "a/b", "/abs", "x\0y", ""])
    def test_name_must_be_one_path_component(self, tmp_path, capsys, name):
        # the name is the run's directory under --out: "../escaped" wrote outside it, "." into the root itself
        cfg = _write_config(tmp_path / "named.json", name=name, horizon=0.01)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: config: scenario name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["named.json"]

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "odd.json"
        cfg.write_text(json.dumps({"name": "x", "horizon": 0.1, "wrong_key": 1}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "factors, message",
        [
            ("scaled_gaussian:u0=1,n=1;round_circle:a=4", "unknown parameter 'a' in factor 'round_circle:a=4'"),
            ("scaled_gaussian:u0=1;torus:a0=1", "unknown factor kind 'torus'"),
            ("scaled_gaussian:u0=1e12", "config key u0 = 1000000000000.0 of factor 'scaled_gaussian:u0=1e12' outside"),
            ("round_circle:a0=4,f0=80", "config key f0 = 80.0 of factor 'round_circle:a0=4,f0=80' outside"),
            ("scaled_gaussian:u0=nan", "config key u0 = nan of factor 'scaled_gaussian:u0=nan' outside"),
            ("scaled_gaussian:u0=1,n=9", "config key n = 9 of factor 'scaled_gaussian:u0=1,n=9' outside [1, 4]"),
            ("scaled_gaussian:u0=1,u0=3", "parameter 'u0' repeated in factor 'scaled_gaussian:u0=1,u0=3'"),
        ],
        ids=["unknown_parameter", "unknown_kind", "u0_too_large", "f0_too_large", "u0_nan", "n_too_large", "repeated"],
    )
    def test_bad_factor_string_exits_2(self, tmp_path, capsys, factors, message):
        cfg = _write_config(tmp_path / "p.json", name="p", family="product", factors=factors, horizon=0.01)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {message}") and err.count("\n") == 1
        assert not out.exists()
        assert main(["sweep", "--config", str(cfg), "--grid", "horizon=0.01,0.02", "--out", str(out)]) == 2
        assert capsys.readouterr().err == err  # the base config fails before any run
        assert not out.exists()

    def test_valid_factor_string_runs(self, tmp_path):
        cfg = _write_config(
            tmp_path / "p.json", name="p", family="product", horizon=0.01,
            factors=" scaled_gaussian: u0 = 1.5 , n=1 ; round_circle:a0=4,f0=-2", k=2,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        gauss, circle = load_config(str(cfg)).build_family().factors
        assert (gauss.u0, gauss.n, circle.a0, circle.f0) == (1.5, 1, 4.0, -2.0)

    def test_breakdown_exit_code(self, tmp_path, capsys, monkeypatch):
        # a horizon past the family's extinction at log 2 is a config error on
        # both backends, raised before the first step and before any output
        steps = []
        for name in ("_array_steps", "_float_steps", "_list_steps"):
            monkeypatch.setattr(flow, name, lambda *args, **kwargs: steps.append(args))
        monkeypatch.setattr(flow, "discretize", lambda *args, **kw: steps.append(args))
        for backend in ("galerkin", "analytic"):
            cfg = _write_config(tmp_path / "dying.json", name="dying", u0=0.5, horizon=1.0, backend=backend)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == "error: config: family is extinct at t = 0.69314718056\n"
        assert steps == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("a0", [1e-3, 1e-8])
    def test_degenerate_scalars_are_a_solver_error(self, tmp_path, capsys, a0):
        # the exact scalars of a fast circle decay below their mean's round-off
        # (at 1e-8 they underflow to 0), so their Gram matrix is rank deficient
        cfg = _write_config(tmp_path / "fast.json", name="fast", family="round_circle", a0=a0, horizon=0.1, k=2,
                            track_scalars=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: solver: scalars are") and err.count("\n") == 1
        assert not out.exists()

    def test_round_circle_at_a_prime_resolution_runs(self, tmp_path):
        # 331 nodes: numpy's FFT round trip of a constant row is not exact
        # there; constant rows skip it, so the circle stays round (exit 3,
        # "metric coefficient lost positivity at node 198", when they did not)
        cfg = _write_config(tmp_path / "prime.json", name="prime", family="round_circle", a0=0.25, resolution=331,
                            modes=165, horizon=0.05, k=2, track_scalars=False)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "prime" / "trajectory.csv")
        np.testing.assert_allclose(rows[:, header.index("lambda_1")], 4.0 * np.exp(-rows[:, header.index("t")]),
                                   rtol=1e-10)

    def test_four_gaussian_lines_order_16_run(self, tmp_path):
        # 16^4 = 65536 grid points: the forms stay factored, so this runs
        cfg = _write_config(tmp_path / "big.json", name="big", n=4, hermite_order=16, horizon=0.05, k=2)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _read_csv(out / "big" / "trajectory.csv")
        u = 1.0 + np.exp(rows[:, header.index("t")])  # u0 = 2
        for j in (1, 2):  # lambda_1 = 1/(2u) has multiplicity 4
            np.testing.assert_allclose(rows[:, header.index(f"lambda_{j}")], 1.0 / (2.0 * u), rtol=1e-8)

    def test_field_memory_cap_exit_code(self, tmp_path, capsys):
        # 64^4 = 16777216 grid points are rejected before anything grid-sized exists
        cfg = _write_config(tmp_path / "huge.json", name="huge", u0=1.0, n=4, hermite_order=64)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: a grid of 16777216 points") and err.count("\n") == 1
        assert "bytes" in err
        assert not out.exists()

    def test_unexpected_error_is_one_line(self, tmp_path, monkeypatch, capsys):
        import driftflow.runner

        def broken(config, out_root=None):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(driftflow.runner, "execute", broken)
        assert main(["run", "--config", str(_write_config(tmp_path / "x.json"))]) == 1
        assert capsys.readouterr().err == "error: unexpected: RuntimeError: boom second line\n"

    def test_oracle_skip_is_recorded(self, tmp_path):
        # lambda_1 = 4 reaches its blow-up horizon log(8/7) before the end
        cfg = _write_config(tmp_path / "fast.json", name="fast", family="round_circle", a0=0.25, horizon=0.2, cadence=50)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        reports = json.loads((out / "fast" / "manifest.json").read_text())["oracle_reports"]
        assert [r["inputs"]["lambda0"] for r in reports if "skipped" in r] == [pytest.approx(4.0)]

    def test_large_circle_rerun_is_byte_identical(self, tmp_path):
        # a round circle gets its pairs in closed form, so lambda_0 is exactly 0
        cfg = _write_config(tmp_path / "c512.json", name="c512", family="round_circle", resolution=512, horizon=0.05, k=2)
        spectra = []
        for run in ("o1", "o2"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / run)]) == 0
            spectra.append((tmp_path / run / "c512" / "spectra.json").read_bytes())
        assert spectra[0] == spectra[1]
        assert all(sp["eigenvalues"][0] == 0.0 for sp in json.loads(spectra[0]))

    def test_resolution_ceiling_edge(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "edge.json", name="edge", family="round_circle", resolution=1024, horizon=0.01, k=16)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        cfg = _write_config(tmp_path / "over.json", name="over", family="round_circle", resolution=1025, horizon=0.01)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "no")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1

    def test_splitting_scenario(self, tmp_path):
        cfg = tmp_path / "split.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "split",
                    "family": "product",
                    "factors": "scaled_gaussian:u0=1,n=1;round_circle:a0=0.25",
                    "horizon": 0.1,
                    "cadence": 10,
                    "k": 3,
                    "track_scalars": False,
                    "check_splitting": True,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        cert = json.loads((out / "split" / "certificate.json").read_text())
        assert cert["valid"] is True
        assert cert["k"] == 1
        assert cert["tolerances"] == acceptance.splitting_tolerances("galerkin")

    def test_splitting_negative_control_fails_strict(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "nosplit.json", name="nosplit", u0=2.0, horizon=0.05, check_splitting=True
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 5
        cert = json.loads((out / "nosplit" / "certificate.json").read_text())
        assert cert["valid"] is False
        assert cert["hypothesis_failure"]["violated"]


    @pytest.mark.parametrize("horizon", [0.301, 0.3])
    def test_off_cadence_last_output_passes_strict(self, tmp_path, horizon):
        # at 0.301 the last output is one step after the one before it, not two
        cfg = _write_config(
            tmp_path / "oc.json", name="oc", family="round_circle", a0=1.0, horizon=horizon, cadence=2, k=2,
            track_scalars=True, check_functionals=True, check_commutator=True,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        header, rows = _read_csv(out / "oc" / "trajectory.csv")
        assert rows[-1, 0] == pytest.approx(horizon)
        assert float(np.max(rows[:, header.index("residual_IJ")])) < 1e-4
        assert float(np.nanmax(rows[:, header.index("residual_commutator")])) < 1e-5

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": 0.0, "check_functionals": True},
            {"horizon": 0.001, "cadence": 1, "check_functionals": True},
            {"horizon": 0.001, "cadence": 1, "check_commutator": True},
        ],
    )
    def test_one_or_two_outputs_pass_strict(self, tmp_path, overrides):
        # the identity checks take each output's own rates, so one output is enough
        cfg = _write_config(tmp_path / "few.json", name="few", track_scalars=True, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        header, rows = _read_csv(out / "few" / "trajectory.csv")
        assert len(rows) == 1 + (overrides["horizon"] > 0)
        assert np.all(np.isfinite(rows[:, header.index("residual_IJ")]))
        assert np.all(np.isfinite(rows[:, header.index("residual_commutator")]))

    def test_too_few_outputs_for_splitting_is_a_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "few.json", name="few", track_scalars=True, horizon=0.0, check_splitting=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: check_splitting needs at least 2 outputs") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"a0": 0.25, "horizon": 0.5, "k": 2, "check_functionals": True},
            {"a0": 1.0, "horizon": 0.1, "k": 2, "check_functionals": True, "check_commutator": True},
            {"a0": 1.0, "horizon": 0.1, "k": 3, "check_functionals": True},
            {"f0": -50.0, "horizon": 0.1, "k": 2, "check_functionals": True},
        ],
    )
    def test_round_circles_pass_the_identity_checks_at_the_default_cadence(self, tmp_path, overrides):
        # exact flows at the default cadence: the identity checks read round-off
        cfg = _write_config(tmp_path / "rc.json", name="rc", family="round_circle", track_scalars=True, **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        manifest = json.loads((out / "rc" / "manifest.json").read_text())
        values = {c["name"]: c["value"] for checks in manifest["verifications"].values() for c in checks}
        assert values["rel J'"] < 1e-12 and values["rel I'"] < 1e-12
        assert values.get("commutator", 0.0) < 1e-12

    @pytest.mark.parametrize("n, k, backend", [(1, 1, "galerkin"), (2, 2, "galerkin"), (2, 2, "analytic"), (3, 3, "galerkin")])
    def test_the_static_shrinker_passes_the_identity_checks(self, tmp_path, n, k, backend):
        # every tracked eigenvalue is 1/2: J - 2D and J' are round-off, measured against RATE_FLOOR max |J|
        cfg = _write_config(tmp_path / "s.json", name="s", u0=1.0, n=n, k=k, backend=backend, horizon=0.5,
                            track_scalars=True, check_functionals=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        manifest = json.loads((out / "s" / "manifest.json").read_text())
        values = {c["name"]: c["value"] for c in manifest["verifications"]["functionals"]}
        assert values["rel J'"] < 1e-10 and values["rel I'"] < 1e-10

    def test_splitting_window_outside_the_run_leaves_no_artifacts(self, tmp_path, capsys, monkeypatch):
        # refused when the config loads, so the flow is never integrated
        import driftflow.runner

        runs = []
        monkeypatch.setattr(driftflow.runner, "run_flow", lambda request: runs.append(request))
        cfg = _write_config(
            tmp_path / "late.json", name="late", u0=1.0, horizon=0.02, check_splitting=True,
            splitting_t0=0.5, splitting_t1=0.6,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config: config key splitting_t0 = 0.5 outside [0.0, 0.02]\n"
        assert not (out / "late").exists() and runs == []

    # outputs every 0.02 up to 0.2 of a product that splits off its Gaussian direction
    SPLITTING_PRODUCT = dict(family="product", factors="scaled_gaussian:u0=1,n=1;round_circle:a0=0.25", horizon=0.2,
                             cadence=20, k=3, track_scalars=False, check_splitting=True)

    @pytest.mark.parametrize("t0", [0.195, 0.2])
    def test_a_splitting_window_of_one_output_leaves_no_artifacts(self, tmp_path, capsys, monkeypatch, t0):
        # both ends read the output at t = 0.2: refused when the config loads
        import driftflow.runner

        runs = []
        monkeypatch.setattr(driftflow.runner, "run_flow", lambda request: runs.append(request))
        cfg = _write_config(tmp_path / "one.json", name="one", splitting_t0=t0, **self.SPLITTING_PRODUCT)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: splitting_t0 = {t0} and splitting_t1 = 0.2 read ")
        assert err.count("\n") == 1
        assert not (out / "one").exists() and runs == []

    def test_splitting_records_read_the_certificate(self, tmp_path):
        cfg = _write_config(tmp_path / "agree.json", name="agree", **self.SPLITTING_PRODUCT)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        cert = json.loads((out / "agree" / "certificate.json").read_text())
        records = json.loads((out / "agree" / "manifest.json").read_text())["verifications"]["splitting"]
        # each record after "1 - k": the certificate residual it reads, and its tolerance there
        reads = {
            "eigenvalue window": ("eigenvalue_window_deviation", "eigenvalue"),
            "hessian energy": ("hessian_energies", "hessian_energy"),
            "gradient gram": ("gradient_gram_deviation", "gradient"),
            "gradient norm": ("gradient_norm_deviation", "gradient"),
            "weight decomposition": ("weight_decomposition", "weight_decomposition"),
            "metric block": ("metric_block", "metric_block"),
            "factor equation 1": ("factor_equation_1", "factor_equations"),
            "factor equation 2": ("factor_equation_2", "factor_equations"),
        }
        assert cert["valid"] is True and [r["name"] for r in records] == ["1 - k", *reads]
        assert records[0]["value"] == 1 - cert["k"]
        for record in records[1:]:
            residual, tol = reads[record["name"]]
            assert record["value"] == max(np.atleast_1d(cert["residuals"][residual]))
            assert record["tol"] == cert["tolerances"][tol]

    def test_product_run_checks_bochner_and_reports_each_lambda_once(self, tmp_path):
        # lambda_1 = lambda_2 = 1/4 on this product: one oracle report for both
        cfg = _write_config(
            tmp_path / "ps.json", name="ps", family="product", factors="scaled_gaussian:u0=1,n=1;round_circle:a0=4",
            horizon=0.1, cadence=5, k=3, track_scalars=True, check_functionals=True, check_commutator=True,
            check_bochner=True,
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
        manifest = json.loads((out / "ps" / "manifest.json").read_text())
        [bochner] = manifest["verifications"]["bochner"]
        assert bochner["value"] <= 1e-8 and bochner["tol"] == 1e-8 and bochner["passed"] is True
        assert manifest["tolerances"] == acceptance.VERIFY_TOLERANCES
        assert [r["inputs_digest"] for r in manifest["oracle_reports"]] == ["0c65d4f9caff289f", "c70b95db7a01a0ee"]

    def test_functionals_without_scalars_need_no_outputs(self, tmp_path):
        # without scalars the volume drift is the one functionals check
        cfg = _write_config(tmp_path / "one.json", name="one", horizon=0.0, check_functionals=True)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) == 0
        manifest = json.loads((tmp_path / "out" / "one" / "manifest.json").read_text())
        [record] = manifest["verifications"]["functionals"]
        assert record["name"] == "volume drift" and record["passed"] is True
        assert record["value"] <= record["tol"] == acceptance.VERIFY_TOLERANCES["volume_drift_rel"]

    @pytest.mark.filterwarnings("error")
    def test_scalars_propagated_to_zero_fail_in_one_line(self, tmp_path, capsys):
        # the exact propagated scalars of this stiff weighted circle are all zero at an output, so the
        # propagator record reads inf and fails, with no numpy divide warning as a second stderr line
        cfg = _write_config(tmp_path / "stiff.json", name="stiff", family="round_circle", a0=4e-4, f0=39.0, k=1,
                            horizon=0.05, track_scalars=True, check_functionals=True)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) == 5
        assert capsys.readouterr().err == "error: verification: checks failed: functionals\n"
        manifest = json.loads((tmp_path / "out" / "stiff" / "manifest.json").read_text())
        [record] = [r for r in manifest["verifications"]["functionals"] if r["name"] == "scalar propagator"]
        assert float(record["value"]) == math.inf and record["passed"] is False

    @pytest.mark.parametrize(
        "overrides, columns",
        [
            (dict(k=3, track_scalars=True), "lambda_0,lambda_1,lambda_2,lambda_3,bound_1,bound_2,bound_3,volume,"
                                            "E_1,E_2,E_3"),
            (dict(k=3, track_scalars=False), "lambda_0,lambda_1,lambda_2,lambda_3,bound_1,bound_2,bound_3,volume"),
            (dict(k=1, track_scalars=True), "lambda_0,lambda_1,bound_1,volume,E_1"),
        ],
        ids=["k3-scalars", "k3-no-scalars", "k1"],
    )
    def test_csv_headers_and_row_widths(self, tmp_path, overrides, columns):
        cfg = _write_config(tmp_path / "layout.json", name="layout", u0=1.0, horizon=0.05, **overrides)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--strict"]) == 0
        run_dir = tmp_path / "out" / "layout"
        outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
        bounds = ",".join(f"bound_{j}" for j in range(1, overrides["k"] + 1))
        expected = {
            "trajectory.csv": f"t,{columns},residual_IJ,residual_commutator",
            "bounds.csv": f"s,{bounds}",
        }
        for name, header in expected.items():
            lines = (run_dir / name).read_text().splitlines()
            assert lines[0] == header and len(lines) == outputs + 1, name
            assert {line.count(",") for line in lines} == {header.count(",")}, name


# The schema smoke draw's caps, within config._BOUNDS, that keep its 20 runs under a second.
_SMOKE_CAPS = {"resolution": (8, 128), "hermite_order": (3, 24), "n": (1, 2), "k": (1, 3), "horizon": (0.0, 0.1)}


def _smoke_value(rng, key):
    """A value of ``key`` within its bounds and cap: integers uniformly, ranges of
    more than two decades of positive numbers log-uniformly, others uniformly."""
    lo, hi = config._BOUNDS[key]
    cap_lo, cap_hi = _SMOKE_CAPS.get(key, (lo, hi))
    lo, hi = max(lo, cap_lo), min(hi, cap_hi)
    if isinstance(lo, int) and isinstance(hi, int):
        return int(rng.integers(lo, hi + 1))
    if lo > 0 and hi > 100 * lo:
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return float(rng.uniform(lo, hi))


def _smoke_config(rng, name):
    """One drawn config: every bounded key, both factor kinds, both backends and every check."""
    raw = {key: _smoke_value(rng, key) for key in config._BOUNDS}
    raw["modes"] = int(rng.integers(1, raw["resolution"] // 2 + 1))  # a larger cutoff is a config error
    raw["name"] = name
    raw["family"] = str(rng.choice(["scaled_gaussian", "round_circle", "product"]))
    gaussian = f"scaled_gaussian:u0={_smoke_value(rng, 'u0')!r},n={_smoke_value(rng, 'n')}"
    circle = f"round_circle:a0={_smoke_value(rng, 'a0')!r},f0={_smoke_value(rng, 'f0')!r}"
    raw["factors"] = f"{gaussian};{circle}" if rng.random() < 0.5 else f"{circle};{gaussian}"
    raw["backend"] = str(rng.choice(["galerkin", "analytic"]))
    for flag in ("track_scalars", "check_functionals", "check_commutator", "check_bochner", "check_splitting"):
        raw[flag] = bool(rng.random() < 0.5)
    return raw


# The failing records a drawn config may show, by check, each a known class:
# the two splitting hypotheses are the expected negative answer on a spectrum
# that is not at 1/2.  A record of any other class fails the draw until it is
# classified here, with the failing config it belongs to.
_KNOWN_FAILURES = {
    "splitting": (r"\|lambda_([1-9][0-9]*)\(t0\) - 1/2\|", r"1/2 - window - lambda_1\(t1\)"),
}


def _unclassified_failures(run_dir) -> list:
    """(check, name) of each failing record of a run that no known class
    covers.  A record ``|lambda_j(t0) - 1/2|`` must also name the first
    eigenvalue nearest 1/2 at output 0 and read its distance, as the run's
    ``spectra.json`` holds it."""
    verifications = json.loads((run_dir / "manifest.json").read_text())["verifications"]
    unknown = []
    for check, records in verifications.items():
        for record in (r for r in records if not r["passed"]):
            match = next(filter(None, (re.fullmatch(p, record["name"]) for p in _KNOWN_FAILURES.get(check, ()))), None)
            if match is None:
                unknown.append((check, record["name"]))
            elif match.groups():
                lams = json.loads((run_dir / "spectra.json").read_text())[0]["eigenvalues"][1:]
                gaps = [abs(lam - 0.5) for lam in lams]
                assert record["value"] == min(gaps) and int(match[1]) == 1 + gaps.index(min(gaps)), record
    return unknown


def test_an_unknown_failing_record_is_unclassified(tmp_path):
    records = [{"name": "|lambda_1(t0) - 1/2|", "value": 0.25, "passed": False},
               {"name": "1/2 - window - lambda_1(t1)", "value": 0.1, "passed": False}]
    bochner = [{"name": "bochner rel", "value": 3.7e-7, "passed": False}]
    manifest = {"verifications": {"splitting": records, "bochner": bochner, "bounds": [{"name": "x", "passed": True}]}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "spectra.json").write_text(json.dumps([{"eigenvalues": [0.0, 0.25, 1.0]}]))
    assert _unclassified_failures(tmp_path) == [("bochner", "bochner rel")]
    manifest["verifications"]["splitting"][0]["name"] = "|lambda_2(t0) - 1/2|"  # not the nearest
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(AssertionError):
        _unclassified_failures(tmp_path)


@pytest.mark.filterwarnings("error")  # outside pytest a warning would be a second line on stderr
def test_drawn_configs_exit_with_a_known_code_and_one_error_line(tmp_path, capsys):
    kinds = {2: "config", 3: "stability", 4: "solver", 5: "verification"}
    rng = np.random.default_rng(20261020)
    codes = []
    for i in range(20):
        raw = _smoke_config(rng, f"draw{i}")
        path = tmp_path / f"draw{i}.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--strict"])
        err = capsys.readouterr().err
        assert code in (0, *kinds), raw
        if code:
            assert err.startswith(f"error: {kinds[code]}: ") and err.count("\n") == 1 and err.endswith("\n"), raw
        else:
            assert err == "", raw
        if code == 5:
            assert _unclassified_failures(tmp_path / "out" / raw["name"]) == [], raw
        codes.append(code)
    assert 0 in codes and 5 in codes  # the draw reaches runs that pass and runs that fail a check


class TestSweepAndReport:
    def test_sweep_grid(self, tmp_path):
        cfg = tmp_path / "base.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "circle",
                    "family": "round_circle",
                    "a0": 1.0,
                    "horizon": 0.05,
                    "cadence": 10,
                    "k": 1,
                    "track_scalars": False,
                }
            )
        )
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--grid", "a0=1,4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert {m["name"] for m in manifest} == {"circle-a0=1", "circle-a0=4"}
        assert all(m["status"] == "ok" for m in manifest)

        code = main(["report", "--dir", str(out)])
        assert code == 0

    def test_sweep_records_unexpected_error(self, tmp_path, monkeypatch, capsys):
        import driftflow.runner

        def broken(config, out_root=None):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(driftflow.runner, "execute", broken)
        cfg = _write_config(tmp_path / "base.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "u0=1,2", "--out", str(out)]) == 1
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert [m["status"] for m in manifest] == ["unexpected", "unexpected"]
        assert {m["where"] for m in manifest} == {"RuntimeError: boom second line"}
        assert capsys.readouterr().err == "error: unexpected: 2 runs failed\n"

    @pytest.mark.parametrize(
        "raised, kind, code",
        [
            ((StabilityError, SolverError, ConfigurationError), "config", 2),
            ((SolverError, StabilityError, RuntimeError), "stability", 3),
            ((RuntimeError, DegeneracyError, RuntimeError), "solver", 4),
            ((RuntimeError, RuntimeError, RuntimeError), "unexpected", 1),
        ],
    )
    def test_sweep_exits_with_the_first_kind_among_its_failures(self, tmp_path, monkeypatch, capsys, raised, kind,
                                                                code):
        # one table orders the kinds for a run's error and for a sweep's failures
        import driftflow.runner

        def failing(config, out_root=None):
            raise raised[int(config.u0) - 1]("x")

        monkeypatch.setattr(driftflow.runner, "execute", failing)
        cfg = _write_config(tmp_path / "base.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "u0=1,2,3", "--out", str(out)]) == code
        assert capsys.readouterr().err == f"error: {kind}: 3 runs failed\n"
        statuses = [m["status"] for m in json.loads((out / "sweep_manifest.json").read_text())]
        assert statuses == [cli._classify(exc("x"))[0] for exc in raised]

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Record the pools a sweep starts; the fake runs its map in this
        process and forks nothing.  Runs return at once."""
        import concurrent.futures
        import types

        import driftflow.runner

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(
            driftflow.runner, "execute", lambda config, out_root=None: types.SimpleNamespace(failed=[], out_dir="x")
        )
        return pools

    @pytest.mark.parametrize(
        "jobs, grid, cpus, pool",
        [
            (100000, "u0=1,2", 64, [2]),  # no more workers than runs
            (8, "u0=1,2,3,4", 3, [3]),  # nor than usable cores
            (3, "u0=1,2,3,4", 64, [3]),
            (4, "u0=1", 64, []),  # one run, or one core, runs in this process
            (4, "u0=1,2", 1, []),
            (1, "u0=1,2", 64, []),
        ],
    )
    def test_sweep_pool_is_bounded_by_runs_and_cores(self, tmp_path, monkeypatch, fake_pool, jobs, grid, cpus, pool):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = _write_config(tmp_path / "base.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", grid, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert fake_pool == pool
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert [m["status"] for m in manifest] == ["ok"] * len(grid.split(","))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_sweep_rejects_jobs_below_one(self, tmp_path, capsys, fake_pool, jobs):
        cfg = _write_config(tmp_path / "base.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--grid", "u0=1,2", "--jobs", str(jobs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config: --jobs must be at least 1, got {jobs}\n"
        assert fake_pool == [] and not out.exists()

    def test_sweep_bad_grid_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "base.json")
        assert main(["sweep", "--config", str(cfg), "--grid", "nope=1,2"]) == 2
        assert "grid keys" in capsys.readouterr().err

    def test_report_status_column(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["run", "--config", str(_write_config(tmp_path / "good.json", name="good", horizon=0.05)),
                     "--out", str(out)]) == 0
        nosplit = _write_config(tmp_path / "nosplit.json", name="nosplit", horizon=0.05, check_splitting=True)
        assert main(["run", "--config", str(nosplit), "--out", str(out)]) == 0  # fails its check, not --strict
        manifest = json.loads((out / "good" / "manifest.json").read_text())
        manifest["name"] = "norecords"
        manifest["verifications"]["splitting"] = []
        (out / "norecords").mkdir()
        (out / "norecords" / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        status = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
        assert status == {"good": "ok", "nosplit": "FAILED", "norecords": "FAILED"}

    def _report_status(self, out, capsys):
        capsys.readouterr()
        assert main(["report", "--dir", str(out)]) == 0
        return {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}

    def test_non_finite_records_are_strict_json_and_report_failed(self, tmp_path, capsys):
        # the propagator record of this stiff circle reads inf: its value and margin are strings, not bare tokens
        cfg = _write_config(tmp_path / "stiff.json", name="stiff", family="round_circle", a0=4e-4, f0=39.0, k=1,
                            horizon=0.05, track_scalars=True, check_functionals=True)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

        def bare(token):
            raise ValueError(f"bare {token} in manifest.json")

        manifest = json.loads((out / "stiff" / "manifest.json").read_text(), parse_constant=bare)
        [record] = [r for r in manifest["verifications"]["functionals"] if r["name"] == "scalar propagator"]
        assert (record["value"], record["margin"], record["passed"]) == ("Infinity", "-Infinity", False)
        assert self._report_status(out, capsys) == {"stiff": "FAILED"}

    def test_report_skips_a_manifest_that_is_not_an_object(self, tmp_path, capsys):
        for name, doc in (("good", {"name": "good", "verifications": {}}), ("list", [1, 2])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(json.dumps(doc))
        assert self._report_status(tmp_path, capsys) == {"good": "ok"}

    def test_report_fails_verifications_that_are_not_an_object(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "manifest.json").write_text(json.dumps({"name": "a", "verifications": []}))
        assert self._report_status(tmp_path, capsys) == {"a": "FAILED"}

    def test_report_prints_fields_that_are_not_strings(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "manifest.json").write_text(json.dumps({"name": 5, "config_hash": None, "outputs": [3]}))
        capsys.readouterr()
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["5", "None", "[3]", "ok"]

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 2
