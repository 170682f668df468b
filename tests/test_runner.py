"""The artifact writers against the per-value formatting they replace: ``"%.17g"`` per CSV value and
``json.dumps(indent=2, sort_keys=True)`` of one dict per output for ``spectra.json``."""

import json

import numpy as np
import pytest

from driftflow import runner
from driftflow.config import ScenarioConfig

SPECIAL = (-0.0, 5e-324, 1e308, 1.0 / 3.0)
SHAPES = [(m, width) for m in (1, 2, 101) for width in range(1, 6)]


def _drawn(rng, m: int, width: int) -> np.ndarray:
    """Values of every sign and magnitude, led by the special values where there is room."""
    values = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-300, 300, (m, width))
    count = min(len(SPECIAL), values.size)
    values.flat[:count] = SPECIAL[:count]
    return values


@pytest.fixture(params=[1, 7, runner._ROWS], ids=lambda rows: f"rows{rows}")
def rows_per_piece(request, monkeypatch):
    monkeypatch.setattr(runner, "_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("m, width", SHAPES)
def test_csv_matches_per_value_rows(tmp_path, rows_per_piece, m, width):
    rng = np.random.default_rng(m * 10 + width)
    times, table = _drawn(rng, m, 1)[:, 0], _drawn(rng, m, width)
    header = ["t", *(f"c{j}" for j in range(width))]
    runner._write_csv(str(tmp_path / "x.csv"), header, times, table)
    rows = np.column_stack([times, table]).tolist()
    expected = ",".join(header) + "\n" + "".join(",".join("%.17g" % x for x in row) + "\n" for row in rows)
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("m, width", SHAPES)
def test_spectra_match_json_dumps_of_one_dict_per_output(rows_per_piece, m, width):
    rng = np.random.default_rng(1000 + m * 10 + width)
    times, eigenvalues, residuals = _drawn(rng, m, 1)[:, 0], _drawn(rng, m, width), _drawn(rng, m, width)
    rows = zip(times.tolist(), eigenvalues.tolist(), residuals.tolist())
    spectra = [{"t": t, "eigenvalues": lam, "residuals": res, "normalization": "weighted-L2"} for t, lam, res in rows]
    expected = json.dumps(spectra, indent=2, sort_keys=True) + "\n"
    assert "".join(runner._spectra(times, eigenvalues, residuals)) == expected


@pytest.mark.parametrize("where", ["eigenvalues", "residuals", "times"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectra_with_a_non_finite_value_raise(where, bad):
    arrays = {"times": np.linspace(0.0, 1.0, 5), "eigenvalues": np.ones((5, 3)), "residuals": np.zeros((5, 3))}
    arrays[where].flat[3] = bad
    with pytest.raises(ValueError):
        runner._spectra(**arrays)


def test_a_nan_in_the_spectra_leaves_no_run_directory(tmp_path, monkeypatch):
    run_flow = runner.run_flow

    def nan_residual(request):
        traj = run_flow(request)
        traj.eigen_residuals[-1, 0] = np.nan
        return traj

    monkeypatch.setattr(runner, "run_flow", nan_residual)
    with pytest.raises(ValueError):
        runner.execute(ScenarioConfig(name="nan", horizon=0.01, track_scalars=False), out_root=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_with_a_non_finite_number_raises_before_its_file_is_opened(tmp_path, bad):
    with pytest.raises(ValueError):
        runner._write_json(str(tmp_path / "x.json"), {"records": [{"value": float(bad)}]})
    assert list(tmp_path.iterdir()) == []
