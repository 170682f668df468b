import pytest


@pytest.fixture
def recorded_solves(monkeypatch) -> list:
    """Every result of ``lowest_eigenpairs`` that a run takes, in call order."""
    from driftflow import flow

    solves, solve = [], flow.lowest_eigenpairs
    monkeypatch.setattr(flow, "lowest_eigenpairs", lambda *args: solves.append(solve(*args)) or solves[-1])
    return solves
