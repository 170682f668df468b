import pytest


@pytest.fixture
def recorded_solves(monkeypatch) -> list:
    """Every solve that a run takes, in call order, as the ``SpectralResult``
    of ``lowest_eigenpairs``: the seeding solve as the run takes it, and each
    sub-stack's solve, which builds no eigenfunction, re-solved here on the
    same forms, whose eigenvalues and residuals must have the run's bits."""
    from driftflow import flow, spectral

    solves, solve = [], flow.lowest_eigenpairs
    monkeypatch.setattr(flow, "lowest_eigenpairs", lambda *args: solves.append(solve(*args)) or solves[-1])

    def eigensolve(*args):
        eigenvalues, residuals, columns = spectral._eigensolve(*args)
        solves.append(spectral.lowest_eigenpairs(*args))
        assert solves[-1].eigenvalues.tobytes() == eigenvalues.tobytes()
        assert solves[-1].residuals.tobytes() == residuals.tobytes()
        return eigenvalues, residuals, columns

    monkeypatch.setattr(flow, "_eigensolve", eigensolve)
    return solves
