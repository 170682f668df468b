"""Exception hierarchy shared by all driftflow modules."""


class DriftflowError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DriftflowError, ValueError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class ConfigurationError(DriftflowError, ValueError):
    """A scenario / geometry configuration is inconsistent or unsupported."""


class UsageError(DriftflowError, ValueError):
    """Mismatched shapes or otherwise malformed inputs to an operation."""


class ExtinctionError(DomainError):
    """A shrinking family was evaluated at or after its extinction time."""

    def __init__(self, extinction_time, message=None):
        self.extinction_time = float(extinction_time)
        super().__init__(
            message or f"family is extinct at t = {self.extinction_time:.12g}"
        )


class HorizonError(DomainError):
    """A bound or comparison ODE was evaluated at or past its blow-up horizon."""

    def __init__(self, horizon, message=None):
        self.horizon = float(horizon)
        super().__init__(
            message or f"evaluation time reaches the blow-up horizon {self.horizon:.12g}"
        )


class OutOfRegimeError(DomainError):
    """The comparison principle provides no forward bound for this initial value."""


class AssemblyError(DriftflowError):
    """Quadratic forms could not be assembled (degenerate metric sample)."""


class SolverError(DriftflowError):
    """The eigenvalue solver failed to reach the requested residual."""

    def __init__(self, message, best_residual=None):
        self.best_residual = best_residual
        super().__init__(message)


class DegeneracyError(DriftflowError):
    """Inputs were linearly dependent where independence is required."""


class StabilityError(DriftflowError):
    """Galerkin mode energy grew past the threshold (backward-heat blow-up).

    Advice: shorten the horizon or lower the mode cutoff.
    """


class FlowBreakdownError(StabilityError):
    """The evolving metric coefficient lost positivity at some node."""

    def __init__(self, node_index, message=None):
        self.node_index = node_index
        super().__init__(
            message or f"metric coefficient lost positivity at node {node_index}"
        )


class OracleError(DriftflowError):
    """A reference oracle refused its input (size cap, indefinite mass, ...)."""
