"""The sharp eigenvalue bound, its blow-up horizon and the logistic envelope.

The central object is the logistic trap h' <= h (h - 1), with derivatives in
the limsup-of-forward-difference sense, which is how eigenvalue curves behave
across multiplicity crossings: solutions starting at or below 1 stay trapped,
and the equality solution ``logistic_envelope`` is a closed-form upper
envelope.  With h = 2 F this becomes the sharp bound ``eigenvalue_bound``,
finite up to ``blowup_horizon``.
"""

from __future__ import annotations

import math

from .errors import DomainError, HorizonError, OutOfRegimeError

__all__ = [
    "eigenvalue_bound",
    "blowup_horizon",
    "logistic_envelope",
]


def blowup_horizon(lambda0: float) -> float:
    """Time at which the closed-form bound blows up, +inf at or below 1/2."""
    lambda0 = float(lambda0)
    if lambda0 <= 0.0:
        raise DomainError(f"initial eigenvalue must be positive, got {lambda0}")
    if lambda0 <= 0.5:
        return math.inf
    return math.log(2.0 * lambda0 / (2.0 * lambda0 - 1.0))


def eigenvalue_bound(lambda0: float, s: float) -> float:
    """Certified upper bound lambda0 / (2 lambda0 (1 - e^s) + e^s) at lag s.

    Exactly 1/2 maps to 1/2 for every s.  Above 1/2 the bound is only valid
    while its denominator stays positive; at or past that horizon a
    HorizonError carries the horizon value.
    """
    lambda0 = float(lambda0)
    s = float(s)
    if lambda0 <= 0.0:
        raise DomainError(f"initial eigenvalue must be positive, got {lambda0}")
    if s < 0.0:
        raise DomainError(f"lag s must be nonnegative, got {s}")
    if lambda0 == 0.5:
        return 0.5
    horizon = blowup_horizon(lambda0)
    if s >= horizon:
        raise HorizonError(horizon)
    es = math.exp(s)
    return lambda0 / (2.0 * lambda0 * (1.0 - es) + es)


def logistic_envelope(h0: float, s: float) -> float:
    """Upper envelope for h >= 0 with h' <= h (h - 1), valid for h0 <= 1.

    Returns the exact logistic solution h0 / (h0 + (1 - h0) e^s); this is
    strictly below h0 for s > 0 and dominates every admissible h.  h0 = 1 is
    the trapped fixed point of the envelope.  Above 1 the trap gives no
    forward control, so that regime is rejected.
    """
    h0 = float(h0)
    s = float(s)
    if h0 < 0.0:
        raise DomainError(f"h0 must be nonnegative, got {h0}")
    if s < 0.0:
        raise DomainError(f"lag s must be nonnegative, got {s}")
    if h0 > 1.0:
        raise OutOfRegimeError(f"no forward envelope for h0 = {h0} > 1")
    if h0 == 1.0:
        return 1.0
    return h0 / (h0 + (1.0 - h0) * math.exp(s))
