"""Closed-form spectra and the checkers the benchmark applies to driftflow output.

Every checker returns a list of problems (empty when the output is right), so
a run can report all of them at once.  The expected values are computed here
from the closed forms, never taken from driftflow:

* round circle with metric a dtheta^2: 0, then j^2/a twice for j >= 1;
* Gaussian line with scale u: k/(2u) for k >= 0;
* products: the Minkowski sum of the factor spectra, with multiplicity.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Eigenvalues match their closed form to this tolerance, relative to
# max(1, |expected|).  Passing rungs and runs deviate by at most about 1e-10.
EIG_TOL = 1e-9
# Gram matrix of the eigenfunctions in the mass form versus the identity.
ORTHO_TOL = 1e-9
# Weighted volume along a run, relative to its first value.
VOLUME_TOL = 1e-10
# lambda_j may exceed the comparison bound curve by at most this much.
BOUND_SLACK = 1e-9


def circle_spectrum(a: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the round circle a dtheta^2."""
    vals = [0.0] + [j * j / a for j in range(1, count) for _ in range(2)]
    return np.array(vals[:count])


def gaussian_spectrum(u: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the Gaussian line with scale u."""
    return np.arange(count) / (2.0 * u)


def minkowski(count: int, *spectra) -> np.ndarray:
    """Lowest ``count`` sums of one eigenvalue from each factor spectrum.

    Each factor spectrum must list at least its ``count`` lowest values.
    """
    sums = sorted(sum(combo) for combo in itertools.product(*(s[:count] for s in spectra)))
    return np.array(sums[:count])


def product_scalars_spectrum(t: float, count: int) -> np.ndarray:
    """Static Gaussian (u = 1) times the round circle a = 4 e^t."""
    return minkowski(count, gaussian_spectrum(1.0, count), circle_spectrum(4.0 * math.exp(t), count))


def eternal_lambda1(t: float) -> float:
    """First eigenvalue of the Gaussian with u(t) = 1 + e^t (u0 = 2)."""
    return 1.0 / (2.0 * (1.0 + math.exp(t)))


def spectrum_problems(label: str, computed, expected, tol: float = EIG_TOL) -> list[str]:
    computed = np.asarray(computed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if computed.shape != expected.shape:
        return [f"{label}: {computed.shape[0]} eigenvalues, expected {expected.shape[0]}"]
    dev = np.abs(computed - expected) / np.maximum(1.0, np.abs(expected))
    worst = int(np.argmax(dev))
    if not dev[worst] <= tol:
        return [
            f"{label}: lambda_{worst} = {computed[worst]!r}, expected {expected[worst]!r} "
            f"(relative deviation {dev[worst]:.3e} > {tol:.0e})"
        ]
    return []


def orthonormality_problems(label: str, fields, mass, tol: float = ORTHO_TOL) -> list[str]:
    """Eigenfunctions (one per row) must be orthonormal in the mass form."""
    fields = np.asarray(fields, dtype=float)
    gram = (fields * mass) @ fields.T
    dev = float(np.max(np.abs(gram - np.eye(len(fields)))))
    if not dev <= tol:
        return [f"{label}: eigenfunctions not J-orthonormal (max |G - I| = {dev:.3e} > {tol:.0e})"]
    return []


def product_scalars_problems(times, lam, bounds, volumes) -> list[str]:
    """Trajectory of the product scenario: spectrum, bound compliance, volume.

    ``lam`` has one row per output time (lambda_0..lambda_k), ``bounds`` the
    matching bound_1..bound_k columns.
    """
    lam = np.asarray(lam, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    volumes = np.asarray(volumes, dtype=float)
    problems = []
    for t, row in zip(times, lam):
        problems += spectrum_problems(f"t={t:g}", row, product_scalars_spectrum(t, lam.shape[1]))
    excess = float(np.max(lam[:, 1:] - bounds))
    if not excess <= BOUND_SLACK:
        problems.append(f"lambda_j exceeds bound_j by {excess:.3e} (slack {BOUND_SLACK:.0e})")
    drift = float(np.max(np.abs(volumes / volumes[0] - 1.0)))
    if not drift <= VOLUME_TOL:
        problems.append(f"volume drifts by {drift:.3e} (tolerance {VOLUME_TOL:.0e})")
    return problems


def eternal_problems(times, lam1) -> list[str]:
    """Eternal Gaussian: lambda_1(t) = 1/(2(1 + e^t)), strictly below 1/2."""
    lam1 = np.asarray(lam1, dtype=float)
    expected = np.array([eternal_lambda1(t) for t in times])
    problems = spectrum_problems("lambda_1(t)", lam1, expected)
    if not np.all(lam1 < 0.5):
        problems.append(f"lambda_1 reaches {float(np.max(lam1))!r}, not below 1/2")
    return problems


def verify_report_problems(report) -> list[str]:
    """``acceptance_report.json`` must hold C01..C10, each passed."""
    ids = sorted(entry.get("id") for entry in report)
    if ids != list(range(1, 11)):
        return [f"acceptance report lists criteria {ids}, expected 1..10"]
    return [f"C{entry['id']:02d} did not pass: {entry.get('detail')}" for entry in report if entry.get("passed") is not True]
