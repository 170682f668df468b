"""The four benchmark workloads.

A workload builds its inputs from the seed in its constructor and then runs
whole rounds.  ``round()`` returns how many operations it attempted, the
wall time per operation (driftflow calls only; checks are not timed), the
problems its checks found and the labels of the operations that failed.
``reference_kind`` names the kind of reference computation (``reference.py``)
that its times are scaled by.

driftflow is driven only through ``cli.main``, ``assemble_forms`` and
``lowest_eigenpairs``; the ladder's states are built with the geometry
constructors during set-up.  driftflow callables are looked up on their
module at call time, so that the traced run's wrappers see the benchmark's
own calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from driftflow import acceptance, cli, spectral
from driftflow.errors import SolverError
from driftflow.geometry import (
    discretize,
    evaluate_family,
    product_family,
    round_circle_family,
    scaled_gaussian_family,
    weighted_circle,
)

import closed_forms as cf
import reference


@dataclass
class Round:
    attempted: int
    op_seconds: float
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    # Reference times (reference.py) taken inside the round; not in op_seconds.
    references: list = field(default_factory=list)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


class _Scenario:
    """One in-process ``driftflow run`` of a fixed scenario per operation."""

    config: dict = {}
    strict = False
    reference_kind = "interpreted"

    def __init__(self, seed: int, scratch: str):
        # The scenario is fixed so that later changes are compared on the
        # same run; the seed reaches the program only as the config's seed.
        config = dict(self.config, seed=seed % 2**31)
        path = os.path.join(scratch, f"{config['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.out_dir = os.path.join(scratch, config["name"])
        self.argv = ["run", "--config", path, "--out", scratch] + (["--strict"] if self.strict else [])

    def round(self) -> Round:
        start = time.perf_counter()
        code = _quiet_main(self.argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return Round(1, seconds, [f"driftflow run exited {code}"])
        return Round(1, seconds, self.problems(_read_csv(os.path.join(self.out_dir, "trajectory.csv"))))


class ProductScalars(_Scenario):
    # The ROADMAP product scenario at horizon 0.1.  Cadence is 5, not 10: at
    # an output spacing of 0.01 the run's commutator check (a central
    # difference with a fixed 1e-5 tolerance) reads 1.67e-5 and --strict
    # exits 5.
    config = {
        "name": "product_scalars",
        "family": "product",
        "factors": "scaled_gaussian:u0=1,n=1;round_circle:a0=4",
        "horizon": 0.1,
        "dt": 1e-3,
        "cadence": 5,
        "k": 3,
        "track_scalars": True,
        "check_bounds": True,
        "check_functionals": True,
        "check_commutator": True,
    }
    strict = True

    def problems(self, cols: dict) -> list[str]:
        k = self.config["k"]
        lam = np.stack([cols[f"lambda_{j}"] for j in range(k + 1)], axis=1)
        bounds = np.stack([cols[f"bound_{j}"] for j in range(1, k + 1)], axis=1)
        return cf.product_scalars_problems(cols["t"], lam, bounds, cols["volume"])


class EternalGaussian(_Scenario):
    config = {
        "name": "eternal_gaussian",
        "family": "scaled_gaussian",
        "u0": 2.0,
        "horizon": 5.0,
        "dt": 1e-3,
        "cadence": 50,
        "k": 1,
        "track_scalars": False,
    }

    def problems(self, cols: dict) -> list[str]:
        return cf.eternal_problems(cols["t"], cols["lambda_1"])


class SpectralLadder:
    """assemble_forms + lowest_eigenpairs over a fixed ladder of states.

    Each solve is one operation; one round is one pass over the ladder, and
    its time per operation is the pass's solve time over its solve count.
    """

    k = 6
    reference_kind = "dense"
    # Kept although it fails every time: at 2048 nodes the circle residual is
    # about 3.8e-10 against eig_tol 1e-10.  Its input does not depend on the
    # seed, so the failed share is the same in every run.
    FAILING_CIRCLE = (2048, 1.0)

    def __init__(self, seed: int, scratch: str):
        rng = random.Random(seed)
        count = self.k + 1
        self.rungs = []
        # Round circles below the dense-eigh / eigsh switch at 512 nodes, with
        # a drawn from [1, 4], where their residuals stay below 4e-11.  Sizes
        # of 512 and more go through eigsh with a random start vector and
        # fail now and then (n=512: residual 5.7e-10 once in 20 passes), so
        # the only rung on that path is the one that always fails.
        for n in (256, 384, 448):
            a = rng.uniform(1.0, 4.0)
            self.rungs.append((f"circle n={n} a={a:.6g}", weighted_circle(n, a=a), cf.circle_spectrum(a, count)))
        n, a = self.FAILING_CIRCLE
        self.rungs.append((f"circle n={n} a={a:g}", weighted_circle(n, a=a), cf.circle_spectrum(a, count)))
        u, a = rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
        prod = product_family([scaled_gaussian_family(u, 1), round_circle_family(a)])
        self.rungs.append(
            (
                f"gaussian u={u:.6g} x circle a={a:.6g}",
                discretize(evaluate_family(prod, 0.0), resolution=256, hermite_order=12),
                cf.minkowski(count, cf.gaussian_spectrum(u, count), cf.circle_spectrum(a, count)),
            )
        )
        u = rng.uniform(0.5, 2.0)
        self.rungs.append(
            (
                f"gaussian n=3 u={u:.6g}",
                discretize(evaluate_family(scaled_gaussian_family(u, 3), 0.0), hermite_order=12),
                cf.minkowski(count, *[cf.gaussian_spectrum(u, count)] * 3),
            )
        )

    def round(self) -> Round:
        failures = []
        seconds = 0.0
        problems = []
        for label, dm, expected in self.rungs:
            start = time.perf_counter()
            try:
                forms = spectral.assemble_forms(dm)
                result = spectral.lowest_eigenpairs(forms, self.k)
            except SolverError:
                seconds += time.perf_counter() - start
                failures.append(label)
                continue
            seconds += time.perf_counter() - start
            problems += cf.spectrum_problems(label, result.eigenvalues, expected)
            fields = np.stack([f.ravel() for f in result.eigenfunctions])
            problems += cf.orthonormality_problems(label, fields, forms.mass_diag)
            del forms, result, fields
        return Round(len(self.rungs), seconds / len(self.rungs), problems, failures)


class VerifySuite:
    """One in-process ``driftflow verify`` of all ten criteria per operation.

    An operation takes about ten seconds, over which the machine's speed
    changes, so the reference computation is also timed after each
    criterion; its time is taken out of the operation's.
    """

    reference_kind = "interpreted"

    def __init__(self, seed: int, scratch: str):
        self.out_dir = os.path.join(scratch, "verify")
        self.argv = ["verify", "--out", self.out_dir]

    def round(self) -> Round:
        criteria = list(acceptance.CRITERIA)
        references = []

        def probed(criterion):
            def run():
                result = criterion()
                references.append(reference.seconds(self.reference_kind))
                return result

            return run

        acceptance.CRITERIA[:] = [probed(c) for c in criteria]
        try:
            start = time.perf_counter()
            code = _quiet_main(self.argv)
            seconds = time.perf_counter() - start - sum(references)
        finally:
            acceptance.CRITERIA[:] = criteria
        if code != 0:
            return Round(1, seconds, [f"driftflow verify exited {code}"], references=references)
        with open(os.path.join(self.out_dir, "acceptance_report.json"), encoding="utf-8") as fh:
            return Round(1, seconds, cf.verify_report_problems(json.load(fh)), references=references)


WORKLOADS = {
    "product_scalars": ProductScalars,
    "eternal_gaussian": EternalGaussian,
    "spectral_ladder": SpectralLadder,
    "verify_suite": VerifySuite,
}
