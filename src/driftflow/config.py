"""Scenario configuration: a flat, strictly validated key-value document.

Scenario files are JSON objects with only scalar values, so they double as
acceptance-test fixtures.  Unknown keys are rejected.  Product geometries are
encoded in a compact factor string, e.g.

    "family": "product",
    "factors": "scaled_gaussian:u0=1,n=1;round_circle:a0=0.25"

whose factor kinds and parameter names are checked like keys, and whose
values are held to the bounds of the top-level keys of the same names.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

from .errors import ConfigurationError
from .flow import MAX_STEP, RunRequest, output_count, output_index
from .geometry import product_family, round_circle_family, scaled_gaussian_family

__all__ = ["ScenarioConfig", "load_config"]

_BOUNDS = {
    "horizon": (0.0, 100.0),
    "t0": (-100.0, 100.0),
    "dt": (1e-6, MAX_STEP),
    "cadence": (1, 100000),
    # The eigen-residual check's own round-off grows as resolution^2: on
    # round circles at k = 16 it reads 1.13e-11 at 1024 nodes, 3.71e-11 at
    # 1500, 7.40e-11 at 2048 and 1.71e-10 at 4096, so it reaches the default
    # eig_tol 1e-10 between 2048 and 4096 nodes.
    "resolution": (8, 1024),
    "hermite_order": (3, 64),
    "modes": (1, 2048),
    "k": (1, 16),
    "eig_tol": (1e-14, 1e-2),
    "adaptive_tol": (1e-14, 1e-2),
    "u0": (1e-8, 1e8),
    "a0": (1e-8, 1e8),
    "f0": (-50.0, 50.0),
    "n": (1, 4),
    "seed": (0, 2**31 - 1),
}

# The parameters each factor kind of a product takes, with their types; every
# value is held to the bounds of the top-level key of the same name.
_FACTOR_PARAMS = {
    "scaled_gaussian": {"u0": float, "n": int},
    "round_circle": {"a0": float, "f0": float},
}


def _number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


# The check and the name in the error message of each field annotation of
# ScenarioConfig (a string, as the module defers its annotations).
_FIELD_TYPES = {
    "str": ("a string", lambda val: isinstance(val, str)),
    "bool": ("a boolean", lambda val: isinstance(val, bool)),
    "int": ("an integer", lambda val: isinstance(val, int) and not isinstance(val, bool)),
    "float": ("a number", _number),
    "float | None": ("a number", lambda val: val is None or _number(val)),
}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "run"
    family: str = "scaled_gaussian"
    u0: float = 1.0
    n: int = 1
    a0: float = 1.0
    f0: float = 0.0
    factors: str = ""
    t0: float = 0.0
    horizon: float = 0.5
    dt: float = 1e-3
    cadence: int = 10
    resolution: int = 64
    hermite_order: int = 12
    modes: int = 32
    k: int = 2
    backend: str = "galerkin"
    eig_tol: float = 1e-10
    adaptive_tol: float = 1e-9
    seed: int = 0
    track_scalars: bool = True
    check_bounds: bool = True
    check_functionals: bool = False
    check_commutator: bool = False
    check_bochner: bool = False
    check_splitting: bool = False
    splitting_t0: float | None = None
    splitting_t1: float | None = None
    out_dir: str = ""

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**raw)
        cfg._validate()
        return cfg

    def _validate(self) -> None:
        for f in fields(self):
            what, valid = _FIELD_TYPES[f.type]
            if not valid(getattr(self, f.name)):
                raise ConfigurationError(f"config key {f.name} must be {what}")
        if self.family not in ("scaled_gaussian", "round_circle", "product"):
            raise ConfigurationError(f"unknown family {self.family!r}")
        if self.backend not in ("galerkin", "analytic"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.family == "product" and not self._factors():
            raise ConfigurationError("product family requires a 'factors' string naming at least one factor")
        # The splitting window's ends are read at recorded outputs, so each must lie in the run.
        window = dict.fromkeys(("splitting_t0", "splitting_t1"), (self.t0, self.t0 + self.horizon))
        for key, (lo, hi) in {**_BOUNDS, **window}.items():
            val = getattr(self, key)
            if val is None:
                continue
            if not (lo <= val <= hi):
                raise ConfigurationError(f"config key {key} = {val} outside [{lo}, {hi}]")
        if self.modes > self.resolution // 2:
            raise ConfigurationError(
                f"mode cutoff {self.modes} exceeds resolution/2 = {self.resolution // 2}"
            )
        # The name is the run's directory under the output root, so it must stay inside it.
        if self.name in ("", ".", "..") or os.path.basename(self.name) != self.name or "\0" in self.name:
            raise ConfigurationError(
                f"scenario name {self.name!r} must be one plain path component: nonempty, not '.' or '..', "
                "without a path separator or a NUL"
            )
        request = self.to_request()  # for every config, so one whose request cannot be built fails here
        # The splitting certificate compares the outputs nearest the window's
        # two ends; a run without two such outputs is refused here, before
        # the run, rather than after it.
        if not self.check_splitting:
            return
        outputs = output_count(request)
        if outputs < 2:
            raise ConfigurationError(
                f"check_splitting needs at least 2 outputs, but horizon {self.horizon}, "
                f"dt {self.dt} and cadence {self.cadence} give {outputs}"
            )
        t0, t1 = self.splitting_window()
        i0, i1 = output_index(request, t0), output_index(request, t1)
        if i1 <= i0:
            raise ConfigurationError(
                f"splitting_t0 = {t0} and splitting_t1 = {t1} read outputs {i0} and {i1} of 0..{outputs - 1}; "
                "the certificate needs the first before the second"
            )

    def splitting_window(self) -> tuple:
        """The ends (t0, t1) of the splitting window, by default the run's start and end."""
        return (self.t0 if self.splitting_t0 is None else self.splitting_t0,
                self.t0 + self.horizon if self.splitting_t1 is None else self.splitting_t1)

    def _factors(self) -> list:
        """(kind, parameters) per entry of the ``factors`` string, each value
        typed and within the bounds of its top-level key."""
        specs = []
        for entry in filter(None, (part.strip() for part in self.factors.split(";"))):
            kind, _, args = (part.strip() for part in entry.partition(":"))
            known = _FACTOR_PARAMS.get(kind)
            if known is None:
                raise ConfigurationError(f"unknown factor kind {kind!r}")
            params = {}
            for item in args.split(",") if args else ():
                key, sep, value = (part.strip() for part in item.partition("="))
                if not sep:
                    raise ConfigurationError(f"malformed factor parameter {item!r}")
                if key not in known:
                    raise ConfigurationError(
                        f"unknown parameter {key!r} in factor {entry!r}; {kind} takes {', '.join(known)}"
                    )
                if key in params:
                    raise ConfigurationError(f"parameter {key!r} repeated in factor {entry!r}")
                try:
                    val = known[key](value)
                except ValueError as exc:
                    raise ConfigurationError(f"bad factor parameters in {entry!r}: {exc}") from exc
                lo, hi = _BOUNDS[key]
                if not (lo <= val <= hi):
                    raise ConfigurationError(f"config key {key} = {val} of factor {entry!r} outside [{lo}, {hi}]")
                params[key] = val
            specs.append((kind, params))
        return specs

    def _factor(self, kind: str, u0: float = 1.0, n: int = 1, a0: float = 1.0, f0: float = 0.0):
        if kind == "scaled_gaussian":
            return scaled_gaussian_family(u0, n, self.t0)
        return round_circle_family(a0, self.t0, f0)

    def build_family(self):
        if self.family != "product":
            return self._factor(self.family, self.u0, self.n, self.a0, self.f0)
        return product_family([self._factor(kind, **params) for kind, params in self._factors()])

    def to_request(self) -> RunRequest:
        """The run of this config: each ``RunRequest`` key but the family read by its name."""
        keys = {f.name: getattr(self, f.name) for f in fields(RunRequest) if f.name != "family"}
        return RunRequest(family=self.build_family(), **keys)

    def canonical_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    return ScenarioConfig.from_dict(raw)
