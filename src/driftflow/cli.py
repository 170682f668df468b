"""Command line front door: run, sweep, verify, report.

Exit codes: 0 success, 2 configuration error, 3 stability error, 4 solver
error (an eigen solve short of its residual, or tracked scalars that are
linearly dependent in weighted L2), 5 verification failure, 1 anything
else.  Every failure prints one machine-parsable line
``error: <kind>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .config import ScenarioConfig, load_config
from .errors import (
    ConfigurationError,
    DegeneracyError,
    DomainError,
    DriftflowError,
    SolverError,
    StabilityError,
    UsageError,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4
EXIT_VERIFICATION = 5


def _fail(kind: str, message: str, code: int) -> int:
    print(f"error: {kind}: {message}", file=sys.stderr)
    return code


def _one_line(exc: Exception) -> str:
    return f"{type(exc).__name__}: {' '.join(str(exc).split())}"


# Failure kinds in priority order, with the errors each covers and its exit code: a run's
# error takes the first kind it matches, a failed sweep the first kind among its runs.
_KINDS = (
    ("config", (ConfigurationError, DomainError, UsageError), EXIT_CONFIG),
    ("stability", StabilityError, EXIT_STABILITY),
    ("solver", (SolverError, DegeneracyError), EXIT_SOLVER),
    ("unexpected", Exception, EXIT_UNEXPECTED),
)


def _classify(exc: Exception) -> tuple[str, int]:
    return next((kind, code) for kind, errors, code in _KINDS if isinstance(exc, errors))


def _cmd_run(args) -> int:
    from .runner import execute

    config = load_config(args.config)
    result = execute(config, out_root=args.out)
    failed = result.failed
    print(f"{config.name}: wrote {len(result.files)} files to {result.out_dir}")
    for name, checks in result.verifications.items():
        print(f"  verify {name}: {'FAILED' if name in failed else 'ok'}")
        for check in checks:
            if not check.passed:
                print(f"    {check}")
    if failed and args.strict:
        return _fail("verification", f"checks failed: {', '.join(failed)}", EXIT_VERIFICATION)
    return EXIT_OK


def _parse_grid(text: str) -> dict:
    grid = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, values = part.partition("=")
        if not sep or not values:
            raise ConfigurationError(f"malformed grid entry {part!r}")
        parsed = []
        for token in values.split(","):
            token = token.strip()
            try:
                parsed.append(json.loads(token))
            except json.JSONDecodeError:
                parsed.append(token)
        grid[key.strip()] = parsed
    if not grid:
        raise ConfigurationError("empty sweep grid")
    return grid


def _sweep_worker(raw: dict, out_root: str | None):
    from .runner import execute

    try:
        config = ScenarioConfig.from_dict(raw)
        result = execute(config, out_root=out_root)
        return (raw["name"], "verification" if result.failed else "ok", result.out_dir)
    except DriftflowError as exc:
        kind, _ = _classify(exc)
        return (raw.get("name", "?"), kind, str(exc))
    except Exception as exc:  # one bad combination must not lose the sweep manifest
        return (raw.get("name", "?"), "unexpected", _one_line(exc))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    base = load_config(args.config)
    grid = _parse_grid(args.grid)
    unknown = set(grid) - set(base.canonical_dict())
    if unknown:
        raise ConfigurationError(f"grid keys not in config schema: {', '.join(sorted(unknown))}")

    keys = sorted(grid)
    combos = []
    for values in itertools.product(*(grid[key] for key in keys)):
        raw = base.canonical_dict()
        suffix = "-".join(f"{key}={value}" for key, value in zip(keys, values))
        raw.update(dict(zip(keys, values)))
        raw["name"] = f"{base.name}-{suffix}"
        combos.append(raw)

    # A process pool forks all its workers at the first submit, so start no
    # more than there are runs and usable cores.
    workers = min(args.jobs, len(combos), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing: only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, combos, [args.out] * len(combos)))
    else:
        outcomes = [_sweep_worker(raw, args.out) for raw in combos]

    out_root = args.out or base.out_dir or os.environ.get("DRIFTFLOW_OUT", "runs")
    os.makedirs(out_root, exist_ok=True)
    with open(os.path.join(out_root, "sweep_manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            [{"name": n, "status": s, "where": w} for n, s, w in outcomes],
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    bad = [o for o in outcomes if o[1] != "ok"]
    for name, status, where in outcomes:
        print(f"{name}: {status} ({where})")
    if not bad:
        return EXIT_OK
    statuses = {s for _, s, _ in bad}
    if statuses == {"verification"}:
        return (
            _fail("verification", f"{len(bad)} runs failed verification", EXIT_VERIFICATION)
            if args.strict
            else EXIT_OK
        )
    kind, code = next((kind, code) for kind, _, code in _KINDS if kind in statuses or kind == "unexpected")
    return _fail(kind, f"{len(bad)} runs failed", code)


def _cmd_verify(args) -> int:
    from .acceptance import failed, run_all

    results = run_all(verbose=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "acceptance_report.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump([r.to_json_dict() for r in results], fh, indent=2, sort_keys=True)
            fh.write("\n")
    bad = failed({f"C{r.cid}": r.checks for r in results})
    if bad:
        return _fail("verification", f"{len(bad)} acceptance criteria failed: {', '.join(bad)}", EXIT_VERIFICATION)
    print(f"all {len(results)} acceptance criteria passed")
    return EXIT_OK


def _manifest_checks(manifest: dict) -> dict:
    """The manifest's verification records by check; an entry that does not
    read as records counts as empty, and so fails, as does a whole
    ``verifications`` that is not an object."""
    from .acceptance import Check

    verifications = manifest.get("verifications", {})
    if not isinstance(verifications, dict):
        return {"verifications": []}
    groups = {}
    for name, records in verifications.items():
        try:
            groups[name] = [Check(str(r["name"]), float(r["value"]), float(r["tol"])) for r in records]
        except (KeyError, TypeError, ValueError):
            groups[name] = []
    return groups


def _cmd_report(args) -> int:
    from .acceptance import failed

    rows = []
    for root, _dirs, files in os.walk(args.dir):
        if "manifest.json" not in files:
            continue
        try:
            with open(os.path.join(root, "manifest.json"), "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(manifest, dict):
            continue
        status = "FAILED" if failed(_manifest_checks(manifest)) else "ok"
        fields = (manifest.get("name", "?"), manifest.get("config_hash", "?"), manifest.get("outputs", 0))
        rows.append((*map(str, fields), status))
    if not rows:
        return _fail("config", f"no run manifests found under {args.dir}", EXIT_CONFIG)
    width = max(len(r[0]) for r in rows)
    print(f"{'name'.ljust(width)}  {'hash'.ljust(16)}  outputs  status")
    for name, chash, outputs, status in sorted(rows):
        print(f"{name.ljust(width)}  {chash.ljust(16)}  {outputs:>7}  {status}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftflow",
        description="Modified Ricci flow / drift Laplacian numerical laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("--config", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--strict", action="store_true", help="verification failures exit nonzero")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cartesian parameter sweep over a base config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--grid", required=True, help='e.g. "u0=1,2,4;horizon=0.5,1"')
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--strict", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--out", default=None, help="also write acceptance_report.json here")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="summarize run manifests under a directory")
    p_report.add_argument("--dir", default="runs")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DriftflowError as exc:  # the one error path of every command
        kind, code = _classify(exc)
        return _fail(kind, str(exc), code)
    except Exception as exc:  # anything else still gets one line, not a traceback
        return _fail("unexpected", _one_line(exc), EXIT_UNEXPECTED)


if __name__ == "__main__":
    sys.exit(main())
