"""The package's public surface: every exported name resolves, and the
package re-exports exactly what its modules declare public."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import driftflow

PACKAGE = pathlib.Path(driftflow.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")

# Reached by no run, criterion or certificate, and so not part of the package.
REMOVED = (
    "step_modified_flow",
    "evolve_scalar",
    "ScalarTrajectory",
    "flow_equation_residual",
    "weighted_pairings",
    "energy_profile",
    "bochner_residual",
    "UndefinedQuotientError",
    "linear_comparison",
    "BoundCase",
    "BoundCurve",
    "ForwardDiffVerdict",
    "forward_diff_check",
    # Time derivatives are taken from each output's own rates, not by differencing outputs.
    "finite_diff_time_derivative",
    "FlowTrajectory.short_last",
    "FlowTrajectory.short_stencil",
    "FlowTrajectory.time_derivative",
    "FunctionalResidualReport.max_rel_E",
    "FunctionalResidualReport.max_rel_F",
    "FunctionalResidualReport.quotient_excess",
    "QuadraticForms.J",
    "QuadraticForms.D",
    # A run's record holds each output's manifold; no code read the wrapper, the start time or the mixing.
    "FlowState",
    "FlowTrajectory.states",
    "FlowTrajectory.t0",
    "FlowTrajectory.mixing",
    # Safeguard settings that no config set are module constants of flow.
    "RunRequest.noise_floor",
    "RunRequest.stability_factor",
    # No family, key or criterion set an additive weight constant.
    "QuadraticForms.scale",
    "ContinuumState.f_constant",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined(name):
    module = importlib.import_module(f"driftflow.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from driftflow.{name} import *", {})


def test_package_imports_only_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    private = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"driftflow.{node.module}")
            public = getattr(module, "__all__", None)
            if public is not None:
                private += [f"{node.module}.{alias.name}" for alias in node.names if alias.name not in public]
    assert private == []


def test_every_traced_benchmark_span_resolves():
    # the benchmark's traced mode wraps each (module, attribute) of TRACED by name
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}" for module, attr in spans.TRACED
        if not callable(getattr(importlib.import_module(f"driftflow.{module}"), attr, None))
    ]
    assert spans.TRACED and missing == []


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_importable(name):
    owner, _, attr = name.rpartition(".")
    if owner:  # a member of a class that stays
        modules = [importlib.import_module(f"driftflow.{module}") for module in MODULES]
        classes = [getattr(m, owner) for m in modules if hasattr(m, owner)]
        assert classes
        for cls in classes:
            assert not hasattr(cls, attr) and attr not in getattr(cls, "__dataclass_fields__", {})
        return
    with pytest.raises(ImportError):
        exec(f"from driftflow import {name}", {})
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"driftflow.{module}"), name), module
