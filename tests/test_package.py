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
    # Per-axis vectors meet a field through axes.along, which broadcasts without allocating.
    "DiscreteWeightedManifold.axis_profile",
    "_along",
    # An axis's mass diagonal is its quadrature density ``wdens``, read directly.
    "CircleAxis.mass_diag",
    "HermiteLineAxis.mass_diag",
    # A run's outputs are one stacked manifold, built once; the solve, the commutator and
    # the checks read its stacked axes, with no per-output gathers or rebuilds.
    "_stacked_eigenpairs",
    "_stack_blocks",
    "_stiffness_product",
    "_stacked_axis",
    "_weighted_norms",
    "_Layout.manifold",
    # The solve reads the per-order eigenvector table; the eigenvalues are j / (2 scale).
    "HermiteLineAxis.analytic_eigenvalues",
    "HermiteLineAxis.eigens",
    # A run keeps its eigenvalues and eigen-residuals as (m, k + 1) arrays and no eigenfunction;
    # spectra.json is written from those arrays.
    "FlowTrajectory.spectra",
    "SpectralResult.to_json_dict",
    "_lambda_series",
    # A run's step count is RunRequest.steps, which output_count and the recorded steps read.
    "step_count",
    # Float and list states step their RK4 stages inline in flow's step kernels, with no attempt or rhs call.
    "_float_attempt",
    "_list_attempt",
    "_list_rhs",
    "_multiplier_rhs",
    # The array kernel steps, estimates and halves inline, as the float and list kernels do.
    "_step",
    "_array_attempt",
    # One loop of run_flow over sub-stacks of outputs solves, checks, fills and pairs each sub-stack.
    "_output_pass",
    "_pairings",
    # A run writes both its CSVs through runner._write_csv, from the header and the columns.
    "_write_trajectory_csv",
    "_write_bounds_csv",
)

# Instance attributes that nothing reads: an axis's quadrature density is ``wdens``.
REMOVED_AXIS_ATTRIBUTES = ("_eigvecs", "density")


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


def test_removed_axis_attributes_are_not_set():
    axes = [driftflow.weighted_circle(8).axes[0], driftflow.gaussian_line(1.0, order=4).axes[0]]
    assert [(type(ax).__name__, a) for ax in axes for a in REMOVED_AXIS_ATTRIBUTES if hasattr(ax, a)] == []


def _calls_by_function(attr: str) -> set:
    """(module, enclosing class.function) of every use of the attribute ``attr`` in the package."""
    found = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for module in MODULES:
        visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), module, "")
    return found


def test_only_axes_and_the_oracles_transpose_an_axis_to_the_front():
    # every other module applies per-axis operators through axes.apply_along
    named = {module for module in MODULES if "axis_to_front" in (PACKAGE / f"{module}.py").read_text(encoding="utf-8")}
    assert named == {"axes", "oracles"}
    assert {module for module, _ in _calls_by_function("transpose")} <= {"axes", "oracles"}


def test_broadcast_to_only_samples_a_constant_circle_model():
    # per-axis vectors broadcast through axes.along, a view with no grid-sized shape
    assert _calls_by_function("broadcast_to") == {("geometry", "CircleModel.a_at"), ("geometry", "CircleModel.f_at")}
