"""The benchmark tracer (``benchmark/tracer.py``) wraps functions at the
module attributes their callers look up, and methods of
:class:`MultiScaleDetector`.  A site that no longer resolves, or that its
module no longer calls, otherwise shows up only when the benchmark runs.
The tracer is parsed here, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

from msfacedet.model import MultiScaleDetector

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"

# sites the tracer wraps although their module never calls them: fusion
# imports conv2d, conv2d_backward and maxpool2d, and training imports
# rpn_forward (MultiScaleDetector.forward calls it), only so that these sites resolve
UNCALLED_SITES = {
    ("msfacedet.fusion", "conv2d"),
    ("msfacedet.fusion", "conv2d_backward"),
    ("msfacedet.fusion", "maxpool2d"),
    ("msfacedet.training", "rpn_forward"),
}


def _tracer_constant(name: str):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACER}")


FUNCTION_SITES = [(module, attr) for module, attr, _ in _tracer_constant("FUNCTION_SITES")]


def _called_names(module) -> set:
    tree = ast.parse(Path(module.__file__).read_text())
    return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


@pytest.mark.parametrize("module_name, attr", FUNCTION_SITES, ids=[f"{m}:{a}" for m, a in FUNCTION_SITES])
def test_function_site_resolves_and_is_called_there(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} does not resolve"
    uncalled = (module_name, attr) in UNCALLED_SITES
    assert (attr in _called_names(module)) != uncalled, (
        f"{module_name} calls {attr} by that name: drop it from UNCALLED_SITES"
        if uncalled
        else f"{module_name} never calls {attr}, so the tracer site times nothing"
    )


def test_uncalled_sites_are_tracer_sites():
    assert UNCALLED_SITES <= set(FUNCTION_SITES)


@pytest.mark.parametrize("method", _tracer_constant("METHOD_SITES"))
def test_method_site_is_defined_on_the_detector(method):
    assert callable(MultiScaleDetector.__dict__.get(method))
