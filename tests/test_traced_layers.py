"""The benchmark's traced run names package functions by (module, name) and
silently skips a name that no longer exists, which would empty that layer's
metrics. Every traced layer must resolve to a callable of the package."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _constants(path: Path) -> dict[str, object]:
    """The literal module-level assignments of ``path``, read without
    running it."""
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, (ast.Constant, ast.Tuple))
    }


def test_every_traced_layer_is_a_package_callable():
    constants = _constants(TRACING)
    package, layers = constants["PACKAGE"], constants["LAYERS"]
    assert layers
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name in layers
        if not callable(getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None))
    ]
    assert missing == []
