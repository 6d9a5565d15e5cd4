"""The benchmark's traced run names package functions by (module, name) and
silently skips a name that no longer exists, which would empty that layer's
metrics. Every traced layer must resolve to a callable of the package, and
every traced ``scoring`` layer must be reached through the module attribute
the tracer rebinds."""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorfm as tfm
from tensorfm.params import KINDS

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


CONSTANTS = _constants(TRACING)
SCORING_LAYERS = [fn_name for mod_name, fn_name in CONSTANTS["LAYERS"] if mod_name == "scoring"]

# The kinds whose forward plus backward pass calls each traced scoring layer.
LAYER_KINDS = {
    "forward_batch": KINDS,
    "score_dataset": KINDS,
    "score": KINDS,
    "gather_embeddings": tuple(kind for kind in KINDS if kind != "lr"),
    "cp_mode_products": ("tensorfm",),
    "cp_order_batch": ("tensorfm",),
    "tucker_mode_products": ("tensorfm-tucker",),
    "tucker_order_batch": ("tensorfm-tucker",),
    "hofm_table_batch": ("hofm",),
}


def test_every_traced_layer_is_a_package_callable():
    package, layers = CONSTANTS["PACKAGE"], CONSTANTS["LAYERS"]
    assert layers
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name in layers
        if not callable(getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None))
    ]
    assert missing == []


def _count_calls(monkeypatch, module_name: str, fn_name: str) -> list[int]:
    """Rebind ``fn_name`` wherever a package module holds it, as the tracer
    does, to a wrapper that counts its calls."""
    original = getattr(importlib.import_module(f"{CONSTANTS['PACKAGE']}.{module_name}"), fn_name)
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == CONSTANTS["PACKAGE"] or name.startswith(CONSTANTS["PACKAGE"] + "."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("layer", SCORING_LAYERS)
def test_traced_scoring_layer_is_called_by_the_kinds_that_use_it(monkeypatch, layer):
    assert layer in LAYER_KINDS, f"state which kinds call the traced layer scoring.{layer}"
    rng = np.random.default_rng(0)
    schema = tfm.build_schema([3, 4, 2, 3])
    active = np.stack([rng.integers(0, c, size=6) for c in schema.cardinalities], axis=1)
    ds = tfm.Dataset(schema, active, rng.uniform(0.5, 1.5, size=active.shape), rng.integers(0, 2, size=6))
    calls = _count_calls(monkeypatch, "scoring", layer)
    for kind in KINDS:
        bundle = tfm.init(kind, schema, k=3, d=3, r_vec=2, seed=1)
        before = calls[0]
        tfm.score_dataset(bundle, ds)
        tfm.score(bundle, ds.instance(0))
        tfm.backward(bundle, ds.instance(1))
        assert (calls[0] > before) == (kind in LAYER_KINDS[layer]), kind
