"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps module attributes of the package. A name is wrapped in
its defining module and in every package module that bound the same object
with ``from ... import``, so calls through either path are counted. A
layer's self time is its span minus the time of the spans it caused.
Spans are aggregated in memory per name; nothing is written until the
benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "tensorfm"

# (module, function) pairs whose calls and self time the traced run reports.
LAYERS = (
    ("data", "read_dataset"),
    ("data", "write_dataset"),
    ("params", "init"),
    ("params", "save_bundle"),
    ("params", "load_bundle"),
    ("scoring", "forward_batch"),
    ("scoring", "gather_embeddings"),
    ("scoring", "cp_mode_products"),
    ("scoring", "cp_order_batch"),
    ("scoring", "tucker_mode_products"),
    ("scoring", "tucker_order_batch"),
    ("scoring", "hofm_table_batch"),
    ("scoring", "score_dataset"),
    ("scoring", "score"),
    ("training", "train"),
    ("training", "backward_from_cache"),
    ("training", "adagrad_step"),
    ("metrics", "auc"),
    ("metrics", "logloss"),
    ("cli", "main"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install with :meth:`install`; always call :meth:`uninstall` after."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []  # one accumulator per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, SpanStats())
        child_time = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = child_time.pop()
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - children
                if child_time:
                    child_time[-1] += span

        return wrapper

    def install(self) -> None:
        """Wrap every layer name that exists; a missing name is skipped, and
        its metrics are absent from the report."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, fn_name in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
