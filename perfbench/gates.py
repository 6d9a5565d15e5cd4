"""Correctness gates. Each takes values the workload already computed, outside
any timed region, and returns a :class:`Gate`; a failed gate counts as a
failed operation and makes the benchmark exit nonzero."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


def max_rel_err(got, want) -> float:
    """Largest |got - want| / max(|got|, |want|) over paired values (0 where
    both are 0)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    scale = np.maximum(np.abs(got), np.abs(want))
    diff = np.abs(got - want)
    err = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(err.max()) if err.size else 0.0


def rel_close(name: str, got, want, rtol: float) -> Gate:
    err = max_rel_err(got, want)
    return Gate(name, err <= rtol, f"max relative error {err:.3e} (limit {rtol:.0e})")


def all_identical(name: str, digests: list[str]) -> Gate:
    distinct = sorted(set(digests))
    ok = len(digests) > 0 and len(distinct) == 1
    return Gate(name, ok, f"{len(digests)} outputs, {len(distinct)} distinct")


def all_finite(name: str, values) -> Gate:
    values = np.asarray(values, dtype=np.float64)
    ok = values.size > 0 and bool(np.isfinite(values).all())
    return Gate(name, ok, f"{values.size} values, finite={ok}")


def at_least(name: str, value: float, floor: float) -> Gate:
    return Gate(name, value >= floor, f"{value:.4f} against floor {floor:.4f}")


_EVAL_LINE = re.compile(r"^(-?[0-9.]+),(-?[0-9.]+)$", re.MULTILINE)


def eval_output_matches(name: str, printed: str, logloss: float, auc: float) -> Gate:
    """The ``tensorfm eval`` output carries log-loss to six decimals and AUC in
    percent to four; both must equal the reference at that precision."""
    match = _EVAL_LINE.search(printed)
    if match is None:
        return Gate(name, False, f"no metrics line in {printed!r}")
    want = (f"{logloss:.6f}", f"{auc * 100.0:.4f}")
    ok = match.groups() == want
    return Gate(name, ok, f"printed {match.group(0)!r}, reference {','.join(want)!r}")
