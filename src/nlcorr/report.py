"""Deterministic JSON reports: fixed schema, fixed float formatting.

Every CLI run emits {"version", "subcommand", "inputs_digest", "seed",
"results", "tolerances"}. Floats are rendered with 17 significant digits so
the same arguments and inputs always produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError

REPORT_VERSION = "1"


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"reports cannot carry non-finite numbers ({x})")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Compact JSON with deterministic key order and fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (
            f"{canonical_json(str(k))}:{canonical_json(v)}" for k, v in obj.items()
        )
        return "{" + ",".join(items) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} into a report")


def inputs_digest(argv, paths) -> str:
    """SHA-256 over the argument vector and the bytes of every input file."""
    h = hashlib.sha256()
    for a in argv:
        h.update(str(a).encode())
        h.update(b"\x00")
    for p in paths:
        h.update(Path(p).read_bytes())
        h.update(b"\x01")
    return h.hexdigest()


def make_report(subcommand: str, digest: str, seed: int | None, results, tolerances) -> dict:
    """The report object; ``seed`` is None for a run that draws no random numbers."""
    return {
        "version": REPORT_VERSION,
        "subcommand": subcommand,
        "inputs_digest": digest,
        "seed": None if seed is None else int(seed),
        "results": results,
        "tolerances": tolerances,
    }


def write_report(report: dict, out_path=None) -> str:
    text = canonical_json(report) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text)
    return text


def write_curve(path, header: tuple[str, ...], rows) -> None:
    """Two-or-more-column CSV curve with the same float formatting as reports."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                _format_float(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                for x in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
