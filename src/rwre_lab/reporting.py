"""Deterministic report writers (JSON, CSV, two-column plot data).

Floats are rendered with repr (shortest round-trip form), so identical
inputs always produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence

import numpy as np


def fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence],
              meta: str | None = None) -> None:
    """Write CSV; an optional provenance string becomes a leading # comment."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def write_site_csv(path, prefix: str, sites, columns: dict,
                   meta: str | None = None) -> None:
    """One row per site of an (n, d) integer array: its coordinates as
    prefix1..prefixd, then the named columns, each one cell per site."""
    sites = np.asarray(sites, dtype=np.int64)
    header = [f"{prefix}{k + 1}" for k in range(sites.shape[1])] + list(columns)
    write_csv(path, header, ([*site, *(col[i] for col in columns.values())]
                             for i, site in enumerate(sites.tolist())), meta=meta)


def write_plotdata(path, xs: Sequence, ys: Sequence,
                   meta: str | None = None) -> None:
    """Two-column whitespace-separated text, one point per line."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        if meta:
            fh.write(f"# {meta}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{fmt_cell(x)} {fmt_cell(y)}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_json(path, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_hash(config: dict) -> str:
    canonical = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
