"""Plain-text table rendering and machine-readable experiment payloads."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

#: Schema version stamped into every experiment JSON payload.
EXPERIMENT_SCHEMA_VERSION = 1

#: JSON-representable scalar cell types (tables may also hold "-" etc.).
_SCALAR_TYPES = (str, int, float, bool, type(None))


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    out: List[str] = [line(headers), separator]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def format_experiment(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str = "",
) -> str:
    """A titled experiment block, ready for the terminal or a report."""
    parts = [f"== {title} ==", format_table(headers, rows)]
    if note:
        parts.append(note)
    return "\n".join(parts) + "\n"


def experiment_payload(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    note: str = "",
    meta: Dict[str, Any] | None = None,
) -> Dict[str, Any]:
    """The machine-readable twin of :func:`format_experiment`.

    Benchmarks persist this next to their .txt tables
    (``benchmarks/results/<name>.json``) so perf numbers — scale,
    wall-clock, hash counts, cache hit rates — accumulate as a
    parseable trajectory instead of prose. ``meta`` carries
    benchmark-specific key figures (e.g. speedup factors) that a tracker
    should not have to re-derive from table cells.
    """
    payload = {
        "schema_version": EXPERIMENT_SCHEMA_VERSION,
        "name": name,
        "title": title,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "note": note,
        "meta": dict(meta or {}),
    }
    validate_experiment_payload(payload)
    return payload


def validate_experiment_payload(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the schema.

    Checked at write time by every benchmark and at tier-1 time over the
    committed ``benchmarks/results/*.json`` files, so a drifting bench
    script cannot silently corrupt the recorded perf trajectory.
    """

    def fail(message: str) -> None:
        raise ValueError(f"experiment payload invalid: {message}")

    if not isinstance(payload, dict):
        fail("payload must be an object")
    required = {
        "schema_version", "name", "title", "headers", "rows", "note", "meta"
    }
    missing = required - payload.keys()
    if missing:
        fail(f"missing keys {sorted(missing)}")
    if payload["schema_version"] != EXPERIMENT_SCHEMA_VERSION:
        fail(f"unknown schema_version {payload['schema_version']!r}")
    for key in ("name", "title", "note"):
        if not isinstance(payload[key], str):
            fail(f"{key} must be a string")
    if not payload["name"]:
        fail("name must be non-empty")
    headers = payload["headers"]
    if not isinstance(headers, list) or not headers:
        fail("headers must be a non-empty list")
    if not all(isinstance(h, str) for h in headers):
        fail("headers must be strings")
    rows = payload["rows"]
    if not isinstance(rows, list):
        fail("rows must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(headers):
            fail(f"row {i} must be a list of {len(headers)} cells")
        for cell in row:
            if not isinstance(cell, _SCALAR_TYPES):
                fail(f"row {i} holds non-scalar cell {cell!r}")
    meta = payload["meta"]
    if not isinstance(meta, dict):
        fail("meta must be an object")
    for key, value in meta.items():
        if not isinstance(key, str) or not isinstance(value, _SCALAR_TYPES):
            fail(f"meta entry {key!r} must map a string to a scalar")
    # Optional well-known meta field: benchmarks that measure memory
    # record their tracemalloc peak here so the perf trajectory can
    # track footprint alongside wall-clock.
    if "peak_memory_bytes" in meta:
        peak = meta["peak_memory_bytes"]
        if not isinstance(peak, int) or isinstance(peak, bool) or peak < 0:
            fail("meta.peak_memory_bytes must be a non-negative integer")
