"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or one of
the extension experiments listed in DESIGN.md).  Besides timing the
regeneration with pytest-benchmark, each bench *prints* the regenerated
table/series and also writes it to ``benchmarks/results/<name>.txt`` so the
outputs survive output capturing and land next to the timing numbers in
``bench_output.txt`` runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.analysis import GridSpec, format_table, grid_rows, run_grid

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    banner = f"\n{'=' * 78}\n{name}\n{'=' * 78}\n"
    print(banner + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_json(name: str, payload: Any) -> Path:
    """Persist a machine-readable result as ``benchmarks/results/BENCH_<name>.json``.

    These files are the cross-PR perf/behaviour trajectory: stable keys, sorted,
    newline-terminated, so diffs between runs stay reviewable.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[benchutil] wrote {path}")
    return path


def emit_grid(benchmark, spec: GridSpec, title: str, table: Sequence[str], **payload: Any):
    """Run ``spec`` under the pytest-benchmark timer, print its table — the
    cell labels, the SNOW verdict and the ``table`` columns ("-" where a row
    lacks one) — and write ``BENCH_<spec.name>.json``: the rows, protocols
    and seed, plus any extra top-level ``payload`` entries.  Returns the
    rows."""
    rows = benchmark(lambda: grid_rows(spec, run_grid(spec)))
    headers = ["protocol", *spec.axes, "scenario", "snow", *table]
    cells = [[row.get(header, "-") for header in headers] for row in rows]
    emit(f"{spec.name}_sweep", format_table(headers, cells, title=title))
    emit_json(
        spec.name,
        {"grid": rows, "protocols": list(spec.protocols), "seed": spec.seed, **payload},
    )
    return rows
