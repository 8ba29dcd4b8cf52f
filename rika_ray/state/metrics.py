"""Extraction-rate metrics (operator A4, SURVEY.md §2.5).

Two surfaces:
- per-partition rates persisted in the checkpoint manifest
  (``checkpoint.run_partitioned_extraction``) — the durable lineage record;
- in-session per-operator breakdowns read from Ray Data's structured stats
  (``DatasetStatsSummary``) — the interactive tuning view this module
  provides.
"""

from __future__ import annotations


def stage_summary(summary) -> list[dict]:
    """Per-operator rows {operator, wall_s, rows, rows_per_sec} of a
    ``DatasetStatsSummary``, upstream operators first."""
    out = []
    for parent in summary.parents:
        out += stage_summary(parent)
    for op in summary.operators_stats:
        wall = op.time_total_s
        rows = (op.output_num_rows or {}).get("sum")
        out.append(
            {
                "operator": op.operator_name,
                "wall_s": wall,
                "rows": rows,
                "rows_per_sec": round(rows / wall, 1) if rows and wall else None,
            }
        )
    return out


def extraction_metrics(extracted_ds) -> dict:
    """Consume-and-measure: returns total docs + per-stage breakdown for an
    (already executed) extracted Dataset. Call after a consuming op
    (write/count/take) — the stats reflect the last execution. ``docs`` is
    the output of the last operator before the sink (a write emits one
    row per task, not per document)."""
    # a written dataset keeps its stats on the write plan, as
    # ``Dataset.stats()`` does
    write_ds = extracted_ds._write_ds
    if write_ds is not None and write_ds._plan.has_computed_output():
        extracted_ds = write_ds
    stages = stage_summary(extracted_ds._get_stats_summary())
    docs = next(
        (
            s["rows"]
            for s in reversed(stages)
            if s["rows"] and not s["operator"].endswith("Write")
        ),
        None,
    )
    return {"stages": stages, "docs": docs}
