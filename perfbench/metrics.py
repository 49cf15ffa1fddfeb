"""Every metric the benchmark prints, with its unit and direction.

``BENCHMARK.json`` lists the same names; ``test_checker`` keeps the two in
step. End-to-end metrics are printed with ``--trace 0``, per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

END_TO_END = [
    ("ref_cpu_s", "s", "lower"),
    ("docs_per_ref_cpu_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_pss_mb", "MB", "lower"),
    ("ok_share", "share", "higher"),
]

RAY_OPS = ["read", "extract", "project", "shuffle_map", "shuffle_reduce",
           "write"]
QUERIES = ["supplier_part_join", "customers_with_orders",
           "click_purchase_matrix", "customer_order_counts", "user_sessions",
           "dedup_exact"]
SHARE_LAYERS = ["plan", "ray.execute", "collect", "resume.first_run",
                "unattributed"]

PER_LAYER = [
    ("kernel.ms_per_doc", "ms", "lower"),
    ("kernel.parse_ms_per_doc", "ms", "lower"),
    ("kernel.stats_ms_per_doc", "ms", "lower"),
    ("kernel.assemble_ms_per_doc", "ms", "lower"),
    ("kernel.render_ms_per_doc", "ms", "lower"),
    ("kernel.dead_letters.DocumentError", "count", "lower"),
    ("kernel.dead_letters.other", "count", "lower"),
    ("scorer.calls.newline_or_not", "count", "lower"),
    ("scorer.calls.dehyphen_paragraph", "count", "lower"),
    ("scorer.calls.is_split_paragraph", "count", "lower"),
    ("scorer.calls.single_score", "count", "lower"),
    ("scorer.ms_per_doc", "ms", "lower"),
    ("scorer.distinct_text_ratio", "ratio", "lower"),
    ("extract_stage.ms_per_doc", "ms", "lower"),
    ("extract_stage.arrow_ms_per_doc", "ms", "lower"),
    ("pages.bucket_rows_max_over_mean", "ratio", "lower"),
    ("pages.exchange_bytes", "bytes", "lower"),
    ("pages.sort_map_s", "s", "lower"),
    ("pages.sort_merge_s", "s", "lower"),
    ("pages.sort_reduce_s", "s", "lower"),
    *[(f"ray.{op}.{m}", unit, "lower") for op in RAY_OPS
      for m, unit in (("wall_s", "s"), ("udf_s", "s"), ("rows_out", "count"),
                      ("bytes_out", "bytes"))],
    ("pool.first_batch_s", "s", "lower"),
    ("pool.warmup_s", "s", "lower"),
    ("resume.first_run_s", "s", "lower"),
    ("resume.rerun_s", "s", "lower"),
    ("resume.shards_done", "count", "higher"),
    ("resume.shards_skipped", "count", "higher"),
    ("resume.files_written", "count", "lower"),
    ("resume.bytes_written", "bytes", "lower"),
    ("resume.non_kernel_share", "share", "lower"),
    ("resume.cpus_held_after_write", "count", "lower"),
    *[(f"ops.{q}.{m}", unit, "lower") for q in QUERIES
      for m, unit in (("wall_s", "s"), ("rows_out", "count"),
                      ("exchange_s", "s"))],
    ("out.dead_letter_rows", "count", "lower"),
    ("out.oracle_dead_letter_rows", "count", "lower"),
    ("run.wall_s", "s", "lower"),
    ("run.docs_per_s", "1/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    *[(f"trace.share.{layer}", "share", "lower") for layer in SHARE_LAYERS],
]


def render(values: dict, trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric of the mode.
    A per-layer metric the workload does not exercise reads 0; an undeclared
    or missing end-to-end value raises."""
    table = PER_LAYER if trace else END_TO_END
    unknown = set(values) - {name for name, _, _ in table}
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    out = {}
    for name, unit, _ in table:
        if not trace and name not in values:
            raise KeyError(f"missing end-to-end metric {name}")
        out[name] = {"value": values.get(name, 0), "unit": unit}
    return out
