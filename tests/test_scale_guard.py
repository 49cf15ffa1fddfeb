"""Scale-regression guard: the 100 TB contract as a test.

Greps the pipeline/stage sources for driver-side materialization
anti-patterns — the exact class of defect round 1 was graded down for
(take_all id sets, whole-fact-table driver reads). Every allowed
exception is listed explicitly with its justification, so adding a new
scale-killer requires consciously editing this file."""

import ast
import pathlib
import re

PIPE_DIRS = [
    pathlib.Path("/root/repo/pd3f_ray/pipelines"),
    pathlib.Path("/root/repo/pd3f_ray/stages"),
]
SOURCES_DIR = PIPE_DIRS[0].parent / "sources"
RAY_ENTRY = PIPE_DIRS[0].parents[1] / "__ray_entry__.py"

# patterns that at corpus scale mean "the driver holds the corpus"
FORBIDDEN = {
    r"\.take_all\(": "materializes every row on the driver",
    r"\.iter_rows\(": "driver-side row loop",
    r"\.to_pandas\(\)": "materializes the Dataset on the driver",
}

# full-table driver reads of FACT tables (pq.read_table of a corpus
# table without a filter). Small dimension tables and documented oracle
# anchors are allowed below.
FACT_TABLES = ("lineitem", "orders", "events", "documents")

ALLOWED_READS = {
    # (file, table): why this driver read is legitimate
    ("dedup.py", "embeddings"):
        "embdup_cosine oracle anchor (embdup_lsh is the scale path)",
    ("joins.py", "nation"): "25-row dimension broadcast",
    ("joins.py", "region"): "5-row dimension broadcast",
    ("joins.py", "customer"):
        "AQE fast path, gated on metadata row count <= BROADCAST_MAX_ROWS",
    ("relational.py", "customer"):
        "AQE fast path, gated on metadata row count <= BROADCAST_MAX_ROWS",
}


def _sources(dirs=PIPE_DIRS):
    for d in dirs:
        for p in sorted(d.glob("*.py")):
            yield p, p.read_text()


def test_no_driver_materialization_patterns():
    hits = []
    for path, src in _sources():
        for pat, why in FORBIDDEN.items():
            for m in re.finditer(pat, src):
                line = src[: m.start()].count("\n") + 1
                hits.append(f"{path.name}:{line}: {pat} ({why})")
    assert not hits, "\n".join(hits)


def test_reads_go_through_the_cluster_sized_reader():
    """Every parquet read goes through ``core.cluster.read_parquet`` /
    ``read_table``: planned from the footers, at most one read task per
    logical CPU, so the read fuses with the first map. A bare Ray read
    runs sampling tasks and splits into up to 200 blocks, and a split
    read never fuses."""
    hits = []
    for path, src in _sources(PIPE_DIRS + [SOURCES_DIR]):
        for m in re.finditer(r"\b(?:_?rd|ray\.data)\.read_parquet\(", src):
            line = src[: m.start()].count("\n") + 1
            hits.append(f"{path.name}:{line}: bare Ray read — use "
                        "pd3f_ray.core.cluster.read_parquet/read_table")
    assert not hits, "\n".join(hits)


# Every site that hands a whole group to one reducer call must justify
# why its groups stay BOUNDED at corpus scale (the round-2
# unbounded-group findings: event_value_quantiles held every value of a
# type in one group; top_tokens_per_lang held a language's whole
# vocabulary). Keyed by (file, key literal); a new group_map on an
# unbounded key requires consciously editing this list. A site whose
# plan computed an int bucket and whose reducer groups on its own key
# calls bucket_exchange, under the one "exchange.py" entry.
#
# Per reduce task, a group_map holds one partition: P grows with the
# sources' estimated bytes (one partition per 128 MiB block of them),
# so a task holds about 128 MiB of source rows (≲ below: hashing
# spreads keys evenly, not exactly) times the fan-out of the maps
# before the exchange, and calls fn on one group at a time. Each reason
# states that fan-out and what bounds one group.
ALLOWED_MAP_GROUPS = {
    ("dedup.py", '["lang", "band"]'):
        "fan-out ≤ 2 (ghost rows): ≲ 2 × 128 MiB of documents per task; "
        "a group is one n_chars//64 band of one language",
    ("relational.py", '"rbucket"'):
        "fan-out 1: ≲ 128 MiB of documents per task; a group is one "
        "n_chars value-range band (RANK_BAND dial), never the corpus",
    ("relational.py", '"event_type"'):
        "input is the DISTINCT-value count table, bounded by value "
        "cardinality, not event count; a task holds ≤ its share of it",
    ("similarity.py", '"query_id"'):
        "input is ≤ blocks × k candidates per query after per-block "
        "top-k; a task holds ≲ 128 MiB of them",
    ("sketches.py", '"event_type"'):
        "input is one 4 KB HLL register row per (block, type)",
    ("textstats.py", '"lang"'):
        "input is the per-block top-k candidate table, ≤ blocks×k rows "
        "per language, not the vocabulary",
    ("windows.py", '"bucket"'):
        "fan-out ≤ 2 (windows replicated over ≤ 2 hours; 1.6× in bytes "
        "at sf0.1): ≲ 2 × 128 MiB of events per task; a group is one "
        "hour of events + the windows touching it",
    ("webcurate.py", '"source"'):
        "input is the per-(source, lang) aggregate table or the "
        "per-block top-cap table — groups are bounded by language "
        "cardinality or blocks × cap, not corpus size",
    ("webcurate.py", '"packb"'):
        "fan-out 1: ≲ 128 MiB of documents per task; a group is one "
        "doc_id // PACK_BUCKET_DOCS range, ≤ bucket_docs rows",
    ("dedup.py", '"band"'):
        "fan-out ≤ 2 (ghost rows) over the DISTINCT-NAME vocabulary "
        "rollup (bounded by the name domain, not the parts table); a "
        "group is one len//8 band",
    ("relational.py", '"source"'):
        "source_lang_matrix input is the (source, lang) aggregate — "
        "groups bounded by |langs|, never corpus size",
    ("webcurate.py", '"sband"'):
        "fan-out 1: ≲ 128 MiB of documents per task; a group is one "
        "(shard, digest-prefix band), bounded by corpus / "
        "16**band_chars (md5-uniform), band_chars is a dial; shard count "
        "never bounds a group (two-pass rank plan)",
    # a range partition on explicit sort boundaries handed whole to one
    # reducer call (pages, joins, windows and every hash-bucketed
    # pipeline reducer reach it)
    ("exchange.py", "key"):
        "bucket_exchange: a partition holds <= MAX_BUCKETS_PER_PARTITION "
        "(64) whole buckets (P >= ceil(num_buckets / 64)), so the bucket "
        "dial bounds per-call memory as it scales with the corpus, and P "
        "grows with the sources' bytes (one partition per 128 MiB)",
}

# a group_map call: not its definition, nor a ``group_map(...)``
# mention in a docstring
_GROUP_MAP_CALL = r"(?<!def )(?<!`)\bgroup_map\("
# a call argument with up to two levels of nested parentheses
_ARG = r"(?:[^(),]|\((?:[^()]|\([^()]*\))*\))+"
# every site that hands a whole group or range partition to one reducer
# call: groupby(key).map_groups, group_map(ds, key, fn), and
# sort(key, boundaries=...)
WHOLE_GROUP_SITES = (r"\.groupby\(([^)]*)\)\s*\.map_groups\(",
                     _GROUP_MAP_CALL + r"\s*" + _ARG
                     + r",\s*(\[[^\]]*\]|[^,()]+),",
                     r"\.sort\(([^,)]*),\s*boundaries=")


def test_map_groups_keys_are_allowlisted():
    hits = []
    for path, src in _sources():
        # the key pattern must see every group_map call, or a call it
        # cannot parse would go unchecked
        assert (len(re.findall(_GROUP_MAP_CALL, src))
                == len(re.findall(WHOLE_GROUP_SITES[1], src))), path.name
        for pat in WHOLE_GROUP_SITES:
            for m in re.finditer(pat, src):
                key = m.group(1).strip()
                if (path.name, key) in ALLOWED_MAP_GROUPS:
                    continue
                line = src[: m.start()].count("\n") + 1
                hits.append(f"{path.name}:{line}: whole-group reducer on "
                            f"{key} — not in ALLOWED_MAP_GROUPS (justify "
                            "boundedness)")
    assert not hits, "\n".join(hits)


def test_fact_table_driver_reads_are_allowlisted():
    hits = []
    for path, src in _sources():
        for m in re.finditer(r"pq\.read_table\(", src):
            window = src[m.start(): m.start() + 160]
            t = re.search(r'([a-z_]+)\.parquet', window) or \
                re.search(r'_pq\([^,]+,\s*"([a-z_]+)"', window)
            table = t.group(1) if t else "<unresolved>"
            if (path.name, table) in ALLOWED_READS:
                continue
            line = src[: m.start()].count("\n") + 1
            hits.append(f"{path.name}:{line}: driver pq.read_table of "
                        f"'{table}' — not in ALLOWED_READS")
    assert not hits, "\n".join(hits)


def test_no_pandas_batch_format_in_library():
    """Round-5 invariant: every reducer and batch transform in the
    library is pyarrow-native — a pandas batch_format would reintroduce
    an O(data) Arrow→pandas→Arrow block conversion on an exchange path.
    New code that genuinely needs pandas must justify itself here."""
    hits = []
    for path, src in _sources():
        for m in re.finditer(r'batch_format="pandas"', src):
            line = src[: m.start()].count("\n") + 1
            hits.append(f"{path.name}:{line}: batch_format=\"pandas\"")
    assert not hits, "\n".join(hits)


# Modules that still import pandas, one reason each. The rest of
# pipelines/ and stages/ is pyarrow/numpy-only; a new pandas import must
# justify itself here (and shrinking this list is the goal).
ALLOWED_PANDAS = {
    "windows.py": "pd.Series.groupby per-user running cummax in "
                  "late_events and ontime_hourly",
    "dedup.py": "pd.util.hash_array: stable cross-process string hash",
    "exchange.py": "pd.util.hash_array in stable_bucket, the one key "
                   "hash of cogroup and hash_agg (string keys)",
}


def test_pandas_imports_are_allowlisted():
    hits = []
    for path, src in _sources():
        if path.name in ALLOWED_PANDAS:
            continue
        for m in re.finditer(r"^\s*(import pandas|from pandas)", src,
                             re.MULTILINE):
            line = src[: m.start()].count("\n") + 1
            hits.append(f"{path.name}:{line}: imports pandas — not in "
                        "ALLOWED_PANDAS")
    assert not hits, "\n".join(hits)


# Every stage runs as plain tasks. An actor pool keeps its CPUs between
# executions and, below its pool size in CPUs, deadlocks against the
# read that feeds it; none of the stages holds anything but constants.
# A CPU request must justify itself here, keyed by (file, value).
ALLOWED_NUM_CPUS = {
    ("parsr.py", "INGEST_CPUS"):
        "ingest_pdfs asks a quarter CPU per task: the stage waits on the "
        "Parsr service, which does the compute",
    ("dedup.py", "0"):
        "_mat_label_sum's zero-CPU ray.remote fold task, not a map stage: "
        "it holds no CPU",
}

ACTOR_POOL_PATTERNS = (
    r"\bconcurrency=",
    r"\bfn_constructor_(?:kw)?args=",
    r"\bcompute=",
    # a class (not an instance) handed to map_batches runs as actors
    r"\.map_batches\(\s*[A-Z]\w*\s*[,)]",
)


def test_no_actor_pools():
    hits = []
    for path, src in _sources(PIPE_DIRS + [SOURCES_DIR]):
        for pat in ACTOR_POOL_PATTERNS:
            for m in re.finditer(pat, src):
                line = src[: m.start()].count("\n") + 1
                hits.append(f"{path.name}:{line}: actor-pool stage "
                            f"({' '.join(m.group(0).split())}) — pass an instance "
                            "as a task stage")
        for m in re.finditer(r"\bnum_cpus=([\w.]+)", src):
            if (path.name, m.group(1)) in ALLOWED_NUM_CPUS:
                continue
            line = src[: m.start()].count("\n") + 1
            hits.append(f"{path.name}:{line}: {m.group(0)} — not in "
                        "ALLOWED_NUM_CPUS")
    assert not hits, "\n".join(hits)


# Every Sum/Count/Min/Max group-by goes through stages.exchange
# (finish_agg / hash_agg). Ray's own aggregate stays only where the
# aggregate is not one of those four, keyed by (file, enclosing
# top-level function).
ALLOWED_RAY_AGGREGATE = {
    ("sketches.py", "hll_agg"):
        "HyperLogLog registers as a Ray AggregateFn: the merge is an "
        "elementwise max over 4 KB register arrays, not a column min/max",
    ("sketches.py", "approx_distinct_users_agg"):
        "the hll_agg site: the query exists to compose the AggregateFn "
        "with a Count in one Ray groupby",
    ("sketches.py", "bloom_agg"):
        "Bloom bitmap as a Ray AggregateFn: the merge is an elementwise "
        "OR over 128 KB bitmaps",
}


def _ray_aggregate_sites(path: pathlib.Path):
    """(top-level function or "<module>", line) of every
    ``ray.data.aggregate`` import and ``.groupby(...).aggregate(`` call."""
    tree = ast.parse(path.read_text())
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "ray.data.aggregate") or (
                    isinstance(node, ast.Import) and any(
                        a.name.startswith("ray.data.aggregate")
                        for a in node.names)):
                yield name, node.lineno, "ray.data.aggregate import"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "aggregate"
                  and isinstance(node.func.value, ast.Call)
                  and isinstance(node.func.value.func, ast.Attribute)
                  and node.func.value.func.attr == "groupby"):
                yield name, node.lineno, ".groupby(...).aggregate("


def test_ray_aggregate_is_allowlisted():
    hits = []
    paths = [p for p, _ in _sources(PIPE_DIRS + [SOURCES_DIR])] + [RAY_ENTRY]
    for path in paths:
        for func, line, what in _ray_aggregate_sites(path):
            if (path.name, func) not in ALLOWED_RAY_AGGREGATE:
                hits.append(f"{path.name}:{line}: {what} in {func} — use "
                            "stages.exchange.finish_agg/hash_agg, or add "
                            "it to ALLOWED_RAY_AGGREGATE with a reason")
    assert not hits, "\n".join(hits)
