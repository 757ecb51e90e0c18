#!/usr/bin/env python3
"""Validate observability artifacts: Chrome trace files and BENCH_*.json
bench reports, and diff fresh reports against checked-in baselines.

Usage:
  validate_obs.py trace <trace.json> [--require-cats ingest partition ...]
  validate_obs.py bench <BENCH_name.json>
  validate_obs.py compare <fresh.json> <baseline.json> \
      [--time-tol 0.20] [--quality-tol 0.10] [--time-floor 0.05]
  validate_obs.py identical <a.json> <b.json> [<c.json> ...] \
      [--ignore-cols seconds speedup steals]

Exits non-zero with a message on the first schema violation (trace/bench),
after listing every regression (compare), or after listing every differing
cell (identical). Used by the CI observability-smoke, perf-gate and
determinism jobs, and handy locally after running a bench with
BPART_TRACE / BPART_OUT_DIR set.

Traces may carry counter samples ("C") and flow arrows ("s"/"f") next to the
complete spans; their categories count toward --require-cats. Bench reports
are accepted at schema v1 and v1.1 (v1.1 adds the mandatory provenance
"meta" block).

The compare rules are keyed off table headers and quality labels:
  * columns containing "seconds" regress when fresh > base*(1+time_tol),
    ignored while the baseline is under --time-floor (noise guard);
  * columns containing "speedup" regress when fresh < base*(1-time_tol),
    ignored while the baseline is under 1.0 (parallel-overhead noise guard);
  * quality columns (bias / cut / skew / wait) and the per-label quality
    section regress when fresh > base*(1+quality_tol) + 0.01.
Rows are matched by their string-valued cells (e.g. algorithm + app); a row
that disappears from the fresh report is itself a regression.
"""

import argparse
import json
import sys

# v1.1 added the auto-emitted provenance "meta" block; v1 reports (old
# baselines) stay acceptable so compare can diff across the bump.
BENCH_SCHEMAS = ("bpart-bench-report/v1", "bpart-bench-report/v1.1")


def fail(msg: str) -> None:
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check(cond: bool, msg: str) -> None:
    if not cond:
        fail(msg)


def validate_trace(path: str, require_cats) -> None:
    with open(path, "rb") as f:
        doc = json.load(f)
    check(isinstance(doc, dict), "top level must be an object")
    check("traceEvents" in doc, "missing traceEvents")
    events = doc["traceEvents"]
    check(isinstance(events, list), "traceEvents must be an array")

    complete = [e for e in events if e.get("ph") == "X"]
    check(len(complete) > 0, "no complete ('X') events in trace")
    for e in complete:
        for key in ("name", "cat", "ts", "dur", "pid", "tid"):
            check(key in e, f"event {e.get('name', '?')!r} missing {key!r}")
        check(isinstance(e["ts"], (int, float)), "ts must be numeric")
        check(isinstance(e["dur"], (int, float)), "dur must be numeric")
        check(e["dur"] >= 0, f"negative duration on {e['name']!r}")
        check(
            isinstance(e.get("args", {}), dict),
            f"args of {e['name']!r} must be an object",
        )

    counters = [e for e in events if e.get("ph") == "C"]
    for e in counters:
        for key in ("name", "cat", "ts", "pid", "tid"):
            check(key in e, f"counter {e.get('name', '?')!r} missing {key!r}")
        check(isinstance(e.get("args", {}).get("value"), (int, float)),
              f"counter {e['name']!r} missing numeric args.value")

    flows = [e for e in events if e.get("ph") in ("s", "f")]
    for e in flows:
        for key in ("name", "cat", "id", "ts", "pid", "tid"):
            check(key in e, f"flow {e.get('name', '?')!r} missing {key!r}")

    # Counter/flow categories count toward --require-cats: the "timeline"
    # category is carried entirely by counter tracks and flow arrows.
    cats = {e["cat"] for e in complete + counters + flows}
    missing = set(require_cats or []) - cats
    check(not missing, f"missing categories {sorted(missing)}; have {sorted(cats)}")

    other = doc.get("otherData", {})
    check("dropped_events" in other, "missing otherData.dropped_events")

    print(
        f"validate_obs: OK: {path}: {len(complete)} events, "
        f"{len(counters)} counter samples, {len(flows)} flow ends, "
        f"{len(cats)} categories {sorted(cats)}, "
        f"{other['dropped_events']} dropped"
    )


def validate_bench(path: str) -> None:
    with open(path, "rb") as f:
        doc = json.load(f)
    check(doc.get("schema") in BENCH_SCHEMAS,
          f"schema {doc.get('schema')!r} not in {BENCH_SCHEMAS}")
    check(bool(doc.get("name")), "missing name")
    check(isinstance(doc.get("created_unix"), int), "created_unix must be int")
    check(isinstance(doc.get("info"), dict), "info must be an object")
    if doc.get("schema") != BENCH_SCHEMAS[0]:  # meta is the v1.1 addition
        meta = doc.get("meta")
        check(isinstance(meta, dict), "v1.1 report missing meta object")
        for key in ("thread_count", "dataset_scale", "build_type", "env"):
            check(key in meta, f"meta missing {key!r}")
        check(meta["build_type"] in ("release", "debug"),
              f"meta.build_type {meta['build_type']!r} invalid")
        check(isinstance(meta["env"], dict), "meta.env must be an object")

    table = doc.get("table")
    check(isinstance(table, dict), "table must be an object")
    headers = table.get("headers")
    rows = table.get("rows")
    check(isinstance(headers, list), "table.headers must be an array")
    check(isinstance(rows, list), "table.rows must be an array")
    for i, row in enumerate(rows):
        check(len(row) == len(headers), f"row {i} width != header count")

    for section in ("runs", "quality", "pipeline"):
        if section not in doc:
            continue
        for entry in doc[section]:
            check("label" in entry and "report" in entry,
                  f"{section} entry missing label/report")

    for run in doc.get("runs", []):
        report = run["report"]
        for key in ("num_machines", "totals", "iterations"):
            check(key in report, f"run {run['label']!r} missing {key!r}")
        totals = report["totals"]
        for key in ("seconds", "wait_seconds", "wait_ratio", "messages",
                    "work", "bytes_sent", "iterations"):
            check(key in totals, f"run {run['label']!r} totals missing {key!r}")

    metrics = doc.get("metrics")
    check(isinstance(metrics, dict), "metrics must be an object")
    for key in ("counters", "latencies"):
        check(isinstance(metrics.get(key), dict), f"metrics.{key} must be an object")
    for name, lat in metrics["latencies"].items():
        for key in ("count", "sum_ns", "max_ns", "p50_ns", "p90_ns", "p99_ns",
                    "buckets"):
            check(key in lat, f"latency {name!r} missing {key!r}")

    print(
        f"validate_obs: OK: {path}: name={doc['name']!r}, "
        f"{len(rows)} table rows, {len(doc.get('runs', []))} runs, "
        f"{len(metrics['counters'])} counters"
    )


def _row_key(row, index):
    key = tuple(cell for cell in row if isinstance(cell, str))
    return key if key else (f"row#{index}",)


def _classify(header: str):
    h = header.lower()
    if "speedup" in h:
        return "speedup"
    if "seconds" in h:
        return "time"
    if "measured" in h:
        # Measured-concurrency columns (skew_measured, wait_ratio_measured)
        # wobble with scheduler noise; the deterministic model columns and
        # the wall-time columns are what the gate holds.
        return None
    if any(p in h for p in ("bias", "cut", "skew", "wait")):
        return "quality"
    return None


def compare_reports(fresh_path: str, base_path: str, time_tol: float,
                    quality_tol: float, time_floor: float) -> None:
    with open(fresh_path, "rb") as f:
        fresh = json.load(f)
    with open(base_path, "rb") as f:
        base = json.load(f)
    for doc, path in ((fresh, fresh_path), (base, base_path)):
        check(doc.get("schema") in BENCH_SCHEMAS,
              f"{path}: schema {doc.get('schema')!r} not in {BENCH_SCHEMAS}")
    check(fresh.get("name") == base.get("name"),
          f"report name mismatch: {fresh.get('name')!r} vs {base.get('name')!r}")

    regressions = []
    checked = 0

    def judge(where, kind, fresh_v, base_v):
        nonlocal checked
        if not isinstance(fresh_v, (int, float)) or not isinstance(
                base_v, (int, float)):
            return
        if kind == "time":
            if base_v < time_floor:
                return  # below the noise floor, a ratio gate is meaningless
            checked += 1
            if fresh_v > base_v * (1.0 + time_tol):
                regressions.append(
                    f"{where}: {fresh_v:.4f}s vs baseline {base_v:.4f}s "
                    f"(+{(fresh_v / base_v - 1.0) * 100:.1f}% > "
                    f"{time_tol * 100:.0f}%)")
        elif kind == "speedup":
            # Below 1.0 the baseline machine never demonstrated a speedup
            # (parallel overhead regime, e.g. a 1-core runner); the exact
            # sub-sequential ratio is scheduler noise, so don't gate it —
            # the speedup analogue of the wall-time noise floor.
            if base_v < 1.0:
                return
            checked += 1
            if fresh_v < base_v * (1.0 - time_tol):
                regressions.append(
                    f"{where}: speedup {fresh_v:.2f} vs baseline {base_v:.2f} "
                    f"(-{(1.0 - fresh_v / base_v) * 100:.1f}% > "
                    f"{time_tol * 100:.0f}%)")
        elif kind == "quality":
            checked += 1
            if fresh_v > base_v * (1.0 + quality_tol) + 0.01:
                regressions.append(
                    f"{where}: {fresh_v:.4f} vs baseline {base_v:.4f} "
                    f"(quality tolerance {quality_tol * 100:.0f}%)")

    # --- table rows, matched by their string cells --------------------------
    fresh_headers = fresh["table"]["headers"]
    base_headers = base["table"]["headers"]
    fresh_rows = {}
    for i, row in enumerate(fresh["table"]["rows"]):
        fresh_rows.setdefault(_row_key(row, i), row)
    for i, row in enumerate(base["table"]["rows"]):
        key = _row_key(row, i)
        if key not in fresh_rows:
            regressions.append(f"table row {key!r} missing from fresh report")
            continue
        fresh_row = fresh_rows[key]
        for col, header in enumerate(base_headers):
            kind = _classify(header)
            if kind is None or header not in fresh_headers:
                continue
            fresh_col = fresh_headers.index(header)
            judge(f"table[{'/'.join(key)}].{header}", kind,
                  fresh_row[fresh_col], row[col])

    # --- quality section, matched by label ----------------------------------
    fresh_quality = {q["label"]: q["report"] for q in fresh.get("quality", [])}
    for entry in base.get("quality", []):
        label = entry["label"]
        if label not in fresh_quality:
            regressions.append(f"quality label {label!r} missing from fresh")
            continue
        fq, bq = fresh_quality[label], entry["report"]
        judge(f"quality[{label}].edge_cut_ratio", "quality",
              fq.get("edge_cut_ratio"), bq.get("edge_cut_ratio"))
        for dim in ("vertex_summary", "edge_summary"):
            judge(f"quality[{label}].{dim}.bias", "quality",
                  fq.get(dim, {}).get("bias"), bq.get(dim, {}).get("bias"))

    # --- runs section: end-to-end seconds per labelled run ------------------
    fresh_runs = {r["label"]: r["report"] for r in fresh.get("runs", [])}
    for entry in base.get("runs", []):
        label = entry["label"]
        if label not in fresh_runs:
            regressions.append(f"run label {label!r} missing from fresh")
            continue
        judge(f"runs[{label}].totals.seconds", "time",
              fresh_runs[label].get("totals", {}).get("seconds"),
              entry["report"].get("totals", {}).get("seconds"))

    if regressions:
        print(f"validate_obs: COMPARE FAIL: {fresh.get('name')!r}: "
              f"{len(regressions)} regression(s) vs {base_path}:",
              file=sys.stderr)
        for r in regressions:
            print(f"  - {r}", file=sys.stderr)
        sys.exit(1)
    print(f"validate_obs: COMPARE OK: {fresh.get('name')!r}: "
          f"{checked} gated values within tolerance of {base_path}")


def identical_reports(paths, ignore_cols) -> None:
    """Exact table equality across N reports, minus the ignored columns.

    The determinism CI job runs the same bench under different
    BPART_EXEC_THREADS values and holds every result column bit-equal;
    timing-ish columns (seconds, speedup, steals) are schedule-dependent by
    nature and get ignored by name substring.
    """
    check(len(paths) >= 2, "identical needs at least two reports")
    ignored = [c.lower() for c in ignore_cols]

    def load(path):
        with open(path, "rb") as f:
            doc = json.load(f)
        check(doc.get("schema") in BENCH_SCHEMAS,
              f"{path}: schema {doc.get('schema')!r} not in {BENCH_SCHEMAS}")
        return doc

    ref = load(paths[0])
    ref_headers = ref["table"]["headers"]
    kept = [h for h in ref_headers
            if not any(sub in h.lower() for sub in ignored)]
    check(bool(kept), "every column ignored; nothing to hold equal")

    def projected(doc, path):
        headers = doc["table"]["headers"]
        for h in kept:
            check(h in headers, f"{path}: missing column {h!r}")
        cols = [headers.index(h) for h in kept]
        return [[row[c] for c in cols] for row in doc["table"]["rows"]]

    ref_rows = projected(ref, paths[0])
    diffs = []
    for path in paths[1:]:
        doc = load(path)
        check(doc.get("name") == ref.get("name"),
              f"report name mismatch: {doc.get('name')!r} vs "
              f"{ref.get('name')!r}")
        rows = projected(doc, path)
        if len(rows) != len(ref_rows):
            diffs.append(f"{path}: {len(rows)} rows vs {len(ref_rows)}")
            continue
        for i, (got, want) in enumerate(zip(rows, ref_rows)):
            for h, got_v, want_v in zip(kept, got, want):
                if got_v != want_v:
                    diffs.append(
                        f"{path}: row {i} col {h!r}: {got_v!r} != {want_v!r}")

    if diffs:
        print(f"validate_obs: IDENTICAL FAIL: {ref.get('name')!r}: "
              f"{len(diffs)} differing cell(s) vs {paths[0]}:",
              file=sys.stderr)
        for d in diffs:
            print(f"  - {d}", file=sys.stderr)
        sys.exit(1)
    print(f"validate_obs: IDENTICAL OK: {ref.get('name')!r}: "
          f"{len(paths)} reports x {len(ref_rows)} rows bit-equal on "
          f"columns {kept}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="kind", required=True)
    tp = sub.add_parser("trace", help="validate a Chrome trace-event file")
    tp.add_argument("path")
    tp.add_argument("--require-cats", nargs="*", default=[],
                    help="categories that must appear among X events")
    bp = sub.add_parser("bench", help="validate a BENCH_<name>.json report")
    bp.add_argument("path")
    cp = sub.add_parser("compare",
                        help="diff a fresh report against a baseline")
    cp.add_argument("fresh")
    cp.add_argument("baseline")
    cp.add_argument("--time-tol", type=float, default=0.20,
                    help="relative wall-time regression tolerance")
    cp.add_argument("--quality-tol", type=float, default=0.10,
                    help="relative quality regression tolerance")
    cp.add_argument("--time-floor", type=float, default=0.05,
                    help="skip wall-time gates when the baseline is faster")
    ip = sub.add_parser("identical",
                        help="hold N reports' result columns bit-equal")
    ip.add_argument("paths", nargs="+")
    ip.add_argument("--ignore-cols", nargs="*",
                    default=["seconds", "speedup", "steals"],
                    help="column-name substrings exempt from equality")
    args = ap.parse_args()

    if args.kind == "trace":
        validate_trace(args.path, args.require_cats)
    elif args.kind == "bench":
        validate_bench(args.path)
    elif args.kind == "identical":
        identical_reports(args.paths, args.ignore_cols)
    else:
        compare_reports(args.fresh, args.baseline, args.time_tol,
                        args.quality_tol, args.time_floor)


if __name__ == "__main__":
    main()
