#!/usr/bin/env python3
"""Superstep timeline profiler: straggler reports, attribution checks and
perf-regression phase diagnosis over bpart observability artifacts.

Usage:
  bpart_prof.py report <timeline.json> [--gantt-width 40]
  bpart_prof.py check <timeline.json> [--tolerance 0.05] \
      [--min-run-seconds 0.005]
  bpart_prof.py --check <timeline.json>        # alias for `check` (CI)
  bpart_prof.py diff <fresh.json> <baseline.json> [--tol 0.10] \
      [--expect PHASE]

`report` pretty-prints the bpart-timeline/v1 artifact written when a binary
runs with $BPART_TIMELINE=<path>: per-run critical-path attribution (wall =
compute + comm + wait on the gating worker), a "who gated how often and
why" table per machine, an ascii gantt of per-machine compute per
superstep, and the exec-core worker/steal statistics.

`check` is the machine gate (exit 0/1): the artifact parses, every
superstep's recorded gating machine equals the argmax-compute machine of
its rows, and for every run at least --min-run-seconds long the charged
time (gating-worker compute + comm + barrier wait) reconciles with the
measured superstep wall time within --tolerance (default 5%).

`diff` names the phase responsible for a perf regression. It accepts
either two bench reports (bpart-bench-report/v1*) or two timeline
artifacts, decomposes each into phase buckets

    ingest / partition / superstep-compute / barrier-wait / comm

and reports the phase with the largest absolute growth when the fresh
total exceeds baseline * (1 + --tol). With --expect PHASE the exit code
asserts the diagnosis (0 iff a regression was found and attributed to
PHASE) — CI runs this on a synthetic-regression fixture, and the perf-gate
job runs it after a validate_obs.py compare failure to label the
regression before humans look.

The attribution model mirrors src/obs/attrib.cpp: machine rows group by
the worker thread that drove them (machines sharing a worker serialize);
the gating worker is the argmax of compute+comm; its busy time plus its
own barrier wait telescopes to the superstep wall time; other workers'
wait splits into skew-explained wait (the busy gap to the gating worker —
the paper's imbalance term) and residual scheduling noise.
"""

import argparse
import json
import sys

TIMELINE_SCHEMA = "bpart-timeline/v1"
BENCH_SCHEMAS = ("bpart-bench-report/v1", "bpart-bench-report/v1.1")
PHASES = ("ingest", "partition", "superstep-compute", "barrier-wait", "comm")


def fail(msg: str) -> None:
    print(f"bpart_prof: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path, "rb") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


# --------------------------------------------------------------------------
# Attribution (the offline twin of src/obs/attrib.cpp).


def attribute_superstep(step: dict) -> dict:
    workers = {}
    compute_sum = 0.0
    compute_max = 0.0
    argmax_machine = 0
    bytes_sent = 0
    for m in step.get("machines", []):
        w = workers.setdefault(m["worker"],
                               {"compute": 0.0, "comm": 0.0, "wait": 0.0})
        w["compute"] += m["compute_seconds"]
        w["comm"] += m["comm_seconds"]
        # One measured wait per worker, recorded onto each of its machines.
        w["wait"] = max(w["wait"], m["wait_seconds"])
        compute_sum += m["compute_seconds"]
        if m["compute_seconds"] > compute_max:
            compute_max = m["compute_seconds"]
            argmax_machine = m["machine"]
        bytes_sent += m.get("bytes_sent", 0)

    gating_worker, gating = max(
        workers.items(), key=lambda kv: kv[1]["compute"] + kv[1]["comm"],
        default=(0, {"compute": 0.0, "comm": 0.0, "wait": 0.0}))
    gating_busy = gating["compute"] + gating["comm"]
    skew = residual = 0.0
    for wid, w in workers.items():
        if wid == gating_worker:
            continue
        gap = max(gating_busy - (w["compute"] + w["comm"]), 0.0)
        explained = min(gap, w["wait"])
        skew += explained
        residual += w["wait"] - explained

    n = max(len(step.get("machines", [])), 1)
    mean = compute_sum / n
    return {
        "index": step["index"],
        "duration": step["duration_seconds"],
        "gating_machine": step["gating_machine"],
        "argmax_machine": argmax_machine,
        "gating_worker": gating_worker,
        "compute": gating["compute"],
        "comm": gating["comm"],
        "wait": gating["wait"],
        "skew_wait": skew,
        "residual_wait": residual,
        "compute_ratio": (compute_max / mean) if mean > 0 else 1.0,
        "bytes": bytes_sent,
    }


def attribute_run(run: dict) -> dict:
    steps = [attribute_superstep(s) for s in run.get("supersteps", [])]
    gate_counts = {}
    for s in steps:
        gate_counts[s["gating_machine"]] = \
            gate_counts.get(s["gating_machine"], 0) + 1
    total = sum(s["duration"] for s in steps)
    charged = sum(s["compute"] + s["comm"] + s["wait"] for s in steps)
    return {
        "id": run["id"],
        "label": run.get("label", ""),
        "machines": run.get("machines", 0),
        "steps": steps,
        "gate_counts": gate_counts,
        "total": total,
        "compute": sum(s["compute"] for s in steps),
        "comm": sum(s["comm"] for s in steps),
        "wait": sum(s["wait"] for s in steps),
        "skew_wait": sum(s["skew_wait"] for s in steps),
        "residual_wait": sum(s["residual_wait"] for s in steps),
        "coverage": (charged / total) if total > 0 else 1.0,
    }


# --------------------------------------------------------------------------
# report


def gantt_bar(value: float, peak: float, width: int) -> str:
    if peak <= 0:
        return ""
    return "#" * max(int(round(value / peak * width)),
                     1 if value > 0 else 0)


def print_report(doc: dict, gantt_width: int) -> None:
    if doc.get("schema") != TIMELINE_SCHEMA:
        fail(f"schema {doc.get('schema')!r} != {TIMELINE_SCHEMA!r}")
    runs = doc.get("runs", [])
    print(f"timeline: {len(runs)} run(s), "
          f"{len(doc.get('exec_workers', []))} exec worker(s)")
    for run in runs:
        a = attribute_run(run)
        print(f"\nrun {a['id']}  {a['label']}  "
              f"({a['machines']} machines, {len(a['steps'])} supersteps)")
        print(f"  wall {a['total']:.4f}s = compute {a['compute']:.4f}s "
              f"+ comm {a['comm']:.4f}s + wait {a['wait']:.4f}s "
              f"(coverage {a['coverage'] * 100:.1f}%); "
              f"skew-wait {a['skew_wait']:.4f}s, "
              f"residual {a['residual_wait']:.4f}s")
        print(f"  {'step':<5} {'wall_s':<9} {'gate':<6} "
              f"{'compute':<9} {'comm':<9} {'wait':<9} {'skew_w':<9} ratio")
        for s in a["steps"]:
            print(f"  {s['index']:<5} "
                  f"{s['duration']:<9.4f} m{s['gating_machine']:<5} "
                  f"{s['compute']:<9.4f} {s['comm']:<9.4f} "
                  f"{s['wait']:<9.4f} {s['skew_wait']:<9.4f} "
                  f"{s['compute_ratio']:.2f}")
        total_steps = max(len(a["steps"]), 1)
        print("  who gated how often and why:")
        for m in sorted(a["gate_counts"]):
            count = a["gate_counts"][m]
            ratios = [s["compute_ratio"] for s in a["steps"]
                      if s["gating_machine"] == m]
            avg_ratio = sum(ratios) / len(ratios) if ratios else 1.0
            why = ("workload skew" if avg_ratio > 1.5
                   else "mild imbalance" if avg_ratio > 1.1
                   else "comm/latency-bound")
            print(f"    m{m}: gated {count}/{total_steps} supersteps, "
                  f"avg max/mean compute {avg_ratio:.2f} ({why})")
        # Gantt: per-machine compute of each superstep, one bar per machine.
        peak = max((m["compute_seconds"]
                    for s in run.get("supersteps", [])
                    for m in s.get("machines", [])), default=0.0)
        if peak > 0:
            print("  gantt (per-machine compute, # = "
                  f"{peak / gantt_width * 1e3:.3f} ms):")
            for s in run.get("supersteps", []):
                bars = " ".join(
                    f"m{m['machine']}:"
                    f"{gantt_bar(m['compute_seconds'], peak, gantt_width)}"
                    for m in s.get("machines", []))
                print(f"    s{s['index']:<4} {bars}")

    workers = doc.get("exec_workers", [])
    if workers:
        print("\nexec workers (chunk reservoir over all runs):")
        for w in workers:
            samples = w.get("sample_seconds", [])
            avg = sum(samples) / len(samples) if samples else 0.0
            peak = max(samples, default=0.0)
            print(f"  w{w['worker']}: {w['chunks']} chunks "
                  f"({w['steals']} stolen), busy {w['busy_seconds']:.4f}s, "
                  f"chunk avg {avg * 1e6:.1f}us / peak {peak * 1e6:.1f}us")


# --------------------------------------------------------------------------
# check


def check_timeline(doc: dict, tolerance: float,
                   min_run_seconds: float) -> None:
    if doc.get("schema") != TIMELINE_SCHEMA:
        fail(f"schema {doc.get('schema')!r} != {TIMELINE_SCHEMA!r}")
    runs = doc.get("runs", [])
    if not runs:
        fail("no runs recorded")
    errors = []
    gated_runs = 0
    for run in runs:
        label = f"run {run.get('id')} ({run.get('label', '')})"
        machines = run.get("machines", 0)
        for step in run.get("supersteps", []):
            rows = step.get("machines", [])
            if len(rows) != machines:
                errors.append(f"{label} step {step.get('index')}: "
                              f"{len(rows)} machine rows, expected {machines}")
                continue
            seen = {m["machine"] for m in rows}
            if seen != set(range(machines)):
                errors.append(f"{label} step {step.get('index')}: "
                              f"machine ids incomplete")
        a = attribute_run(run)
        for s in a["steps"]:
            if s["gating_machine"] != s["argmax_machine"]:
                errors.append(
                    f"{label} step {s['index']}: recorded gating machine "
                    f"m{s['gating_machine']} != argmax-compute machine "
                    f"m{s['argmax_machine']}")
        if a["total"] >= min_run_seconds:
            gated_runs += 1
            if abs(a["coverage"] - 1.0) > tolerance:
                errors.append(
                    f"{label}: charged time covers "
                    f"{a['coverage'] * 100:.1f}% of wall "
                    f"({a['total']:.4f}s), outside "
                    f"{tolerance * 100:.0f}% tolerance")
    if errors:
        print(f"bpart_prof: CHECK FAIL: {len(errors)} problem(s):",
              file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        sys.exit(1)
    print(f"bpart_prof: CHECK OK: {len(runs)} run(s), "
          f"{gated_runs} reconciled within {tolerance * 100:.0f}% "
          f"(runs under {min_run_seconds * 1e3:.0f}ms exempt from the "
          f"coverage gate)")


# --------------------------------------------------------------------------
# diff


def phase_breakdown(doc: dict) -> dict:
    """Decompose an artifact into the five diagnosis phases (seconds)."""
    phases = dict.fromkeys(PHASES, 0.0)
    schema = doc.get("schema", "")
    if schema == TIMELINE_SCHEMA:
        for run in doc.get("runs", []):
            a = attribute_run(run)
            phases["superstep-compute"] += a["compute"]
            phases["comm"] += a["comm"]
            phases["barrier-wait"] += (a["wait"] + a["skew_wait"] +
                                       a["residual_wait"])
        return phases
    if schema in BENCH_SCHEMAS:
        for entry in doc.get("pipeline", []):
            rep = entry.get("report", {})
            phases["ingest"] += rep.get("ingest", {}).get("seconds", 0.0)
            phases["partition"] += (rep.get("partition_seconds", 0.0) +
                                    rep.get("build_seconds", 0.0))
        for entry in doc.get("runs", []):
            for it in entry.get("report", {}).get("iterations", []):
                for m in it.get("machines", []):
                    phases["superstep-compute"] += m.get(
                        "compute_seconds", 0.0)
                    phases["comm"] += m.get("comm_seconds", 0.0)
                    phases["barrier-wait"] += m.get("wait_seconds", 0.0)
        return phases
    fail(f"unrecognized schema {schema!r} (want {TIMELINE_SCHEMA!r} or "
         f"one of {BENCH_SCHEMAS})")


def diff_reports(fresh_path: str, base_path: str, tol: float,
                 expect: str) -> None:
    fresh = phase_breakdown(load(fresh_path))
    base = phase_breakdown(load(base_path))
    fresh_total = sum(fresh.values())
    base_total = sum(base.values())

    print(f"{'phase':<18} {'baseline_s':>11} {'fresh_s':>11} {'delta_s':>11}")
    for p in PHASES:
        print(f"{p:<18} {base[p]:>11.4f} {fresh[p]:>11.4f} "
              f"{fresh[p] - base[p]:>+11.4f}")
    print(f"{'total':<18} {base_total:>11.4f} {fresh_total:>11.4f} "
          f"{fresh_total - base_total:>+11.4f}")

    regressed = fresh_total > base_total * (1.0 + tol)
    if not regressed:
        print(f"bpart_prof: DIFF OK: total within {tol * 100:.0f}% of "
              f"baseline; no phase named")
        if expect:
            print(f"bpart_prof: DIFF FAIL: expected a regression in "
                  f"{expect!r}, found none", file=sys.stderr)
            sys.exit(1)
        return

    culprit = max(PHASES, key=lambda p: fresh[p] - base[p])
    growth = fresh[culprit] - base[culprit]
    total_growth = fresh_total - base_total
    share = (growth / total_growth * 100.0) if total_growth > 0 else 0.0
    print(f"bpart_prof: DIFF: regression of "
          f"{total_growth:+.4f}s ({(fresh_total / base_total - 1) * 100:+.1f}%)"
          f" attributed to phase '{culprit}' "
          f"({growth:+.4f}s, {share:.0f}% of the growth)")
    if expect and culprit != expect:
        print(f"bpart_prof: DIFF FAIL: expected phase {expect!r}, "
              f"diagnosed {culprit!r}", file=sys.stderr)
        sys.exit(1)


# --------------------------------------------------------------------------


def main() -> None:
    argv = sys.argv[1:]
    # `--check <path>` is the CI spelling of the check subcommand.
    if argv and argv[0] == "--check":
        argv = ["check"] + argv[1:]

    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="kind", required=True)

    rp = sub.add_parser("report", help="print straggler/gantt tables")
    rp.add_argument("path")
    rp.add_argument("--gantt-width", type=int, default=40,
                    help="characters of the longest gantt bar")

    kp = sub.add_parser("check", help="machine gate over a timeline (exit "
                        "code): attribution reconciles, gating = argmax")
    kp.add_argument("path")
    kp.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed |charged/wall - 1| per run")
    kp.add_argument("--min-run-seconds", type=float, default=0.005,
                    help="runs shorter than this skip the coverage gate "
                    "(completion-phase overhead dominates tiny runs)")

    dp = sub.add_parser("diff", help="name the phase responsible for a "
                        "perf regression between two artifacts")
    dp.add_argument("fresh")
    dp.add_argument("baseline")
    dp.add_argument("--tol", type=float, default=0.10,
                    help="total growth below this names no phase")
    dp.add_argument("--expect", default="", choices=("",) + PHASES,
                    help="assert the diagnosis (exit 1 unless this phase "
                    "is named)")

    args = ap.parse_args(argv)
    if args.kind == "report":
        print_report(load(args.path), args.gantt_width)
    elif args.kind == "check":
        check_timeline(load(args.path), args.tolerance, args.min_run_seconds)
    else:
        diff_reports(args.fresh, args.baseline, args.tol, args.expect)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # report | head is a supported way to skim
        sys.exit(0)
