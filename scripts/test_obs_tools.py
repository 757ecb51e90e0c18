#!/usr/bin/env python3
"""Exercise the observability CLI tools against the golden fixtures in
tests/obs/golden/: every validate_obs.py compare gate class must fire on
its dedicated fresh/baseline pair (and stay quiet on the in-tolerance
pair), bpart_prof.py check must accept the consistent timeline and reject
the inconsistent one, and bpart_prof.py diff must name the injected phase
of the synthetic-regression pair — all asserted by exit code.

Run from anywhere: paths resolve relative to this script. CI runs it as a
step of the observability-smoke job; it needs only a Python interpreter.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
GOLDEN = SCRIPTS.parent / "tests" / "obs" / "golden"

failures = []


def run(tool: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / tool), *args],
        capture_output=True, text=True, check=False)


def expect(name: str, proc: subprocess.CompletedProcess, exit_code: int,
           stderr_contains: str = "") -> None:
    ok = proc.returncode == exit_code and stderr_contains in proc.stderr
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name} (exit {proc.returncode}, want {exit_code})")
    if not ok:
        failures.append(name)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)


def main() -> None:
    base = str(GOLDEN / "compare_base.json")
    print("validate_obs.py compare gate classes:")
    expect("in-tolerance pair passes",
           run("validate_obs.py", "compare",
               str(GOLDEN / "compare_ok.json"), base), 0)
    expect("seconds-over-tolerance fails",
           run("validate_obs.py", "compare",
               str(GOLDEN / "compare_time_regress.json"), base), 1,
           "partition_seconds")
    expect("speedup drop fails",
           run("validate_obs.py", "compare",
               str(GOLDEN / "compare_speedup_drop.json"), base), 1,
           "speedup")
    expect("quality drift fails",
           run("validate_obs.py", "compare",
               str(GOLDEN / "compare_quality_drift.json"), base), 1,
           "edge_cut")
    expect("missing row/label fails",
           run("validate_obs.py", "compare",
               str(GOLDEN / "compare_missing.json"), base), 1,
           "missing from fresh")

    print("validate_obs.py identical (determinism gate):")
    expect("report equals itself",
           run("validate_obs.py", "identical", base, base), 0)
    expect("timing-only drift is ignored",
           run("validate_obs.py", "identical", base,
               str(GOLDEN / "compare_time_regress.json")), 0)
    expect("result-column drift fails",
           run("validate_obs.py", "identical", base,
               str(GOLDEN / "compare_quality_drift.json")), 1,
           "edge_cut")
    expect("three-way with one divergent report fails",
           run("validate_obs.py", "identical", base,
               str(GOLDEN / "compare_time_regress.json"),
               str(GOLDEN / "compare_quality_drift.json")), 1,
           "compare_quality_drift.json")

    print("validate_obs.py bench schema acceptance:")
    expect("v1 baseline validates", run("validate_obs.py", "bench", base), 0)
    expect("v1.1 fresh validates",
           run("validate_obs.py", "bench",
               str(GOLDEN / "compare_ok.json")), 0)
    # Fresh reports carry no meta.seed; older ones (the goldens) do, and
    # both shapes must validate.
    with tempfile.TemporaryDirectory() as tmp:
        doc = json.loads((GOLDEN / "compare_ok.json").read_text())
        del doc["meta"]["seed"]
        unseeded = Path(tmp) / "unseeded.json"
        unseeded.write_text(json.dumps(doc))
        expect("v1.1 without meta.seed validates",
               run("validate_obs.py", "bench", str(unseeded)), 0)

    print("bpart_prof.py check:")
    expect("consistent timeline passes",
           run("bpart_prof.py", "--check",
               str(GOLDEN / "timeline_ok.json")), 0)
    expect("mis-recorded gating machine fails",
           run("bpart_prof.py", "--check",
               str(GOLDEN / "timeline_bad_gating.json")), 1,
           "argmax-compute")

    print("bpart_prof.py diff:")
    diff_base = str(GOLDEN / "diff_base.json")
    expect("identical artifacts name no phase",
           run("bpart_prof.py", "diff", diff_base, diff_base), 0)
    expect("synthetic wait regression names barrier-wait",
           run("bpart_prof.py", "diff",
               str(GOLDEN / "diff_regress_wait.json"), diff_base,
               "--expect", "barrier-wait"), 0)
    expect("wrong expected phase is rejected",
           run("bpart_prof.py", "diff",
               str(GOLDEN / "diff_regress_wait.json"), diff_base,
               "--expect", "ingest"), 1, "diagnosed")

    if failures:
        print(f"test_obs_tools: FAIL: {len(failures)} case(s): {failures}",
              file=sys.stderr)
        sys.exit(1)
    print("test_obs_tools: OK: every gate class fired as expected")


if __name__ == "__main__":
    main()
