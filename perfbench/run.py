#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, makes the seeded
input, runs one workload and prints its result as the last stdout line.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold-load|iterate|walk \
        --seed N --seconds S --trace 0|1

Everything it writes stays under .bench_build/ in the repository root. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
DATA_DIR = BUILD_ROOT / "perfbench-data"
BINARY = BUILD_DIR / "perfbench"
KEEP_INPUTS = 2  # Seeded inputs kept on disk for reuse (~46 MB each).
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; stderr passes through, stdout is returned."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; run from the repository root")
        sys.exit(2)
    # Compiler and linker temporaries stay inside the checkout too.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        rc, out = call(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release", *generator], env=env)
        sys.stderr.write(out)
        if rc != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            log("cmake configure failed")
            sys.exit(1)
    rc, out = call(["cmake", "--build", str(BUILD_DIR), "-j",
                    str(os.cpu_count() or 1)], env=env)
    if rc != 0:
        sys.stderr.write(out)
        log("build failed")
        sys.exit(1)


def clean_env():
    """The child environment without BPART_* knobs, which perfbench refuses."""
    env = dict(os.environ)
    stripped = sorted(k for k in env if k.startswith("BPART_"))
    for key in stripped:
        log(f"WARNING: ignoring {key}={env.pop(key)!r}; the benchmark pins its knobs in code")
    return env, stripped


def make_input(seed, env):
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    path = DATA_DIR / f"graph-s{seed}-v262144-d30.txt"
    if not path.is_file():
        rc, _ = call([str(BINARY), "gen", "--seed", str(seed), "--out", str(path)],
                     timeout=RUN_TIMEOUT_S, env=env)
        if rc != 0:
            log("input generation failed")
            sys.exit(1)
    olds = sorted((p for p in DATA_DIR.glob("graph-*.txt") if p != path),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in olds[KEEP_INPUTS - 1:]:
        old.unlink()
    path.touch()
    return path


def revision():
    """The commit of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over src/ paths and contents: names the code without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cold-load", "iterate", "walk"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    env, stripped = clean_env()
    path = make_input(args.seed, env)
    cache_dir = BUILD_ROOT / f"perfbench-cache-{args.workload}"
    cmd = [str(BINARY), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--input", str(path),
           "--cache-dir", str(cache_dir), "--revision", revision(),
           "--source-digest", source_digest()]
    if stripped:
        print("# WARNING: ignored environment knobs: " + ", ".join(stripped))
    try:
        rc, out = call(cmd, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if rc != 0 or not lines:
        sys.stdout.write(out)
        log(f"perfbench exited with code {rc}")
        sys.exit(rc or 1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log("malformed result line")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
