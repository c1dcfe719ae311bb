#!/usr/bin/env python3
"""Build and run the vasim benchmark for one workload.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Builds perfbench/ (the simulator libraries from src/ plus the benchmark
program, vasim_perfbench) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) under the checkout root, runs it and passes
its output through.  The last stdout line is the one-line JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (see
BENCHMARK.json and perfbench/README.md).  A self-describing record (build,
host and per-metric spread) and, when traced, a Chrome-trace span file are
written next to the build.  Exits non-zero, without a result line, when the
checkout lacks the simulator sources or the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build(bdir):
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(bdir)  # configured from another checkout
    if not cache.exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(bdir), "--target", "vasim_perfbench", "-j", jobs],
              "build")
    exe = bdir / "vasim_perfbench"
    if not exe.exists():
        fail(f"build produced no {exe}")
    return exe


def source_id():
    """git describe when the checkout is a repository, plus a content hash of
    the sources the benchmark builds (a plain checkout has no git metadata)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    desc = "no-git"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            desc = proc.stdout.strip()
    return f"{desc} src-sha256:{h.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--instr", type=int, help="measured instructions per job (smoke tests)")
    ap.add_argument("--warmup", type=int, help="warmup instructions per job (smoke tests)")
    ap.add_argument("--pins", help="pin file (default perfbench/pins/<workload>.txt)")
    ap.add_argument("--write-pins", help="write this run's per-job checksums here")
    ap.add_argument("--record", help="record path (default under the build directory)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    bdir = build_dir()
    exe = build(bdir)

    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--pins", args.pins or str(HERE / "pins" / f"{args.workload}.txt"),
           "--record", args.record or str(results / f"{stem}.json"),
           "--source-id", source_id()]
    if args.trace == "1":
        cmd += ["--spans", str(results / f"{stem}-spans.json")]
    for flag, value in (("--instr", args.instr), ("--warmup", args.warmup),
                        ("--write-pins", args.write_pins)):
        if value is not None:
            cmd += [flag, str(value)]

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(lines[-1] + "\n")


if __name__ == "__main__":
    main()
