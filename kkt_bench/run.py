#!/usr/bin/env python3
r"""Builds the kkt_bench binary from this checkout's sources and runs it.

Run from the repository root:

    python3 kkt_bench/run.py --workload build_dense --seed 1 --seconds 30 \
        --trace 0

The build is a Release configuration of kkt_bench/CMakeLists.txt under
$CARGO_TARGET_DIR/kkt_bench (default .bench_build/kkt_bench, relative to
the current directory); later runs rebuild incrementally. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. With --trace 1 the spans are written to
<build dir>/trace.<workload>.<seed>.json unless --trace-out names a file.
Every option is passed on to the binary (kkt_bench.cc documents them).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark run itself is bounded by --seconds plus one op; this is the
# backstop for a hung run.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else Path.cwd() / base) / "kkt_bench"


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"error: no sources to build under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "kkt_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / "kkt_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--trace-out")
    ap.add_argument("--heldout-seed")
    args = ap.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        raise SystemExit(f"error: benchmark build failed ({e})")
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        trace_out = args.trace_out or str(
            build_dir() / f"trace.{args.workload}.{args.seed}.json")
        cmd += ["--trace-out", trace_out]
    if args.heldout_seed is not None:
        cmd += ["--heldout-seed", args.heldout_seed]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: benchmark run exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
