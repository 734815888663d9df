#!/usr/bin/env python3
"""Build the benchmark from source if needed, then run one workload.

    python3 specbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/specbench (default .bench_build/specbench) under the
root; build output goes to stderr so that the last line of stdout is
the benchmark's JSON result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "specbench"
    if not (build_dir / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir)],
                       stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return build_dir / "specbench"


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"specbench: build failed: {err}", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("specbench: run timed out", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
