#!/usr/bin/env python3
"""Build the benchmark package and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload service-deny --seed 7 --seconds 10 --trace 0

The package builds in release mode into $CARGO_TARGET_DIR (default
`.bench_build` under the current directory); cargo's output goes to
stderr. The benchmark prints its report on stdout, ending with one JSON
line of metrics, and exits non-zero if any output was wrong. With
`--trace 1` the kept spans are written as JSON lines under
`<target dir>/perfbench/`.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("process-replay", "service-deny", "service-churn")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(target / "release" / "draco-perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = target / "perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    sys.stdout.flush()
    code = subprocess.run(cmd, check=False).returncode
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
