#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ingest|mixed|lineage --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the release `blockprov-node` binary
and the benchmark binary (this directory's crate) into `CARGO_TARGET_DIR`
(default `.bench_build`), then runs that binary, which starts the node as a
separate process. Its last line of standard output is the result
as one JSON object; build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "mixed", "lineage"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "node")
    ):
        print("perfbench: no blockprov workspace around this directory", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "blockprov-node",
         "--bin", "blockprov-node", "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    bench = [
        os.path.join(target, "release", "blockprov-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node", os.path.join(target, "release", "blockprov-node"),
        "--work", os.path.join(target, "perfbench"),
    ]
    return subprocess.run(bench, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
