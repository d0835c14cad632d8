#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 crates/bench/src/bin/perf/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds diversifi-bench's `perf` binary twice
from source, plain release and release with `--features trace`, each in
its own directory under `$CARGO_TARGET_DIR` (default `target`) so neither
build overwrites the other; cargo makes both no-ops once they are fresh,
so only the first run in a checkout pays for the builds. Then runs
`perf run` with the arguments given, on the traced build when `--trace 1`.
The last line of standard output is the result JSON; the exit code is
perf's, or cargo's when a build fails (no result is printed then).
"""

import os
import subprocess
import sys

BUILDS = {"plain": [], "trace": ["--features", "trace"]}


def build(target_dir, features):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "diversifi-bench", "--bin", "perf",
           "--target-dir", target_dir] + features
    # Build output goes to stderr: stdout carries only perf's report.
    return subprocess.run(cmd, stdout=sys.stderr).returncode


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or "target"
    dirs = {name: os.path.join(target, "perf-" + name) for name in BUILDS}
    for name, features in BUILDS.items():
        code = build(dirs[name], features)
        if code != 0:
            print(f"run.py: the {name} build failed", file=sys.stderr)
            return code or 1
    traced = "1" in [b for a, b in zip(argv, argv[1:]) if a == "--trace"]
    exe = os.path.join(dirs["trace" if traced else "plain"], "release", "perf")
    return subprocess.run([exe, "run"] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
