#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload idle-79d --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that depends on the library crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is the run's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def cargo(args, env):
    return subprocess.run(
        ["cargo", *args, "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    ).returncode


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the library crates are missing; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if argv == ["--self-test"]:
        return cargo(["test", "--quiet"], env)
    code = cargo(["build", "--quiet"], env)
    if code != 0:
        return code or 1
    exe = os.path.join(ROOT, target, "release", "perfbench")
    return subprocess.run([exe, *argv], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
