#!/usr/bin/env python3
"""Build and run the sigfim benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset, then runs it with the same arguments.
The program's last line of standard output is the result object. It refuses
to run when a `SIGFIM_*` variable is set: the benchmark measures the
defaults users get.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The run must end within 180 seconds; the build is not counted here.
RUN_TIMEOUT_S = 170


def main():
    configured = sorted(name for name in os.environ if name.startswith("SIGFIM_"))
    if configured:
        print(
            "perfbench: refusing to run with " + ", ".join(configured) + " set; "
            "unset it to measure the defaults",
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
