#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see tfbbench/README.md).

Run from the repository root:

    python3 tfbbench/run.py --workload univariate --seed 1 --seconds 20 --trace 0

Configures and builds tfbbench/ together with the library sources it
compiles, under $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's own unit tests, then runs tfb_ledger with the given arguments.
The last line of standard output is the result object. Build output goes to
<build dir>/build.log. Exits non-zero, without a result line, when the build
or the unit tests fail.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"tfbbench: {message}", file=sys.stderr)
    return 1


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "tfbbench")
    os.makedirs(build, exist_ok=True)
    jobs = str(os.cpu_count() or 1)

    with open(os.path.join(build_root, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
            steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                return fail(f"build failed, see {log.name}")
        test = os.path.join(build, "ledger_test")
        if os.path.exists(test):
            if subprocess.run([test, "--gtest_brief=1"], stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                return fail(f"ledger_test failed, see {log.name}")

    workdir = os.path.join(build_root, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build, "tfb_ledger")] + sys.argv[1:] + ["--workdir", workdir]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"tfb_ledger exited with {proc.returncode}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
