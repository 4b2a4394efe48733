#!/usr/bin/env python3
"""Build the whole-stack benchmark from source and run it.

    python3 stackbench/run.py --workload exact --seed 1 --seconds 25 --trace 0

The driver is built with dune (release profile, shared cache off and
temporary files under _stackbench/tmp, so nothing is written outside the
repository) into _stackbench/build under the repository that holds this
script, then run from that repository's root with the same arguments;
its output and exit status pass through unchanged.  A failed build
exits 2 without printing a result.  See stackbench/NOTES.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_stackbench", "build")
TMP = os.path.join(ROOT, "_stackbench", "tmp")
DRIVER = os.path.join(BUILD, "default", "stackbench", "driver.exe")


def main():
    os.makedirs(TMP, exist_ok=True)
    # the compilers' temporary files stay inside the repository too
    env = dict(os.environ, TMPDIR=TMP)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "--cache=disabled",
         "./stackbench/driver.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("stackbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    run = subprocess.run([DRIVER] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
