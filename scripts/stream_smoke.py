#!/usr/bin/env python3
"""Peak-memory ceiling for one simulation run.

    python3 scripts/stream_smoke.py COMMAND [ARGS...]

Runs COMMAND with its output passed through, then reads the child's
peak resident set size (getrusage RUSAGE_CHILDREN, ru_maxrss in KiB on
Linux).  Exits 1 when the command fails or its peak exceeds LIMIT_MB
(MiB), 0 otherwise.  Run the simulator binary directly, not through a
build tool, so the measured child is the simulator itself.
"""

import resource
import subprocess
import sys

# The exact-simulation memory ceiling: a full 30.2M-instruction stream
# run must fit in this much resident memory.
LIMIT_MB = 100


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cmd = sys.argv[1:]
    rc = subprocess.run(cmd).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    verdict = "ok" if rc == 0 and peak_mb <= LIMIT_MB else "FAILED"
    print("stream-smoke: %s: exit %d, peak RSS %.1f MB (limit %d MB) %s"
          % (" ".join(cmd), rc, peak_mb, LIMIT_MB, verdict))
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
