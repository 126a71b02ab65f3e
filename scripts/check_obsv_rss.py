#!/usr/bin/env python3
"""Memory gate: arming --metrics must not blow up a bench's peak RSS.

Runs a bench twice with the same arguments, first plain and then with
--metrics --jobs=4, and reads the peak resident set size of each child
with getrusage(RUSAGE_CHILDREN).  That call reports the largest RSS of
any child waited for so far, so the reading after the second run is
max(plain, metrics); the gate holds when it stays within the plain
run's peak plus 64 MB:

    max(plain, metrics) <= plain + 64  <=>  metrics <= plain + 64

Usage:
  check_obsv_rss.py --run <bench> [-- args...]
"""

import argparse
import resource
import subprocess
import sys

JOBS = 4
ALLOWANCE_MB = 64.0


def peak_mb():
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print("check_obsv_rss: FAIL: %s exited %d:\n%s"
              % (" ".join(cmd), proc.returncode, proc.stderr),
              file=sys.stderr)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run", required=True, help="bench binary")
    ap.add_argument("args", nargs="*", help="bench arguments (after --)")
    a = ap.parse_args()

    run([a.run] + a.args)
    plain = peak_mb()
    run([a.run, "--metrics", "--jobs=%d" % JOBS] + a.args)
    armed = peak_mb()

    limit = plain + ALLOWANCE_MB
    verdict = "OK" if armed <= limit else "FAIL"
    print("check_obsv_rss: %s: peak RSS plain %.1f MB, with --metrics "
          "--jobs=%d at most %.1f MB (limit %.1f MB)"
          % (verdict, plain, JOBS, armed, limit))
    return 0 if verdict == "OK" else 1


if __name__ == "__main__":
    sys.exit(main())
