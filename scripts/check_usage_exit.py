#!/usr/bin/env python3
"""Check that bench drivers reject a bad command-line flag cleanly.

    check_usage_exit.py BINARY FLAG [BINARY FLAG ...]

Runs each BINARY with its one FLAG and requires exit status 2 and a
single stderr line `<prog>: <message>` that names the flag (the text
before any '=').  Exits 1 listing every pair that failed.
"""

import os
import subprocess
import sys


def check(binary, flag):
    proc = subprocess.run([binary, flag], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=30)
    prog = os.path.basename(binary)
    name = flag.split("=", 1)[0]
    lines = proc.stderr.splitlines()
    if proc.returncode != 2:
        return "exit %d, want 2" % proc.returncode
    if len(lines) != 1 or not lines[0].startswith(prog + ": "):
        return "stderr %r, want one line starting %r" % (proc.stderr,
                                                         prog + ": ")
    if name not in lines[0]:
        return "stderr %r does not name %s" % (lines[0], name)
    return None


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        sys.stderr.write(__doc__)
        return 2
    failures = []
    for binary, flag in zip(argv[0::2], argv[1::2]):
        err = check(binary, flag)
        status = "FAIL: " + err if err else "ok"
        print("%s %s: %s" % (os.path.basename(binary), flag, status))
        if err:
            failures.append(flag)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
