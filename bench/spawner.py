"""Runs the cli workload's processes on behalf of run.py.

A process's peak RSS, as getrusage reports it, is never below the RSS of its
parent at the moment it was forked.  run.py itself holds about 20 MB, more
than a ``python -m mwtate.cli`` process, so the verbs are forked from this
small helper (started with ``-S``, about 11 MB) instead.

Protocol: one JSON request per stdin line, ``{"argv": [...], "stdin": str or
null}``; one JSON reply per stdout line with the wall seconds of the child,
its exit code, stdout, stderr, and the largest peak RSS of any child so far.
"""

import json
import resource
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.run(req["argv"], input=req["stdin"], text=True,
                              capture_output=True, timeout=req["timeout"])
        seconds = time.perf_counter() - t0
        print(json.dumps({
            "seconds": seconds,
            "code": proc.returncode,
            "stdout": proc.stdout,
            "stderr": proc.stderr,
            "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }), flush=True)


if __name__ == "__main__":
    main()
