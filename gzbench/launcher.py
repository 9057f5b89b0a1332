"""Starts the benchmark's child processes one at a time, from a small process.

Linux carries the peak RSS of the address space a child replaced at exec into
that child's ``ru_maxrss``. Spawned straight from the benchmark, which holds
the whole generated trace, every child would report at least the
benchmark's own peak. Spawned from this process, which imports no numpy, the
floor is a bare interpreter.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "stderr"}``;
one JSON reply per stdout line, ``{"code", "wall_s", "maxrss_kb"}``. The
child's environment is this process's own. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # wait4 reports this child's own rusage; RUSAGE_CHILDREN would
            # give the largest peak of every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
