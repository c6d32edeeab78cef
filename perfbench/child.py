"""Run one program process and report its own resource use.

Usage: ``python3 -S perfbench/child.py REPORT COMMAND [ARG...]``

Writes ``{"returncode", "wall_s", "cpu_s", "maxrss_kb"}`` to REPORT.  CPU
time and peak RSS come from ``wait4`` and include every worker the
command reaped itself.

The benchmark starts program processes through this small process
because Linux carries the peak RSS of a process into any child it forks:
forked straight from the benchmark, whose memory grows with its reference
computations and request corpus, a phase would report that memory as its
own.
"""

import json
import os
import sys
import time


def main(argv: "list[str]") -> int:
    report, command = argv[0], argv[1:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as handle:
        json.dump({"returncode": code, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
