"""Run ``python -m permsteg.cli`` with the given arguments, then write this
process's peak resident set size (VmHWM, in kB) to ``./cli.rss``.

The parent's rusage cannot give it: a child that is forked from the large
benchmark process and then execs inherits the parent's peak in ``ru_maxrss``.
"""

import runpy
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


try:
    sys.argv[0] = "permsteg"
    runpy.run_module("permsteg.cli", run_name="__main__", alter_sys=True)
finally:
    with open("cli.rss", "w", encoding="ascii") as fh:
        fh.write(f"{peak_rss_kb()}\n")
