"""Start a worker as ``__main__``, then record its own peak resident memory.

    launch.py PEAK_FILE -m MODULE ARGS...
    launch.py PEAK_FILE SCRIPT ARGS...
    launch.py PEAK_FILE -c CODE ARGS...

At exit PEAK_FILE receives ``VmHWM`` in kB: the high-water mark of this
process's own address space.  ``ru_maxrss`` from ``wait4`` would not do:
when a process execs, Linux folds the address space it replaces into that
figure, and a spawned child starts out in its parent's.  So every child
would report at least the controller's own peak.
"""

import atexit
import os
import runpy
import sys


def _record(path: str):
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(peak)


def main():
    peak, target, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    atexit.register(_record, peak)
    if target == "-m":
        sys.argv = rest
        sys.path[0] = os.getcwd()
        runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
    elif target == "-c":
        sys.argv = ["-c"] + rest[1:]
        sys.path[0] = ""
        exec(compile(rest[0], "<string>", "exec"), {"__name__": "__main__"})
    else:
        sys.argv = [target] + rest
        sys.path[0] = os.path.dirname(os.path.abspath(target))
        runpy.run_path(target, run_name="__main__")


if __name__ == "__main__":
    main()
