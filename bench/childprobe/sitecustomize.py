"""Speed probe inside a benchmark child process.

The benchmark puts this directory first on a child's PYTHONPATH, so the
interpreter imports it at start-up (Python's ``sitecustomize`` hook) and
the command itself runs unchanged. When ``ODDKIT_BENCH_PROBE`` names a
file, the child times the speed kernel now and every 0.25 s, and at exit
writes the timings there for the parent to normalise the child's wall time
(see bench/speed.py).
"""

import atexit
import os
import sys

_path = os.environ.get("ODDKIT_BENCH_PROBE")
if _path:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from speed import SpeedProbe

    sys.path.pop(0)
    _probe = SpeedProbe()
    _probe.start()

    def _write() -> None:
        _probe.stop()
        with open(_path, "w") as f:
            f.write(" ".join(map(repr, _probe.took)) + "\n")

    atexit.register(_write)
