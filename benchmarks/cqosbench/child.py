"""Entry point of one measurement in one fresh process.

The parent (`run.py`), having refused any ``CQOS_*`` switch, starts this
file with ``PYTHONPATH`` pointing at ``src`` and ``PYTHONHASHSEED=0`` and
reads one JSON object from the last line of standard output.  A round never inherits a warm import, a grown
heap or a lingering thread from the round before it; set-up time counts
from the first line below, imports included.

Set-up is timed step by step: a stamp at every import statement executed
while the program is loaded, then (in `deploy.py`) one after every object,
stub and first reply.  The steps are the same from round to round, so the
parent can take each step's quietest round.
"""

import time

STAMPS = [time.perf_counter()]

import builtins  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def stamped_import(*args, _import=builtins.__import__, **kwargs):
    STAMPS.append(time.perf_counter())
    return _import(*args, **kwargs)


if __name__ == "__main__":
    # One CPU for client, server and transport threads alike: the scheduler
    # cannot move the round between cores halfway through.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    builtins.__import__ = stamped_import
    try:
        import measure
    finally:
        builtins.__import__ = stamped_import.__kwdefaults__["_import"]

    sys.exit(measure.main(sys.argv[1:], STAMPS))
