"""Wall time and peak memory of one gridhfk run, its worker processes included.

Usage, from the repository root::

    python3 scripts/rss_probe.py --braid "1 1 1 -2 -1 -1 -1 -2" --crosscheck off

The arguments go unchanged to one in-process call of ``gridhfk.cli.main``,
whose report is printed first.  Then one ``#`` line gives the wall time of
the call, the peak resident set of this process (``RUSAGE_SELF``) and the
largest peak among the worker processes it waited for
(``RUSAGE_CHILDREN``).  The exit status is that of the run.
"""

from __future__ import annotations

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridhfk.cli import main  # noqa: E402

#: ``ru_maxrss`` is in bytes on macOS and in kilobytes elsewhere
_MAXRSS_BYTES = 1 if sys.platform == "darwin" else 1024


def _peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * _MAXRSS_BYTES / 2**20


if __name__ == "__main__":
    start = time.perf_counter()
    status = main(sys.argv[1:])
    wall = time.perf_counter() - start
    print(
        f"# wall_s {wall:.2f}  main_maxrss_mb {_peak_mb(resource.RUSAGE_SELF):.0f}"
        f"  children_maxrss_mb {_peak_mb(resource.RUSAGE_CHILDREN):.0f}"
    )
    sys.exit(status)
