"""Time one in-process set-up in a fresh interpreter and print seconds.

    python3 perfbench/setup_child.py adhoc|answer

Spawned by the benchmark several times per run: a fresh process per
sample, because the spread between processes (memory layout, placement
on the host) is larger than the spread between repeats in one process.
Imports are not timed; the datasets build and the translators or the
service construction are.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from inproc import build_system  # noqa: E402

if __name__ == "__main__":
    started = time.perf_counter()
    build_system(sys.argv[1])
    print(time.perf_counter() - started)
