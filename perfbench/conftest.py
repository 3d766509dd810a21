"""Make the program source and the benchmark package importable."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def pytest_sessionfinish(session, exitstatus):
    """Reap the processes the in-process sharded runs left: the
    multiprocessing resource tracker outlives its last worker."""
    from perfbench.run import stop_children

    stop_children()
