"""Test helper: fake the cores this process may run on, and record the
process pools that the program builds."""

import concurrent.futures
import os


def record_pools(patch, cores):
    """Pretend this process may run on ``cores`` cores (``patch`` is a
    ``pytest.MonkeyPatch``), and return the list of the worker counts of the
    process pools built from then on. A pool built in a pool's worker raises."""
    pools, real, home = [], concurrent.futures.ProcessPoolExecutor, os.getpid()

    class RecordingPool(real):
        def __init__(self, max_workers, **kwargs):
            if os.getpid() != home:
                raise AssertionError("a pool's worker built a process pool")
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    patch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools
