"""One fork pool for the program's independent tasks: the cells of a sweep
and the score columns of a multi-class fit, each column's whole tree
sequence one task.
"""

from __future__ import annotations

import os
from functools import partial

_worker_state = None  # set in a pool's worker, whose own pools run in-process


def _init_worker(state):
    global _worker_state
    _worker_state = state


def _run_task(fn, task):
    return fn(_worker_state, task)


def run_tasks(fn, state, tasks):
    """``[fn(state, task) for task in tasks]``; if tasks fail, the first
    failing one in task order raises.

    The tasks run on one forked worker per core this process may run on
    (``os.sched_getaffinity``), never more than there are tasks. With one
    worker, where the cores are unknown, and inside another pool's worker,
    they run in this process. A worker inherits ``state`` through the fork,
    so only ``fn`` (by name), the tasks and the results are pickled.
    """
    tasks = list(tasks)
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = 1 if _worker_state is not None else min(usable, len(tasks))
    if workers <= 1:
        return [fn(state, task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, named because Python 3.14 defaults to another method, and safe since
    # the program starts no threads of its own: a forked worker starts without
    # importing numpy again and inherits the initializer's arguments unpickled
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(state,)) as pool:
        return list(pool.map(partial(_run_task, fn), tasks))
