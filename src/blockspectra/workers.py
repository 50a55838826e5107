"""Independent tasks mapped over forked worker processes.

``fork_map`` is the one process pool of the package: ``toynet scaled``
maps its (scale, seed) cells through it, ``toynet train`` its Hessian
snapshots, and ``slq.blockwise_densities`` its blocks, each one stack of
probe Lanczos recursions.
"""

from __future__ import annotations

import os

# The task function of a forked worker, set once by ``_adopt`` as the worker starts.
_task_fn = None


def _adopt(fn):
    global _task_fn
    _task_fn = fn


def _run(task):
    return _task_fn(*task)


def fork_map(fn, tasks: list, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, computed in up to ``jobs`` processes.

    The worker count is the least of ``jobs``, the number of tasks and the
    CPUs this process may use.  One worker is this process.  More are a
    forked pool: a forked worker starts with numpy and blockspectra already
    imported, where a spawned or forkserver one (the Linux default from
    Python 3.14) would spend about 0.2 s importing them again.  The package
    starts no threads of its own for a fork to copy mid-operation.

    ``fn`` reaches each worker as the argument of the pool's initializer,
    which a fork hands over by copying memory, not by pickling.  So ``fn``
    may be a closure, and whatever it holds (a matrix, a dataset) is shared
    copy-on-write rather than sent with every task; only the tasks and the
    results are pickled.  Results come back in task order, and the exception
    of the first task in that order that raises is raised here, as with one
    worker, whichever task fails first in time.  The pool is closed and
    joined on every path, so no worker outlives the call.
    """
    workers = min(jobs, len(tasks), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    import multiprocessing  # only a pool needs it

    pool = multiprocessing.get_context("fork").Pool(workers, initializer=_adopt, initargs=(fn,))
    try:
        return list(pool.imap(_run, tasks, chunksize=1))
    finally:
        pool.close()
        pool.join()
