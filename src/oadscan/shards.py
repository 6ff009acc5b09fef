"""Run one command's independent pieces on a pool of forked workers.

A command cuts its input into contiguous shards (runs of manifest
entries, or line-aligned byte ranges of a mentions file), runs one job
per shard and combines the results in shard order, so its outputs do not
depend on the number of shards.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

__all__ = ["shard_count", "contiguous", "line_ranges", "run_shards"]

S = TypeVar("S")
R = TypeVar("R")

# The most workers a command starts.  Two is the largest count measured
# to pay (report 1.6x, pipeline 1.35x on a 2-CPU host); more is untested.
MAX_WORKERS = 2
# The least input a worker is given.  Starting the pool costs about 40 ms,
# and report and pipeline get through 3-5 MB/s of input per CPU, so a
# smaller shard would not repay its worker.
MIN_SHARD_BYTES = 256 * 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shard_count(input_bytes: int) -> int:
    """How many shards to cut an input of this size into: one per usable
    CPU, at most MAX_WORKERS, and none smaller than MIN_SHARD_BYTES."""
    return max(1, min(_usable_cpus(), MAX_WORKERS, input_bytes // MIN_SHARD_BYTES))


def contiguous(items: Sequence[S], n: int) -> list[Sequence[S]]:
    """items cut into min(n, len(items)) contiguous runs of near-equal
    length; one empty run when there are no items."""
    k = max(1, min(n, len(items)))
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


def line_ranges(path: str | Path, n: int) -> list[tuple[int, int]]:
    """At most n contiguous byte ranges (start, end) that cover the file.

    Every cut falls just after a newline byte, and no range is empty, so
    there are never more ranges than lines.  An empty file gives (0, 0).
    """
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(max(size * k // n, cuts[-1]))
            fh.readline()
            if fh.tell() >= size:
                break
            cuts.append(fh.tell())
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


# A worker's job.  The pool's initializer sets it in each worker process,
# which inherits the job through fork instead of receiving it pickled.
_job: Callable | None = None


def _start_worker(job: Callable) -> None:
    global _job
    _job = job


def _run_job(shard):
    return _job(shard)


def run_shards(job: Callable[[S], R], shards: Sequence[S]) -> list[R]:
    """``job(shard)`` for every shard, in shard order.

    A single shard runs in this process.  Two or more run on a pool of
    one forked worker each.  Fork, not spawn, so that each worker starts
    with the job and everything it holds (model, settings) already in
    memory: only the shards and the results are pickled.  From Python 3.11
    the pool forks all its workers before it starts its own thread.  It
    is shut down before this returns, so its workers are reaped and
    their peak RSS counts in ``RUSAGE_CHILDREN``.  A job's exception is
    raised here; a worker that dies (killed, out of memory) raises
    ``ChildProcessError``.
    """
    if len(shards) == 1:
        return [job(shards[0])]
    # only a run of two or more shards imports these
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(len(shards), mp_context=multiprocessing.get_context("fork"),
                                 initializer=_start_worker, initargs=(job,)) as pool:
            return list(pool.map(_run_job, shards))
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a worker process died: {exc}") from None
