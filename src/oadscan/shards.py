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
# to pay (report 1.53x, pipeline 1.40x on a 2-CPU host); more is untested.
MAX_WORKERS = 2
# The least input a worker is given.  Starting the pool costs about 40 ms,
# and report and pipeline get through 3-5 MB/s of input per CPU, so a
# smaller shard would not repay its worker.
MIN_SHARD_BYTES = 256 * 1024
# The input a report or pipeline shard runs its loop on at once: mentions-file bytes, document text.
CHUNK_BYTES = 1 << 20


# The cgroup v2 CPU quota at the top of the mounted hierarchy, and in each
# cgroup below it: "max <period>" when there is no limit, "<quota> <period>"
# when the cgroup may use quota microseconds of CPU time per period.
# Absent on the host's root cgroup and on v1.
CPU_MAX = Path("/sys/fs/cgroup/cpu.max")
# Its "0::<path>" line names this process's cgroup v2, below that top.
PROC_CGROUP = Path("/proc/self/cgroup")


def _quota_cpus() -> int | None:
    """The smallest quota of this process's cgroup and its ancestors, in
    CPUs rounded up; None when no level sets one.  A level whose file is
    missing or malformed, or reads "max", sets none.  A path that is
    unknown or leaves the hierarchy ("..") reads the top alone."""
    try:
        path = next(line[3:] for line in PROC_CGROUP.read_text().splitlines()
                    if line.startswith("0::"))
    except (OSError, StopIteration):
        path = ""
    parts = [] if ".." in path.split("/") else [p for p in path.split("/") if p]
    limits = []
    for i in range(len(parts) + 1):
        try:
            quota, period = (int(v) for v in
                             CPU_MAX.parent.joinpath(*parts[:i], CPU_MAX.name).read_text().split())
        except (OSError, ValueError):
            continue
        if quota > 0 and period > 0:
            limits.append(-(-quota // period))
    return min(limits, default=None)


def _usable_cpus() -> int:
    """The CPUs this process may run on, and the cgroup quota lets it
    keep busy; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _quota_cpus() or cpus)


def shard_count(input_bytes: int) -> int:
    """How many shards to cut an input of this size into: one per usable
    CPU, at most MAX_WORKERS, and none smaller than MIN_SHARD_BYTES; an
    input too small for two shards skips the CPU lookup."""
    if input_bytes < 2 * MIN_SHARD_BYTES:
        return 1
    return min(_usable_cpus(), MAX_WORKERS, input_bytes // MIN_SHARD_BYTES)


def contiguous(items: Sequence[S], n: int) -> list[Sequence[S]]:
    """items cut into min(n, len(items)) contiguous runs of near-equal
    length; one empty run when there are no items."""
    k = max(1, min(n, len(items)))
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


def line_ranges(path: str | Path, n: int, start: int = 0,
                end: int | None = None) -> list[tuple[int, int]]:
    """At most n contiguous byte ranges (start, end) that cover bytes
    [start, end) of the file (to its end when ``end`` is None).

    ``start`` is 0 or just after a newline byte.  Every cut falls just
    after a newline byte, and no range is empty, so there are never more
    ranges than lines.  An empty span gives (start, start).
    """
    end = os.path.getsize(path) if end is None else end
    cuts = [start]
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(max(start + (end - start) * k // n, cuts[-1]))
            fh.readline()
            if fh.tell() >= end:
                break
            cuts.append(fh.tell())
    cuts.append(end)
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
