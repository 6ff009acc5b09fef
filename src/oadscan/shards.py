"""Run one command's independent pieces in forked child processes.

A command cuts its input into contiguous shards (runs of manifest
entries, or line-aligned byte ranges of a mentions file), runs one job
per shard and combines the results in shard order, so its outputs do not
depend on the number of shards.
"""

from __future__ import annotations

import contextlib
import os
import re
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

__all__ = ["shard_count", "contiguous", "line_ranges", "run_shards", "exit_if_orphaned"]

S = TypeVar("S")
R = TypeVar("R")

# The most workers a command starts.  Two is the largest count measured
# to pay (report 1.53x, pipeline 1.40x on a 2-CPU host); more is untested.
MAX_WORKERS = 2
# The least input a worker is given.  Forking two children and reaping
# them costs about 12 ms in a report process on a 2-CPU host, the imports
# only a forked run needs included, and report and pipeline get through
# 3-5 MB/s of input per CPU, so a smaller shard would not repay its child.
MIN_SHARD_BYTES = 256 * 1024
# report cuts its mentions file into chunks of about this size, at least one
# per shard, and runs its loop on one chunk's mentions at a time.
CHUNK_BYTES = 1 << 20


# Set in a forked child only: the pid of the process that forked it.
_parent: int | None = None


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


def line_ranges(path: str | Path, n: int) -> list[tuple[int, int]]:
    """At most n contiguous byte ranges (start, end) that cover the file.

    Every cut falls just after a line end: an LF, or a CR that no LF
    follows, never between a CR and its LF.  No range is empty, so there
    are never more ranges than lines.  An empty file gives [(0, 0)].
    """
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        for k in range(1, n):
            cut = _after_line_end(fh, max(size * k // n, cuts[-1]))
            if cut >= size:
                break
            cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


_LINE_END = re.compile(rb"\r\n?|\n")


def _after_line_end(fh: BinaryIO, pos: int) -> int:
    """The offset just after the first line end (LF, CRLF or a lone CR) at
    or after ``pos``, or the file's size; read 64 KiB at a time, so a file
    without LFs is not read whole."""
    fh.seek(pos)
    while block := fh.read(1 << 16):
        if m := _LINE_END.search(block):
            # a CR that ends the block may be the first half of a CRLF
            return pos + m.end() + (m.end() == len(block) and m[0] == b"\r"
                                    and fh.read(1) == b"\n")
        pos += len(block)
    return pos


def exit_if_orphaned() -> None:
    """In a forked child whose parent has died, exit at once.  A parent
    killed by SIGKILL or the out-of-memory killer runs no code, so it
    cannot kill its children; a job calls this between its pieces of work.
    In any other process it does nothing."""
    if _parent is not None and os.getppid() != _parent:
        os._exit(1)


def _child(job: Callable[[S], R], shard: S, k: int, inherited: list[int],
           write_fd: int, mask: set[int], parent: int) -> NoReturn:
    """In a forked child: record its parent's pid, restore SIGTERM's default
    action and the signal mask, close the pipe read ends it inherited, run
    shard k, pickle (ok, result or exception) to its pipe, and leave without
    returning into the parent's code."""
    import pickle
    import signal
    global _parent
    _parent = parent
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in inherited:
            os.close(fd)
        try:
            reply = (True, job(shard))
        except BaseException as exc:  # the parent raises it
            reply = (False, exc)
        try:
            data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            what = "result" if reply[0] else f"{type(reply[1]).__name__} exception"
            data = pickle.dumps((False, ChildProcessError(
                f"shard {k}: its {what} cannot be pickled: {exc}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)  # no atexit handlers, and no flush of the parent's buffers


def _reply(k: int, data: bytes, status: int) -> object:
    """Shard k's result from the bytes its child wrote and its wait
    status; the shard's exception is raised."""
    import pickle
    if status or not data:
        raise ChildProcessError(f"a worker process died before shard {k} replied "
                                f"(exit code {os.waitstatus_to_exitcode(status)})")
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise ChildProcessError(f"shard {k}: its reply cannot be unpickled: {exc!r}") from None
    if not ok:
        raise value
    return value


def run_shards(job: Callable[[S], R], shards: Sequence[S]) -> list[R]:
    """``job(shard)`` for every shard, in shard order.

    A single shard runs in this process.  Two or more run in one forked
    child each, which starts with the job and everything it holds (model,
    settings) already in memory, and pickles only its result (or
    exception) back through a pipe of its own.  This process runs no
    shard: a job that ends its process cannot end the command, and the
    idle parent adds little to the peak RSS.  The pipes are read and the
    children reaped in shard order, so their peak RSS counts in
    ``RUSAGE_CHILDREN``.  The earliest shard's exception is raised; a
    child that dies without replying (killed, out of memory,
    ``os._exit``) raises ``ChildProcessError``.  Whatever is raised here,
    every child still running is killed and reaped first.  A child whose
    parent dies without running that cleanup exits at the job's next call
    of ``exit_if_orphaned``.
    """
    if len(shards) == 1:
        return [job(shards[0])]
    # Imported only where shards fork, and before the first fork, so that
    # the children inherit them.
    import pickle  # noqa: F401 - the helpers' own import finds it loaded
    import signal
    parent = os.getpid()
    pids: list[int] = []  # the children not yet reaped
    fds: list[int] = []  # the read ends of their pipes not yet closed
    try:
        for k, shard in enumerate(shards):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            # Signals wait until the child is inside _child's try, and until
            # the parent has recorded the child, so that a Ctrl-C can neither
            # send the child into this function's cleanup nor leave it unkilled.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _child(job, shard, k, fds, write_fd, mask, parent)
                pids.append(pid)
            finally:  # in the parent only: the child never returns
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for k, pid in enumerate(pids[:]):
            with open(fds.pop(0), "rb") as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            results.append(_reply(k, data, status))
        return results
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
