"""Starts commands for the benchmark and reaps each with wait4.

Reads one JSON request per line on standard input, with the keys
``argv``, ``cwd``, ``env``, ``log`` and ``timeout``; runs the command
with standard error to ``log``, kills it after ``timeout`` seconds, and
answers on standard output with one JSON line: ``wall`` (seconds from
start to reaping), ``code`` (exit code) and ``maxrss_kb`` (the
command's peak RSS).  Exits at the end of its input.

Linux carries a process's peak RSS across fork and exec, so a command
started from a large process reports that process's size as its own
peak.  This helper stays small, so the peak it reports is the command's.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["log"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    print(json.dumps({"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}),
          flush=True)
