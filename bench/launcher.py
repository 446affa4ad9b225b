"""Starts commands on behalf of the benchmark and reports what each cost.

It runs as a small process of its own, so every command is forked from the
same small image. On Linux a child's peak RSS includes the image it was
forked from, and forking takes longer from a larger one; launching from
here keeps the benchmark's own memory out of both.

One JSON request per stdin line: ``{"argv", "stdout", "stderr",
"timeout"}`` (the two paths receive the command's output). One JSON reply
per stdout line: ``{"wall", "code", "maxrss_kb"}``. The launcher exits when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def launch(argv, stdout, stderr, timeout):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own rusage; RUSAGE_CHILDREN would
            # report the largest of all children so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = launch(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
