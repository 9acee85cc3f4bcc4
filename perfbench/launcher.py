"""Start the benchmark's child processes and report latency and peak memory.

    python perfbench/launcher.py      # one JSON request per stdin line

A child's max-RSS from wait4 also covers the peak RSS of the process that
spawned it: the child shares its parent's address space until exec (vfork),
and exec records that space's high-water mark.  The driver loads sample CSVs
and span files, so it does not spawn the children itself; this small process
does, and its own peak stays below that of any bureshall command.

Request:  {"argv", "cwd", "env", "stdout", "stderr", "timeout"}
Reply:    {"latency_s", "code", "max_rss_kib"}
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        print(json.dumps({"latency_s": t1 - t0, "code": code, "max_rss_kib": usage.ru_maxrss}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
