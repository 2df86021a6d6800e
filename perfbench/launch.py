"""Start the benchmark's measured processes from a small interpreter.

Linux carries a process's peak resident memory across exec, and a child
started with vfork or posix_spawn first shares its parent's memory, so a
child of the (large) benchmark process reports the benchmark's own peak as
its ``ru_maxrss``.  This process stays small, so the peak it reports for
each child is the child's own.

Reads one JSON job per line on stdin: {"argv", "cwd", "env", "cpus",
"stdout", "stderr", "timeout"}, with stdout/stderr the paths the child's
output goes to and cpus, when not null, the CPUs the child may run on
(otherwise it gets this process's).  Writes one JSON line per job: {"rc", "seconds", "maxrss_kb"}; rc is
null when the job ran past its timeout and was killed.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        job = json.loads(line)
        home = os.sched_getaffinity(0)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            if job["cpus"]:
                os.sched_setaffinity(0, job["cpus"])
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], cwd=job["cwd"], env=job["env"], stdout=out, stderr=err)
            os.sched_setaffinity(0, home)
            running = [True]
            signal.signal(signal.SIGALRM, lambda *_: running[0] and proc.kill())
            signal.setitimer(signal.ITIMER_REAL, job["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
            running[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        timed_out = rc == -signal.SIGKILL
        reply = {"rc": None if timed_out else rc, "seconds": t1 - t0, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
