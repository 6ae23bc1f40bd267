"""Run one command to completion and print its own rusage as JSON.

    python3 -I -S perfbench/spawn.py STDOUT_PATH TIMEOUT_S ARGV...

On Linux a child's ru_maxrss starts at the peak RSS of the process that
spawned it: fork and vfork carry the spawner's high-water mark across exec.
The benchmark process holds numpy arrays, so it launches each measured
command through this process, which imports nothing heavy.  The command is
killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    stdout_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump(
        {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
