"""Helper process that runs passes of CLI invocations for ``run.py``.

The kernel carries a process's peak RSS over into a child it spawns, so a
child's ``ru_maxrss`` is at least the spawner's own peak.  ``run.py`` grows
while it checks outputs; this helper stays small, so the peak RSS that
``os.wait4`` reports for each child is the child's own.

Protocol: one JSON request per line on stdin, ``{"commands": [[argv, stdout
path, stderr path], ...], "timeout": seconds}``; the helper runs the
commands one after another, each started after the previous one exits, and
answers with one JSON line ``{"wall_s": first spawn to last exit, "runs":
[[seconds, peak_rss_mb, returncode], ...]}``.  It exits at end of input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(argv, out_path, err_path, timeout):
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return [seconds, usage.ru_maxrss / 1024, proc.returncode]


def main():
    # SIGTERM unwinds through run(), which kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        request = json.loads(line)
        deadline = time.perf_counter() + request["timeout"]
        start = time.perf_counter()
        runs = [
            run(argv, out, err, max(deadline - time.perf_counter(), 1.0))
            for argv, out, err in request["commands"]
        ]
        wall = time.perf_counter() - start
        sys.stdout.write(json.dumps({"wall_s": wall, "runs": runs}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
