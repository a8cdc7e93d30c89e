"""One child process at a time: spawn, wait, time, and measure peak RSS.

``os.wait4`` reaps the child and returns its own resource usage, so the peak
RSS is that child's and no other's.  A timeout is an interval timer whose
handler kills the child; no helper thread is started, which keeps the
``preexec_fn`` that sets ``RLIMIT_AS`` safe.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    output: str


def _limit_address_space(limit: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return apply


def run_child(argv, *, env, cwd, log_path, timeout_s: float, rlimit_as: int = 0) -> ChildResult:
    """Run ``argv`` to completion; stdout and stderr go to ``log_path``.

    ``rlimit_as`` (bytes), when set, caps the address space of this child
    only.  Wall time runs from just before the fork to the reap.
    """
    timed_out = False
    with open(log_path, "wb") as log:
        spawn_t = time.perf_counter()
        env = dict(env, PERFBENCH_SPAWN=repr(spawn_t))
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=cwd,
            preexec_fn=_limit_address_space(rlimit_as) if rlimit_as else None,
        )

        def on_timeout(signum, frame):
            nonlocal timed_out
            timed_out = True
            # not proc.kill(): it polls, and could reap the child before wait4
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_timeout)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))  # 0 would disarm it
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - spawn_t
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as log:
        text = log.read().decode("utf-8", "replace")
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=timed_out,
        output=text,
    )
