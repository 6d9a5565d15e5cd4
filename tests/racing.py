"""Calls run at once on several threads, for the tests of concurrent writes."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor


def race(calls, rounds=1, timeout=60.0):
    """Run ``calls`` at once, one thread each, ``rounds`` times, with a
    short thread switch interval so that their steps interleave finely.
    Re-raises the first error a call raised, and fails if a call is not
    done ``timeout`` seconds after the others start."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(calls)) as pool:
            for _ in range(rounds):
                barrier = threading.Barrier(len(calls))
                futures = [pool.submit(lambda call: (barrier.wait(timeout), call()), call) for call in calls]
                for future in futures:
                    future.result(timeout)
    finally:
        sys.setswitchinterval(interval)
