"""What the machine lets this process use, and the thread pool that
spreads work over its CPUs."""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable) -> Iterator:
    """fn(item) for each item, in input order, computed by a pool of one
    thread per usable CPU.

    Items are pulled on the calling thread, one at a time, while the pool
    works, and each is submitted once a thread is free for it: at most one
    item per thread is being worked on, plus the one pulled, and the pool
    drops an item when its fn returns. A finished result waits for the
    results before it, so that a slow item does not idle the other
    threads; at most two items per thread are submitted and not yet
    yielded. An exception raised by fn reaches the caller when its result
    is due; then, or when the caller closes the generator or is
    interrupted, no further item is pulled or started, and those running
    are waited for.
    """
    workers = usable_cpus()
    pool = ThreadPoolExecutor(max_workers=workers)
    pending = deque()       # submitted and not yet yielded, in input order
    try:
        for item in items:
            while True:
                while pending and pending[0].done():
                    yield pending.popleft().result()
                busy = [f for f in pending if not f.done()]
                if len(busy) < workers and len(pending) < 2 * workers:
                    break
                wait(busy, return_when=FIRST_COMPLETED)
            pending.append(pool.submit(fn, item))
            del item        # the pool holds it until its fn returns
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)

