"""What the machine lets this process use, and how its allocator behaves."""

from __future__ import annotations

import ctypes
import os

# glibc malloc keeps freed blocks below 64 MB on its heap and trims the heap
# only past 128 MB, so a forward pass reuses the previous pass's activation
# buffers instead of mapping fresh pages. On one fold of the `train`
# workload (51 scans, 84 steps, 2-core VM, glibc 2.36): 4.35 -> 4.08 s,
# 220k -> 20k minor faults, 0.57 -> 0.07 s system time, peak RSS 247 -> 246 MB.
# `lungrisk score` over 24-patch chunks (seed-11 `score` inputs): 292k -> 15
# minor faults, and 1.57-1.61 -> 0.85-0.88 s spent in forwards.
MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 128 << 20

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def reuse_freed_memory() -> bool:
    """Set MMAP_THRESHOLD and TRIM_THRESHOLD on the running process through
    glibc's `mallopt`; returns whether both were applied. Off glibc it does
    nothing and returns False."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):      # no confstr, or no such name
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
