"""Allocator setting for the solver's large work arrays.

A fit allocates and frees large work arrays every iteration: the row blocks
of the graph step's cost and the sparse LU factors of the harmonic solve.
glibc's ``malloc`` serves a request of at least its mmap threshold with a
fresh mapping that ``free`` returns to the system, but it raises that
threshold to the size of every mapped block freed (up to 32 MiB).  After the
first freed large array, arrays below 32 MiB are therefore recycled through
the heap.  Small allocations then split the freed holes, so the next large
array sometimes fits a hole and sometimes extends the heap, and the resident
size of a fit moves by whole arrays from one process to the next with the
allocation history (hash seed, import order).

Pinning the threshold keeps every array of at least :data:`MMAP_THRESHOLD`
bytes in its own mapping, so the resident size follows the live arrays
alone.  It must happen before the first large array is freed, so
``import crossprop`` does it.  The setting is process-wide and permanent:
glibc has no call that restores the dynamic threshold.  A threshold chosen
through glibc's own ``MALLOC_MMAP_THRESHOLD_`` or ``GLIBC_TUNABLES``
environment variables is left alone.
"""

import ctypes
import os
import sys

MMAP_THRESHOLD = 1 << 20  # bytes; a 362 x 362 float64 array
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h

_pinned = False


def pin_mmap_threshold():
    """Fix glibc's mmap threshold at :data:`MMAP_THRESHOLD`; return whether it is set.

    Does nothing on platforms other than Linux, when the C library has no
    ``mallopt``, when the environment already chooses a threshold, or after
    a first successful call.
    """
    global _pinned
    if _pinned or not sys.platform.startswith("linux"):
        return _pinned
    if "MALLOC_MMAP_THRESHOLD_" in os.environ or "mmap_threshold" in os.environ.get(
        "GLIBC_TUNABLES", ""
    ):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    _pinned = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    return _pinned
