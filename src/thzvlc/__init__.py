"""Indoor THz/VLC wireless VR network simulator with meta policy-gradient training."""

import ctypes
import sys

__version__ = "0.1.0"


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB;
    True if set, a no-op outside glibc.

    Every update builds a new parameter vector (15 MB on the 4-user joint
    head) and a batched forward a logits array of up to half that. glibc's
    dynamic thresholds start at 128 KiB and rise with the largest mapped
    block freed, so which arrays get their own mapping, and which freed
    heap pages go back to the system, changes in the course of a run: a
    long training run's peak memory stepped up by about 12 MB at a call
    that varied from one run to the next. Pinned, every array up to 32 MiB
    comes from the heap, whose freed pages are kept for reuse until 64 MiB
    lie free at its top, so the peak is reached in the first calls and
    then holds. The package pins them on import, before numpy allocates:
    pinned after it, the same arrays land elsewhere.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3  # parameter numbers of glibc's <malloc.h>
    return bool(mallopt(m_mmap_threshold, 32 << 20)) and bool(mallopt(m_trim_threshold, 64 << 20))


pin_malloc_thresholds()
