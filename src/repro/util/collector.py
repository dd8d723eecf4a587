"""Pausing the cyclic garbage collector around bulk construction."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Suspend automatic cyclic collection for the block, then put the
    collector back the way it was found.

    Building ``N`` long-lived peers allocates containers much faster than
    any die, so the allocation counters keep triggering collections — the
    full ones re-walk every peer built so far and free nothing.  Inside
    the block reference counting still frees whatever is acyclic; what
    the block allocated is examined by the first collection after it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
