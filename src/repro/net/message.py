"""Messages exchanged between simulated peers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Message"]

_sequence = itertools.count()


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """One overlay message.

    ``kind`` is a short routing tag ("lookup", "partition-request",
    "partition-reply", "store", ...); ``payload`` is arbitrary and
    ``size_bytes`` is the *modelled* wire size used for traffic accounting
    (payloads are Python objects, so real serialized size is substituted by
    the caller's estimate).

    A message is never changed once built.  It is not ``frozen``: a frozen
    dataclass sets each field through ``object.__setattr__``, which costs
    more than the rest of the constructor, and every exchange builds two.
    ``==`` and ``hash`` are the frozen class's, field by field.
    """

    sender: int
    recipient: int
    kind: str
    payload: Any = None
    size_bytes: int = 64
    seq: int = field(default_factory=_sequence.__next__)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("message size cannot be negative")
