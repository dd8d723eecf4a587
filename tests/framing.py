"""Frames over asyncio streams, for the tests' scripted peers and raw
clients: the program itself speaks through protocols, and these decode
with its own :class:`~repro.rpc.wire.FrameDecoder`."""

from __future__ import annotations

import asyncio
import weakref

from repro.rpc import wire

#: One decoder per stream, holding what a read brought beyond a frame.
_decoders: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """The next frame; ``None`` on a clean EOF between frames.

    A torn, oversized or corrupt frame raises :class:`~repro.rpc.wire.WireError`.
    """
    decoder, ready = _decoders.setdefault(reader, (wire.FrameDecoder(), []))
    while not ready:
        try:
            data = await reader.read(wire.FrameDecoder.READ_SIZE)
        except ConnectionResetError:
            data = b""
        if not data:
            decoder.eof()
            return None
        ready.extend(decoder.feed(data))
    return ready.pop(0)


async def write_frame(writer: asyncio.StreamWriter, document: dict) -> None:
    """Send one frame."""
    writer.write(wire.encode_frame(document))
    await writer.drain()
