"""The socket wire protocol: framing, value codec, error mapping."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SystemConfig
from repro.db.partition import Partition, PartitionDescriptor
from repro.errors import (
    ConfigError,
    PeerUnavailableError,
    RequestTimeoutError,
)
from repro.obs.registry import MetricsRegistry
from repro.ranges.domain import Domain
from repro.ranges.interval import IntRange
from repro.rpc import wire
from tests.framing import read_frame, write_frame


def roundtrip(value):
    # Through real JSON, not just the codec functions, so nothing
    # JSON-unfriendly (tuples, numpy ints) can hide in the encoded form.
    return wire.decode_value(json.loads(json.dumps(wire.encode_value(value))))


def test_scalars_pass_through():
    for value in (None, True, 7, 2.5, "hello"):
        assert roundtrip(value) == value


def test_range_descriptor_partition_roundtrip():
    r = IntRange(30, 50)
    descriptor = PartitionDescriptor("patients", "age", r)
    partition = Partition.from_rows(
        "patients", "age", r, [(30, "a"), (41, "b")]
    )
    assert roundtrip(r) == r
    assert roundtrip(descriptor) == descriptor
    assert roundtrip(partition) == partition
    assert roundtrip(partition).rows == ((30, "a"), (41, "b"))


def test_request_payload_tuples_roundtrip():
    # The exact payloads the data plane sends.
    match = (123, IntRange(1, 9), "simulated", "value")
    store = (
        123,
        PartitionDescriptor("simulated", "value", IntRange(1, 9)),
        None,
        True,
    )
    assert roundtrip(match) == match
    assert roundtrip(store) == store


def test_unencodable_value_raises():
    with pytest.raises(TypeError):
        wire.encode_value(object())


def test_config_roundtrip_including_domain():
    config = SystemConfig(
        n_peers=9,
        replicas=3,
        domain=Domain("age", 0, 120),
        matcher="containment",
        seed=42,
    )
    assert wire.config_from_wire(wire.config_to_wire(config)) == config


def test_config_from_wire_rejects_unknown_fields():
    body = wire.config_to_wire(SystemConfig())
    body["bogus"] = 1
    with pytest.raises(ConfigError):
        wire.config_from_wire(body)


def test_config_from_wire_defaults_missing_fields():
    assert wire.config_from_wire({"n_peers": 5}).l == SystemConfig().l


def run(coroutine):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def test_frame_roundtrip_over_loopback():
    async def scenario():
        received = []

        async def serve(reader, writer):
            frame = await read_frame(reader)
            received.append(frame)
            await write_frame(writer, {"ok": True, "echo": frame})
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await write_frame(writer, {"kind": "ping", "payload": [1, 2]})
        reply = await read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return received, reply

    received, reply = run(scenario())
    assert received == [{"kind": "ping", "payload": [1, 2]}]
    assert reply["ok"] and reply["echo"]["kind"] == "ping"


def test_read_frame_returns_none_on_eof():
    async def scenario():
        async def serve(reader, writer):
            writer.close()  # hang up without answering

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        frame = await read_frame(reader)
        writer.close()
        server.close()
        await server.wait_closed()
        return frame

    assert run(scenario()) is None


def test_call_maps_refused_connection_to_peer_unavailable():
    async def scenario():
        # Bind a port, then close it, so the connect is refused.
        server = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        with pytest.raises(PeerUnavailableError) as info:
            await wire.call("127.0.0.1", port, "ping", peer_id=42)
        assert info.value.peer_id == 42
        assert str(info.value) == "peer 42 is unreachable (crashed)"
        # A control exchange has no peer id: the error names the endpoint.
        with pytest.raises(PeerUnavailableError) as info:
            await wire.call("127.0.0.1", port, "hello")
        assert info.value.peer_id == -1
        assert str(info.value) == f"127.0.0.1:{port} is unreachable"

    run(scenario())


def test_call_times_out_against_a_silent_peer():
    async def scenario():
        async def serve(reader, writer):
            await reader.read()  # never answer; done when the caller hangs up
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(RequestTimeoutError):
                await wire.call(
                    "127.0.0.1", port, "ping", peer_id=7, timeout_ms=100.0
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- adversarial framing -----------------------------------------------------
#
# A peer on the open network can hand the decoder any byte stream.  Every
# malformed stream must surface as a typed WireError — never a raw
# struct/json/unicode exception leaking upward.  The decoder does no I/O,
# so these feed it bytes directly: no sockets, no loop.


def read_bytes(*chunks: bytes):
    """The first frame a FrameDecoder finds in ``chunks``, fed one by
    one, as if a peer sent them then hung up; ``None`` if there is none."""
    decoder = wire.FrameDecoder()
    frames = []
    for chunk in chunks:
        frames.extend(decoder.feed(chunk))
    decoder.eof()
    return frames[0] if frames else None


def test_oversized_length_prefix_is_refused():
    # Refused on the prefix alone: nothing of the body is buffered.
    decoder = wire.FrameDecoder()
    with pytest.raises(ValueError, match="refusing"):
        decoder.feed(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))


def test_torn_length_prefix_raises_wire_error():
    # Connection dies two bytes into the four-byte prefix: torn, not EOF.
    with pytest.raises(wire.WireError, match="length prefix"):
        read_bytes(b"\x00\x00")


def test_peer_death_mid_frame_raises_wire_error():
    # The prefix promises 100 bytes; only 10 ever arrive.
    with pytest.raises(wire.WireError, match="mid-frame"):
        read_bytes(struct.pack("!I", 100), b"x" * 10)


def test_garbage_bytes_under_plausible_prefix_raise_wire_error():
    junk = b"\xde\xad\xbe\xef not json at all"
    with pytest.raises(wire.WireError, match="not valid JSON"):
        read_bytes(struct.pack("!I", len(junk)), junk)


def test_non_object_json_body_raises_wire_error():
    body = json.dumps([1, 2, 3]).encode("utf-8")
    with pytest.raises(wire.WireError, match="expected an object"):
        read_bytes(struct.pack("!I", len(body)), body)


def test_undecodable_bytes_raise_wire_error_not_unicode_error():
    body = b"\xff\xfe\xfd\xfc"
    with pytest.raises(wire.WireError):
        read_bytes(struct.pack("!I", len(body)), body)


def test_wire_error_is_a_value_error_and_a_repro_error():
    # Callers catching either family (old code caught ValueError) work.
    from repro.errors import ReproError

    assert issubclass(wire.WireError, ValueError)
    assert issubclass(wire.WireError, ReproError)


def test_valid_frame_after_feed_still_parses():
    # Sanity check on the read_bytes() harness itself.
    body = json.dumps({"kind": "ping"}).encode("utf-8")
    frame = read_bytes(struct.pack("!I", len(body)), body)
    assert frame == {"kind": "ping"}


documents = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=20),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    frames=st.lists(documents, min_size=1, max_size=8),
    cuts=st.lists(st.integers(min_value=0), max_size=40),
    one_byte=st.booleans(),
)
def test_any_chunking_of_a_stream_decodes_to_the_same_frames(frames, cuts, one_byte):
    stream = b"".join(wire.encode_frame(document) for document in frames)
    if one_byte:
        bounds = list(range(len(stream) + 1))
    else:
        bounds = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
    bytes_in = MetricsRegistry().counter("wire.bytes_in")
    decoder = wire.FrameDecoder(bytes_in)
    decoded = []
    for start, stop in zip(bounds, bounds[1:]):
        decoded.extend(decoder.feed(stream[start:stop]))
    decoder.eof()
    assert decoded == frames
    assert bytes_in.get() == len(stream)


def test_call_survives_garbage_reply_as_peer_unavailable():
    # End to end: a server that answers with framing garbage must surface
    # to the caller as PeerUnavailableError (retryable), not a hang or a
    # leaked json/struct exception.
    async def scenario():
        async def serve(reader, writer):
            await read_frame(reader)
            writer.write(b"\x00\x00\x00\x08garbage!")
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(PeerUnavailableError):
                await asyncio.wait_for(
                    wire.call(
                        "127.0.0.1", port, "ping", peer_id=3,
                        timeout_ms=2000.0,
                    ),
                    timeout=5.0,
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


def test_call_survives_mid_frame_death_as_peer_unavailable():
    async def scenario():
        async def serve(reader, writer):
            await read_frame(reader)
            writer.write(struct.pack("!I", 1 << 20) + b"only-a-little")
            await writer.drain()
            writer.close()  # die with most of the frame unsent

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(PeerUnavailableError):
                await asyncio.wait_for(
                    wire.call(
                        "127.0.0.1", port, "ping", peer_id=4,
                        timeout_ms=2000.0,
                    ),
                    timeout=5.0,
                )
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())


# -- trace envelope compatibility --------------------------------------------
#
# The optional "trace" request field must be pure upside: a real server
# answers identically whether the envelope is absent, well-formed, or
# garbage from a confused (or hostile) peer.  Only a well-formed, sampled
# envelope leaves a span fragment behind.


def with_live_server(scenario):
    """Run one async scenario against a freshly bound PeerServer."""
    from repro.rpc.server import PeerServer

    async def runner():
        server = PeerServer("peer-wire", SystemConfig(n_peers=4, seed=7))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.close()

    return run(runner())


@pytest.mark.parametrize(
    "envelope",
    [
        "garbage-string",
        12,
        [1, 2],
        {},
        {"id": 7},
        {"id": "", "span": "x"},
        {"id": "ok-id", "span": 99},
    ],
)
def test_garbled_trace_envelope_degrades_to_untraced(envelope):
    # Every malformed envelope: the request succeeds exactly as if the
    # field were absent — never an error reply, never a dropped frame.
    async def scenario(server):
        reply = await wire.call(
            server.host, server.port, "hello",
            timeout_ms=2000.0, trace=envelope,
        )
        spans = await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "ok-id"}, timeout_ms=2000.0,
        )
        return reply, spans

    reply, spans = with_live_server(scenario)
    assert reply["address"] == "peer-wire"
    # A garbled id ("ok-id" rides on a non-string span, which is dropped,
    # not fatal) may still trace; anything else must leave no fragment.
    if envelope != {"id": "ok-id", "span": 99}:
        assert spans["spans"] == []


def test_missing_trace_envelope_is_untraced_not_an_error():
    async def scenario(server):
        reply = await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0
        )
        depth = len(server.flight.spans_for("any"))
        return reply, depth

    reply, depth = with_live_server(scenario)
    assert reply["address"] == "peer-wire"
    assert depth == 0


def test_sampled_trace_envelope_leaves_a_fragment_behind():
    async def scenario(server):
        await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0,
            trace={"id": "trace-77", "span": "client-span-1",
                   "sampled": True},
        )
        return await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "trace-77"}, timeout_ms=2000.0,
        )

    spans = with_live_server(scenario)["spans"]
    assert len(spans) == 1
    (fragment,) = spans
    assert fragment["name"] == "serve:hello"
    assert fragment["trace_id"] == "trace-77"
    assert fragment["parent_span_id"] == "client-span-1"
    assert fragment["node"] == "peer-wire"
    assert fragment["attrs"]["outcome"] == "ok"
    assert fragment["end_wall_ms"] >= fragment["start_wall_ms"]


def test_unsampled_trace_envelope_is_honoured():
    async def scenario(server):
        await wire.call(
            server.host, server.port, "hello", timeout_ms=2000.0,
            trace={"id": "trace-88", "sampled": False},
        )
        return await wire.call(
            server.host, server.port, "telemetry",
            {"spans_for": "trace-88"}, timeout_ms=2000.0,
        )

    assert with_live_server(scenario)["spans"] == []


def test_telemetry_snapshot_is_versioned_and_timestamped():
    # The --connect / scraper contract: version tag, node address, and
    # both capture clocks present on every full snapshot.
    async def scenario(server):
        await wire.call(server.host, server.port, "hello", timeout_ms=2000.0)
        return await wire.call(
            server.host, server.port, "telemetry", timeout_ms=2000.0
        )

    snapshot = with_live_server(scenario)
    assert snapshot["version"] == 1
    assert snapshot["node"] == "peer-wire"
    assert isinstance(snapshot["captured_mono_ms"], float)
    assert isinstance(snapshot["captured_wall_ms"], float)
    assert snapshot["queue_depth"] >= 0
    assert "census" in snapshot and "swim" in snapshot
    assert snapshot["flight"]["recorded"] >= 0
    # The metrics body is a registry snapshot: the hello we sent above is
    # already counted.
    names = {m["name"] for m in snapshot["metrics"]["metrics"]}
    assert "server.requests" in names


def test_call_maps_remote_error_types():
    async def scenario():
        async def serve(reader, writer):
            await read_frame(reader)
            await write_frame(
                writer,
                {
                    "id": 0,
                    "ok": False,
                    "error": "unknown message kind 'bogus'",
                    "error_type": "ConfigError",
                },
            )
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            with pytest.raises(ConfigError):
                await wire.call("127.0.0.1", port, "bogus")
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())
