"""Tests for the transport substrates and message accounting."""

from __future__ import annotations

import struct
import threading

import pytest

from repro.core.errors import TransportError
from repro.runtime import wire
from repro.runtime.local import LocalTransport
from repro.runtime.stats import ChannelStats
from repro.runtime.tcp import TCPTransport
from repro.runtime.transport import deserialize, serialize


class TestSerialization:
    def test_roundtrip(self):
        for payload in [1, "x", {"a": [1, 2]}, (True, None), {"nested": {"deep": 3}}]:
            assert deserialize(serialize(payload)) == payload

    def test_rejects_unpicklable(self):
        with pytest.raises(TransportError):
            serialize(lambda x: x)


class TestChannelStats:
    def test_record_and_totals(self):
        stats = ChannelStats()
        stats.record("a", "b", 10)
        stats.record("a", "b", 5)
        stats.record("b", "c", 1)
        assert stats.total_messages == 3
        assert stats.total_bytes == 16
        assert stats.snapshot() == {("a", "b"): 2, ("b", "c"): 1}

    def test_per_location_views(self):
        stats = ChannelStats()
        stats.record("a", "b", 1)
        stats.record("c", "a", 1)
        assert stats.messages_sent_by("a") == 1
        assert stats.messages_received_by("a") == 1
        assert stats.messages_involving("a") == 2
        assert stats.messages_sent_by("z") == 0

    def test_merge(self):
        first = ChannelStats()
        first.record("a", "b", 1)
        second = ChannelStats()
        second.record("a", "b", 2)
        second.record("b", "a", 3)
        merged = first.merge(second)
        assert merged.total_messages == 3
        assert merged.payload_bytes[("a", "b")] == 3

    def test_reset(self):
        stats = ChannelStats()
        stats.record("a", "b", 1)
        stats.reset()
        assert stats.total_messages == 0

    def test_channels(self):
        stats = ChannelStats()
        stats.record("a", "b", 1)
        assert ("a", "b") in stats.channels()

    def test_thread_safety_under_contention(self):
        stats = ChannelStats()

        def hammer():
            for _ in range(500):
                stats.record("a", "b", 1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.total_messages == 2000


class TestLocalTransport:
    def test_send_and_receive(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        transport.endpoint("a").send("b", {"k": 1})
        transport.endpoint("a").flush()  # raw endpoint use: drain deferred sends
        assert transport.endpoint("b").recv("a") == {"k": 1}

    def test_fifo_per_channel(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        sender = transport.endpoint("a")
        sender.send("b", 1)
        sender.send("b", 2)
        sender.flush()
        receiver = transport.endpoint("b")
        assert receiver.recv("a") == 1
        assert receiver.recv("a") == 2

    def test_channels_are_isolated_by_direction(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        transport.endpoint("a").send("b", "from-a")
        transport.endpoint("b").send("a", "from-b")
        transport.endpoint("a").flush()
        transport.endpoint("b").flush()
        assert transport.endpoint("a").recv("b") == "from-b"
        assert transport.endpoint("b").recv("a") == "from-a"

    def test_payloads_are_isolated_copies(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        original = {"list": [1]}
        transport.endpoint("a").send("b", original)
        transport.endpoint("a").flush()
        # mutation after send must not be visible: payloads serialize at send
        # time, before they ever sit in a write buffer
        original["list"].append(2)
        assert transport.endpoint("b").recv("a") == {"list": [1]}

    def test_timeout_raises(self):
        transport = LocalTransport(["a", "b"], timeout=0.05)
        with pytest.raises(TransportError, match="timed out"):
            transport.endpoint("b").recv("a")

    def test_unknown_peer_raises(self):
        transport = LocalTransport(["a", "b"], timeout=1.0)
        with pytest.raises(TransportError):
            transport.endpoint("a").send("z", 1)
        with pytest.raises(TransportError):
            transport.endpoint("a").recv("z")

    def test_stats_record_message_sizes(self):
        transport = LocalTransport(["a", "b"], timeout=1.0)
        transport.endpoint("a").send("b", "x" * 100)
        assert transport.stats.total_messages == 1
        assert transport.stats.total_bytes >= 100

    def test_endpoint_requires_census_member(self):
        transport = LocalTransport(["a", "b"], timeout=1.0)
        with pytest.raises(Exception):
            transport.endpoint("z")

    def test_context_manager(self):
        with LocalTransport(["a", "b"], timeout=1.0) as transport:
            transport.endpoint("a").send("b", 1)
            transport.endpoint("a").flush()
            assert transport.endpoint("b").recv("a") == 1


class TestTCPTransport:
    def test_send_and_receive_over_loopback(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            transport.endpoint("a")
            transport.endpoint("b")
            transport.endpoint("a").send("b", {"payload": [1, 2, 3]})
            transport.endpoint("a").flush()
            assert transport.endpoint("b").recv("a") == {"payload": [1, 2, 3]}

    def test_bidirectional_traffic(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            a, b = transport.endpoint("a"), transport.endpoint("b")
            a.send("b", "ping")
            a.flush()
            assert b.recv("a") == "ping"
            b.send("a", "pong")
            b.flush()
            assert a.recv("b") == "pong"

    def test_fifo_per_sender(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            a, b = transport.endpoint("a"), transport.endpoint("b")
            for index in range(10):
                a.send("b", index)
            a.flush()  # the ten coalesced frames travel as one writev
            assert [b.recv("a") for _ in range(10)] == list(range(10))

    def test_three_party_demultiplexing(self):
        with TCPTransport(["a", "b", "c"], timeout=5.0) as transport:
            endpoints = {name: transport.endpoint(name) for name in "abc"}
            endpoints["a"].send("c", "from-a")
            endpoints["b"].send("c", "from-b")
            endpoints["a"].flush()
            endpoints["b"].flush()
            assert endpoints["c"].recv("b") == "from-b"
            assert endpoints["c"].recv("a") == "from-a"

    def test_timeout(self):
        with TCPTransport(["a", "b"], timeout=0.1) as transport:
            transport.endpoint("a")
            with pytest.raises(TransportError, match="timed out"):
                transport.endpoint("b").recv("a")

    def test_stats_recorded(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            transport.endpoint("a")
            transport.endpoint("b")
            transport.endpoint("a").send("b", "hello")
            transport.endpoint("a").flush()
            transport.endpoint("b").recv("a")
            assert transport.stats.total_messages == 1


class _SpySocket:
    """Captures the buffers an endpoint hands to ``sendmsg``."""

    def __init__(self):
        self.captured = b""

    def sendmsg(self, buffers):
        self.captured += b"".join(bytes(buffer) for buffer in buffers)
        return sum(len(buffer) for buffer in buffers)

    def sendall(self, data):  # pragma: no cover - short-write fallback
        self.captured += bytes(data)

    def close(self):
        pass


def _parse_tcp_frame(raw: bytes):
    """Split a captured TCP frame into (sender, instance, payload bytes)."""
    (frame_length,) = struct.unpack_from("!I", raw)
    frame = raw[4:4 + frame_length]
    assert len(frame) == frame_length, "frame shorter than its length prefix"
    (sender_length,) = struct.unpack_from("!H", frame)
    sender = wire.decode(frame[2:2 + sender_length])
    instance, body_start = wire.read_uvarint(frame, 2 + sender_length)
    return sender, instance, frame[body_start:]


class TestSerializeOnceAccounting:
    """Bytes recorded in ChannelStats must equal the bytes actually framed."""

    CENSUS = ["a", "b", "c", "d"]
    PAYLOAD = {"shares": [True, False, True], "round": 3}

    def test_local_send_records_exact_serialized_bytes(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        transport.endpoint("a").send("b", self.PAYLOAD)
        # accounting happens at send time, before the deferred flush
        assert transport.stats.payload_bytes[("a", "b")] == len(serialize(self.PAYLOAD))
        transport.endpoint("a").flush()
        assert transport.endpoint("b").recv("a") == self.PAYLOAD

    def test_local_send_many_records_per_receiver(self):
        transport = LocalTransport(self.CENSUS, timeout=2.0)
        receivers = ["b", "c", "d"]
        transport.endpoint("a").send_many(receivers, self.PAYLOAD)
        transport.endpoint("a").flush()
        expected = len(serialize(self.PAYLOAD))
        for receiver in receivers:
            assert transport.stats.messages[("a", receiver)] == 1
            assert transport.stats.payload_bytes[("a", receiver)] == expected
            assert transport.endpoint(receiver).recv("a") == self.PAYLOAD
        assert transport.stats.total_bytes == expected * len(receivers)

    def test_local_send_many_rejects_unknown_receiver(self):
        transport = LocalTransport(["a", "b"], timeout=1.0)
        with pytest.raises(TransportError):
            transport.endpoint("a").send_many(["b", "z"], 1)
        # the bad batch must not have been partially delivered or recorded
        assert transport.stats.total_messages == 0

    def test_tcp_send_many_rejects_unknown_receiver_before_sending(self):
        with TCPTransport(["a", "b"], timeout=2.0) as transport:
            transport.endpoint("a")
            transport.endpoint("b")
            with pytest.raises(TransportError):
                transport.endpoint("a").send_many(["b", "z"], 1)
            # all-or-nothing, matching LocalTransport: no partial broadcast
            assert transport.stats.total_messages == 0

    def test_tcp_framed_payload_bytes_match_stats(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            transport.endpoint("b")
            spy = _SpySocket()
            sender._out_sockets["b"] = spy  # intercept the wire
            sender.send("b", self.PAYLOAD)
            sender.flush()
            origin, instance, payload = _parse_tcp_frame(spy.captured)
            assert origin == "a"
            assert instance == 0  # one-shot sends carry instance 0
            assert payload == serialize(self.PAYLOAD)
            assert transport.stats.payload_bytes[("a", "b")] == len(payload)

    def test_tcp_send_many_frames_one_serialization(self):
        with TCPTransport(self.CENSUS, timeout=5.0) as transport:
            sender = transport.endpoint("a")
            for name in self.CENSUS:
                transport.endpoint(name)
            spies = {receiver: _SpySocket() for receiver in ["b", "c", "d"]}
            sender._out_sockets.update(spies)
            sender.send_many(["b", "c", "d"], self.PAYLOAD)
            sender.flush()
            expected = serialize(self.PAYLOAD)
            for receiver, spy in spies.items():
                origin, _instance, payload = _parse_tcp_frame(spy.captured)
                assert origin == "a"
                assert payload == expected
                assert transport.stats.payload_bytes[("a", receiver)] == len(expected)

    def test_tcp_broadcast_end_to_end(self):
        with TCPTransport(self.CENSUS, timeout=5.0) as transport:
            for name in self.CENSUS:
                transport.endpoint(name)
            transport.endpoint("a").send_many(["b", "c", "d"], self.PAYLOAD)
            transport.endpoint("a").flush()
            for receiver in ["b", "c", "d"]:
                assert transport.endpoint(receiver).recv("a") == self.PAYLOAD


class TestLazyChannels:
    def test_channels_created_on_first_use_only(self):
        census = [f"n{i}" for i in range(50)]
        transport = LocalTransport(census, timeout=1.0)
        assert len(transport._channels) == 0
        transport.endpoint("n0").send("n1", 1)
        transport.endpoint("n0").flush()
        assert transport.endpoint("n1").recv("n0") == 1
        # one channel for the touched pair, not 50*49 for the census
        assert len(transport._channels) == 1

    def test_concurrent_first_use_yields_one_queue_per_channel(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        endpoint = transport.endpoint("a")
        threads = [
            threading.Thread(target=endpoint.send, args=("b", index)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        endpoint.flush()
        receiver = transport.endpoint("b")
        assert sorted(receiver.recv("a") for _ in range(8)) == list(range(8))
