"""Coalescing transports: deferred-flush semantics, equivalence, deadlock-freedom.

Three families of guarantees pin down the coalescing I/O core:

* **Mechanics** — frames coalesce into one writev (TCP) / one queue put
  (local) per drain, buffers auto-drain past the high watermark, and FIFO
  order survives coalescing and chunked reads.
* **Equivalence** — a choreography run over the coalescing TCP and local
  transports records *byte-for-byte identical* :class:`ChannelStats` (counts
  and payload bytes) and identical results vs. the simulated backend and the
  centralized reference semantics: coalescing is invisible to everything but
  the syscall counter.
* **Deadlock-freedom** — the flush-before-block rule: an endpoint drains its
  own write buffers before blocking in ``recv``, so the classic two-party
  mutual-send-then-receive pattern cannot deadlock on deferred buffers.
"""

from __future__ import annotations

import struct
import threading

import pytest

from repro import ChoreoEngine
from repro.runtime import wire
from repro.runtime.local import LocalTransport
from repro.runtime.simulated import SimulatedNetworkTransport
from repro.runtime.tcp import TCPTransport
from repro.runtime.transport import FLUSH_WATERMARK, serialize


def run_once(chor, census, args=(), *, backend, timeout, **run_options):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census, backend=backend, timeout=timeout) as engine:
        return engine.run(chor, args, **run_options)


CENSUS = ["alice", "bob", "carol"]

#: Payload shapes spanning every wire-codec fast path plus the pickle
#: fallback, each used as a broadcast payload in the equivalence property.
PAYLOAD_SHAPES = [
    True,
    -17,
    3.5,
    "falsch",
    b"\x00\x01",
    (1, (True, None)),
    [1, 2, 3, 4],
    {"k": [True, False], "n": 9},
    {1, 2, 3},  # set: no fast path, rides the pickle fallback
]


def storm(op, payload):
    """Broadcasts from everyone, one point-to-point comm, one final broadcast."""
    shared = {
        loc: op.broadcast(loc, op.locally(loc, lambda _un, l=loc: (l, payload)))
        for loc in CENSUS
    }
    tags = sorted(tag for tag, _v in shared.values())
    extra = op.comm("bob", "alice", op.locally("bob", lambda _un: ["extra", payload]))
    return op.broadcast(
        "alice", op.locally("alice", lambda un: (tuple(tags), un(extra)[0]))
    )


class _CountingSpy:
    """A socket double counting ``sendmsg`` calls and capturing the bytes."""

    def __init__(self):
        self.sendmsg_calls = 0
        self.captured = b""

    def sendmsg(self, buffers):
        self.sendmsg_calls += 1
        data = b"".join(bytes(buffer) for buffer in buffers)
        self.captured += data
        return len(data)

    def sendall(self, data):  # pragma: no cover - short-write fallback
        self.captured += bytes(data)

    def close(self):
        pass


def _parse_frames(raw: bytes):
    """Parse every ``[len][sender][instance][payload]`` frame in ``raw``."""
    frames = []
    pos = 0
    while pos < len(raw):
        (length,) = struct.unpack_from("!I", raw, pos)
        frame = raw[pos + 4:pos + 4 + length]
        assert len(frame) == length, "truncated frame"
        (sender_length,) = struct.unpack_from("!H", frame)
        sender = wire.decode(frame[2:2 + sender_length])
        instance, body_start = wire.read_uvarint(frame, 2 + sender_length)
        frames.append((sender, instance, frame[body_start:]))
        pos += 4 + length
    return frames


class TestCoalescingMechanics:
    def test_many_sends_one_writev(self):
        """50 deferred frames to one receiver drain as a single sendmsg."""
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            transport.endpoint("b")
            spy = _CountingSpy()
            sender._out_sockets["b"] = spy
            for index in range(50):
                sender.send("b", index)
            assert spy.sendmsg_calls == 0  # nothing on the wire yet
            sender.flush()
            assert spy.sendmsg_calls == 1  # 50 frames, one syscall
            frames = _parse_frames(spy.captured)
            assert [wire.decode(payload) for _s, _i, payload in frames] == list(range(50))
            assert all(s == "a" and i == 0 for s, i, _p in frames)

    def test_flush_is_idempotent_and_cheap_when_empty(self):
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            transport.endpoint("b")
            spy = _CountingSpy()
            sender._out_sockets["b"] = spy
            sender.flush()
            sender.send("b", 1)
            sender.flush()
            sender.flush()
            assert spy.sendmsg_calls == 1

    def test_watermark_drains_without_explicit_flush(self):
        """Pending bytes past FLUSH_WATERMARK hit the wire on their own."""
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            transport.endpoint("b")
            spy = _CountingSpy()
            sender._out_sockets["b"] = spy
            chunk = b"x" * 16384
            sends = FLUSH_WATERMARK // len(chunk) + 1
            for _ in range(sends):
                sender.send("b", chunk)
            assert spy.sendmsg_calls >= 1, "watermark did not trigger a drain"
            sender.flush()
            payloads = [p for _s, _i, p in _parse_frames(spy.captured)]
            assert len(payloads) == sends

    def test_local_flush_batches_one_queue_put(self):
        transport = LocalTransport(["a", "b"], timeout=2.0)
        sender = transport.endpoint("a")
        for index in range(20):
            sender.send("b", index)
        sender.flush()
        channel = transport.channel("a", "b")
        assert channel.qsize() == 1  # 20 frames, one queue element
        receiver = transport.endpoint("b")
        assert [receiver.recv("a") for _ in range(20)] == list(range(20))

    def test_fifo_survives_interleaved_flushes_and_watermarks(self):
        """Order is append order regardless of what triggered each drain."""
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            receiver = transport.endpoint("b")
            expected = []
            for index in range(40):
                if index % 7 == 3:
                    payload = "y" * 40000  # forces intermediate watermark drains
                else:
                    payload = index
                sender.send("b", payload)
                expected.append(payload)
                if index % 11 == 5:
                    sender.flush()
            sender.flush()
            assert [receiver.recv("a") for _ in range(40)] == expected

    def test_reader_reassembles_frames_split_across_chunks(self):
        """A frame larger than the 64 KiB read chunk arrives intact."""
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            sender = transport.endpoint("a")
            receiver = transport.endpoint("b")
            big = b"z" * (200 * 1024)
            sender.send("b", ("before", 1))
            sender.send("b", big)
            sender.send("b", ("after", 2))
            sender.flush()
            assert receiver.recv("a") == ("before", 1)
            assert receiver.recv("a") == big
            assert receiver.recv("a") == ("after", 2)

    def test_simulated_records_unstamped_payload_bytes(self):
        """Simulated stats must match the wire bytes, not the stamped tuple."""
        transport = SimulatedNetworkTransport(["a", "b"], latency=1.0)
        payload = {"shares": [True, False], "round": 3}
        transport.endpoint("a").send("b", payload)
        assert transport.stats.payload_bytes[("a", "b")] == len(serialize(payload))
        transport.endpoint("a").flush()
        assert transport.endpoint("b").recv("a") == payload
        transport.close()


class TestFlushBeforeBlock:
    """The rule that makes deferred flushing deadlock-free."""

    @pytest.mark.parametrize("transport_cls", [LocalTransport, TCPTransport])
    def test_mutual_send_then_recv_does_not_deadlock(self, transport_cls):
        """Both parties send (deferred) then block in recv: without the
        flush-before-block rule both buffers would sit undelivered while
        both endpoints wait — the two-party coalescing deadlock."""
        with transport_cls(["a", "b"], timeout=10.0) as transport:
            endpoints = {name: transport.endpoint(name) for name in ["a", "b"]}
            results = {}
            errors = []

            def party(me, peer):
                try:
                    endpoint = endpoints[me]
                    endpoint.send(peer, f"from-{me}")  # deferred: no flush here
                    results[me] = endpoint.recv(peer)  # recv must drain our buffer
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append((me, exc))

            threads = [
                threading.Thread(target=party, args=("a", "b")),
                threading.Thread(target=party, args=("b", "a")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
            assert not errors, errors
            assert results == {"a": "from-b", "b": "from-a"}

    @pytest.mark.parametrize("transport_cls", [LocalTransport, TCPTransport])
    def test_sends_really_are_deferred(self, transport_cls):
        """The deadlock test above is only meaningful if sends actually sit
        in the buffer until a flush (or a blocking recv) drains them."""
        with transport_cls(["a", "b"], timeout=2.0) as transport:
            sender = transport.endpoint("a")
            transport.endpoint("b")
            sender.send("b", 1)
            assert sender._has_pending
            sender.flush()
            assert not sender._has_pending


class TestBackendEquivalence:
    """Coalescing must be invisible: same stats, same results, every backend."""

    @pytest.mark.parametrize("payload", PAYLOAD_SHAPES, ids=[
        type(p).__name__ + "-" + str(i) for i, p in enumerate(PAYLOAD_SHAPES)
    ])
    def test_stats_and_results_identical_across_backends(self, payload):
        reference = run_once(
            storm, CENSUS, args=(payload,), backend="simulated", timeout=10.0
        )
        for backend in ["local", "tcp", "asyncio", "central"]:
            observed = run_once(
                storm, CENSUS, args=(payload,), backend=backend, timeout=10.0
            )
            assert observed.present_values() == reference.present_values(), backend
            assert observed.stats.snapshot() == reference.stats.snapshot(), backend
            assert dict(observed.stats.payload_bytes) == dict(
                reference.stats.payload_bytes
            ), backend

    def test_gmw_stats_identical_on_coalescing_tcp_and_simulated(self):
        """The paper's own workload: a (tiny) GMW run moves identical bytes
        over the coalescing TCP transport and the simulated reference."""
        from repro.protocols import circuits
        from repro.protocols.gmw import gmw

        parties = ["p1", "p2"]
        circuit = circuits.and_tree(parties)
        inputs = {p: {"x": True} for p in parties}

        def chor(op, my_inputs=None):
            return gmw(op, parties, circuit, my_inputs, seed=3, rsa_bits=128)

        runs = {
            backend: run_once(
                chor, parties,
                location_args={p: (inputs[p],) for p in parties},
                backend=backend, timeout=15.0,
            )
            for backend in ["simulated", "tcp", "asyncio", "local"]
        }
        reference = runs["simulated"]
        assert set(reference.returns.values()) == {True}
        for backend in ["tcp", "asyncio", "local"]:
            observed = runs[backend]
            assert set(observed.returns.values()) == {True}
            assert observed.stats.snapshot() == reference.stats.snapshot(), backend
            assert dict(observed.stats.payload_bytes) == dict(
                reference.stats.payload_bytes
            ), backend
