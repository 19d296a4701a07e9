"""The selector TCP backend ("asyncio"): mechanics, wire interop, corruption, bounds.

Four promises are pinned down here:

1. **Mechanics** — the selector backend honours the same endpoint contract
   as every other transport (FIFO per sender, demultiplexing, typed
   timeouts) while reading *all* sockets on one daemon selector thread,
   and that one reader is not a shared point of failure.  Sending neither
   wakes the selector nor registers with it: both socket backends share one
   write path from the sending thread, which keeps per-pair FIFO under
   racing drains, cannot deadlock on full kernel buffers, and leaves no
   file descriptor open after ``close()``.
2. **Wire interop** — the frame format is byte-identical to the threaded
   TCP backend's (:mod:`repro.runtime.framing` is the single definition), so
   a threaded endpoint can send straight into an asyncio endpoint's socket
   and vice versa.
3. **Loud corruption** — a byte stream that stops parsing (runaway varint,
   undecodable sender) surfaces as the typed
   :class:`~repro.runtime.framing.FrameCorruption` at blocked receivers on
   both backends, promptly, instead of as an eventual timeout.  A fuzz
   target holds the read step to that: frames, or the poison, whatever
   bytes arrive and however they are chunked.
4. **Bounded varints** — ``wire.read_uvarint`` refuses more than 64 bits
   (the runaway-continuation-byte regression), and every consumer — wire
   decode, socket framing, WAL replay — turns that into its existing typed
   behaviour.
"""

from __future__ import annotations

import gc
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChoreoEngine
from repro.core.errors import ChoreoTimeout, TransportError
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.runtime import wire
from repro.runtime.asyncio_tcp import AsyncioTCPTransport
from repro.runtime.framing import (
    LENGTH,
    SENDER_LENGTH,
    FrameCorruption,
    FrameParser,
    FrameWriter,
)
from repro.runtime.tcp import TCPTransport
from repro.runtime.transport import FLUSH_WATERMARK, serialize
from repro.storage.wal import WriteAheadLog

CENSUS = ["a", "b", "c"]


class TestAsyncioMechanics:
    def test_send_and_receive_over_loopback(self):
        with AsyncioTCPTransport(CENSUS, timeout=5.0) as transport:
            for location in CENSUS:
                transport.endpoint(location)
            transport.endpoint("a").send("b", {"n": 1})
            transport.endpoint("a").flush()
            assert transport.endpoint("b").recv("a") == {"n": 1}

    def test_fifo_per_sender(self):
        with AsyncioTCPTransport(["a", "b"], timeout=5.0) as transport:
            sender, receiver = transport.endpoint("a"), transport.endpoint("b")
            for index in range(50):
                sender.send("b", index)
            sender.flush()
            assert [receiver.recv("a") for _ in range(50)] == list(range(50))

    def test_three_party_demultiplexing(self):
        with AsyncioTCPTransport(CENSUS, timeout=5.0) as transport:
            for location in CENSUS:
                transport.endpoint(location)
            transport.endpoint("a").send("c", "from-a")
            transport.endpoint("a").flush()
            transport.endpoint("b").send("c", "from-b")
            transport.endpoint("b").flush()
            c = transport.endpoint("c")
            assert c.recv("b") == "from-b"  # out of arrival order: by sender
            assert c.recv("a") == "from-a"

    def test_timeout_is_typed(self):
        with AsyncioTCPTransport(["a", "b"], timeout=0.2) as transport:
            transport.endpoint("a")
            with pytest.raises(ChoreoTimeout):
                transport.endpoint("b").recv("a")

    def test_unknown_peer_raises(self):
        with AsyncioTCPTransport(["a", "b"], timeout=1.0) as transport:
            endpoint = transport.endpoint("a")
            with pytest.raises(TransportError, match="unknown receiver"):
                endpoint.send("mallory", 1)
            with pytest.raises(TransportError, match="unknown sender"):
                endpoint.recv("mallory")

    def test_one_loop_thread_no_reader_threads(self):
        """The scaling claim in miniature: a full mesh of live connections
        adds exactly one I/O thread — the selector — where the threaded
        backend adds an accept thread per location plus a reader per
        connection."""
        before = threading.active_count()
        with AsyncioTCPTransport(CENSUS, timeout=5.0) as transport:
            for location in CENSUS:
                transport.endpoint(location)
            for sender in CENSUS:  # light up every connection in the mesh
                for receiver in CENSUS:
                    if sender != receiver:
                        transport.endpoint(sender).send(receiver, "hi")
                transport.endpoint(sender).flush()
            for receiver in CENSUS:
                for sender in CENSUS:
                    if sender != receiver:
                        assert transport.endpoint(receiver).recv(sender) == "hi"
            loop_threads = [
                t for t in threading.enumerate() if t.name == "tcp-selector"
            ]
            assert len(loop_threads) == 1
            assert not [
                t for t in threading.enumerate() if t.name.startswith("tcp-read-")
            ]
            assert threading.active_count() - before <= 1
        deadline = time.monotonic() + 5.0
        while loop_threads[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not loop_threads[0].is_alive()  # close() tears the selector down

    def test_listeners_register_while_the_selector_accepts(self):
        """Endpoints are created (their listeners registered from this
        thread) while earlier ones already exchange frames, so the selector
        thread accepts and registers at the same time; under a 10 µs switch
        interval no frame is lost or reordered."""
        census = [f"p{index}" for index in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with AsyncioTCPTransport(census, timeout=10.0) as transport:
                live = []
                for location in census:
                    live.append(transport.endpoint(location))
                    for sender in live:
                        for receiver in live:
                            if receiver is not sender:
                                sender.send(receiver.location, (sender.location, len(live)))
                        sender.flush()
                    for receiver in live:
                        for sender in live:
                            if receiver is not sender:
                                got = receiver.recv(sender.location)
                                assert got == (sender.location, len(live))
        finally:
            sys.setswitchinterval(interval)

    def test_warm_session_density_is_at_least_four_times_threaded(self):
        """Threads are what cap how many warm sessions one process holds: a
        4-party threaded session keeps a worker, an accept thread and a reader
        per inbound connection; the selector one keeps the workers and a selector."""
        parties = ["p0", "p1", "p2", "p3"]
        n = len(parties)

        def all_to_all(op):
            facets = op.parallel(parties, lambda loc, _un: loc)
            return op.gather(parties, parties, facets)  # lights every connection

        def threads_per_warm_session(backend):
            before = set(threading.enumerate())
            with ChoreoEngine(parties, backend=backend, timeout=10.0) as engine:
                engine.run(all_to_all)
                return len(set(threading.enumerate()) - before)

        threaded = threads_per_warm_session("tcp")
        evented = threads_per_warm_session("asyncio")
        assert threaded == n + n + n * (n - 1)
        assert evented == n + 1
        budget = 1024  # sessions that fit in a fixed thread budget
        assert (budget // evented) >= 4 * (budget // threaded)

    def test_close_is_idempotent_and_refuses_new_endpoints(self):
        transport = AsyncioTCPTransport(["a", "b"], timeout=1.0)
        transport.endpoint("a")
        transport.close()
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport._make_endpoint("b")

    def test_flush_at_instance_boundary_leaves_no_buffered_bytes(self):
        """The engine's instance-boundary flush must reach the asyncio
        endpoints too: after a run, no endpoint holds deferred frames."""

        def one_way(op):
            at_b = op.comm("a", "b", op.locally("a", lambda _un: "fire"))
            return op.locally("b", lambda un: un(at_b))

        with ChoreoEngine(["a", "b"], backend="asyncio", timeout=5.0) as engine:
            result = engine.run(one_way)
            assert result.value_at("b") == "fire"
            for location in ["a", "b"]:
                endpoint = engine._endpoints[location]
                inner = getattr(endpoint, "inner", endpoint)
                assert inner._out_buffers == {}


def _count_selector_calls(monkeypatch, transport):
    """Record every registration change made on ``transport``'s selector."""
    calls = []
    selector = transport._selector
    for name in ("register", "modify", "unregister"):
        real = getattr(selector, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(selector, name, counting)
    return calls


def _wake_ups_pending(transport) -> bool:
    """Whether a byte waits on the selector's one wake-up pair (close's)."""
    try:
        return bool(transport._wake_read.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT))
    except BlockingIOError:
        return False


GMW_PARTIES = ["p1", "p2", "p3", "p4"]
GMW_CIRCUIT = circuits.and_tree(GMW_PARTIES)


def _gmw_projected(op, my_inputs=None, *, seed=0):
    return gmw(op, GMW_PARTIES, GMW_CIRCUIT, my_inputs, seed=seed, rsa_bits=128)


class TestSendingNeverWakesTheSelector:
    """The count guard for the one write path: a send, a flush and a whole
    warm choreography run make no selector wake-up and no registration —
    the selector only reads.  (Setup registers each listener from its
    creating thread, and accepts register on the selector thread itself;
    close() is the one wake-up.)"""

    def test_scatter_and_flush_wake_nothing(self, monkeypatch):
        census = ["a", "b", "c", "d"]
        with AsyncioTCPTransport(census, timeout=5.0) as transport:
            endpoints = {location: transport.endpoint(location) for location in census}
            sender = endpoints["a"]
            for receiver in "bcd":  # connect first, as a warm session has
                sender.send(receiver, "hello")
            sender.flush()
            for receiver in "bcd":
                assert endpoints[receiver].recv("a") == "hello"

            calls = _count_selector_calls(monkeypatch, transport)
            for index in range(3):
                for receiver in "bcd":
                    sender.send(receiver, (receiver, index))
            sender.flush()
            sender.flush()  # nothing pending
            for receiver in "bcd":
                received = [endpoints[receiver].recv("a") for _ in range(3)]
                assert received == [(receiver, index) for index in range(3)]
            assert calls == []
            assert not _wake_ups_pending(transport)
            assert transport._thread.is_alive()

    def test_warm_gmw_runs_wake_nothing(self, monkeypatch):
        inputs = {party: {"x": True} for party in GMW_PARTIES}

        def run(engine, seed):
            result = engine.run(
                _gmw_projected, kwargs={"seed": seed},
                location_args={party: (inputs[party],) for party in GMW_PARTIES},
            )
            assert set(result.returns.values()) == {True}

        with ChoreoEngine(GMW_PARTIES, backend="asyncio", timeout=10.0) as engine:
            run(engine, 0)  # lights the mesh
            calls = _count_selector_calls(monkeypatch, engine.transport)
            for seed in range(20):
                run(engine, seed)
            assert calls == []
            assert not _wake_ups_pending(engine.transport)
            assert engine.transport._thread.is_alive()

    def test_a_warm_run_imports_no_asyncio(self):
        """The backend is a selector, not an event loop: a fresh interpreter
        that runs a warm 2-party session on it never imports ``asyncio``."""
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        script = (
            "import sys\n"
            "from repro import ChoreoEngine\n"
            "def ping(op):\n"
            "    return op.comm('a', 'b', op.locally('a', lambda _un: 1))\n"
            "with ChoreoEngine(['a', 'b'], backend='asyncio', timeout=10.0) as engine:\n"
            "    for _ in range(3):\n"
            "        assert engine.run(ping).value_at('b') == 1\n"
            "print('asyncio' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, check=True, env=env,
        ).stdout.strip()
        assert out == "False"


class TestOneReaderIsNoSharedFailure:
    """Every connection of a transport shares one selector thread, so what
    fails on one connection must stay there, and a failure of the thread
    itself must reach every receiver at once, typed."""

    def test_a_corrupt_or_reset_connection_fails_only_its_own_endpoint(self):
        census = ["a", "b", "c"]
        with AsyncioTCPTransport(census, timeout=10.0) as transport:
            endpoints = {location: transport.endpoint(location) for location in census}
            for receiver in "bc":  # live connections a→b and a→c
                endpoints["a"].send(receiver, "hello")
            endpoints["a"].flush()
            assert [endpoints[r].recv("a") for r in "bc"] == ["hello", "hello"]

            with socket.create_connection(("127.0.0.1", transport.port_of("b"))) as sock:
                sock.sendall(_runaway_frame())
                with pytest.raises(FrameCorruption):
                    endpoints["b"].recv("a")
            reset = socket.create_connection(("127.0.0.1", transport.port_of("c")))
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            reset.sendall(LENGTH.pack(64))  # half a frame, then a reset
            reset.close()

            for receiver in "bc":
                endpoints["a"].send(receiver, "after")
            endpoints["a"].flush()
            endpoints["b"].send("c", "from-b")
            endpoints["b"].flush()
            assert endpoints["b"].recv("a") == "after"
            assert endpoints["c"].recv("a") == "after"  # the reset poisoned nothing
            assert endpoints["c"].recv("b") == "from-b"
            # b's other inbox holds the corruption poison; nobody else was hit.
            assert isinstance(endpoints["b"]._inboxes["c"].get_nowait(), FrameCorruption)
            for location in census:
                assert all(inbox.empty() for inbox in endpoints[location]._inboxes.values())
            assert transport._thread.is_alive()

    def test_a_failing_selector_thread_poisons_every_inbox(self, monkeypatch, caplog):
        census = ["a", "b", "c"]
        with AsyncioTCPTransport(census, timeout=10.0) as transport:
            endpoints = {location: transport.endpoint(location) for location in census}

            def broken_feed(parser, chunk):
                raise RuntimeError("injected reader fault")

            monkeypatch.setattr(endpoints["b"], "_feed", broken_feed)
            endpoints["a"].send("b", "lost")
            endpoints["a"].flush()
            started = time.monotonic()
            for location in census:
                for peer in census:
                    if peer != location:
                        with pytest.raises(TransportError, match="selector thread failed"):
                            endpoints[location].recv(peer)
            assert time.monotonic() - started < 5.0  # poisoned, not timed out
            assert "injected reader fault" in caplog.text


@pytest.mark.parametrize("transport_cls", [TCPTransport, AsyncioTCPTransport])
class TestSharedWritePath:
    """Both socket backends write from the sending thread on blocking
    sockets; these pin what that path promises on each."""

    def test_watermark_drain_outside_a_flush_reaches_the_receiver(self, transport_cls):
        with transport_cls(["a", "b"], timeout=5.0) as transport:
            sender, receiver = transport.endpoint("a"), transport.endpoint("b")
            big = b"x" * (FLUSH_WATERMARK + 1)
            sender.send("b", big)  # past the watermark: drained by the send itself
            assert not sender._has_pending
            assert receiver.recv("a") == big

    def test_concurrent_flushes_and_watermark_drains_keep_per_pair_fifo(
        self, transport_cls
    ):
        """A flusher racing a sender whose frames cross the watermark must
        lose nothing and reorder nothing on any channel: the per-receiver
        drain lock orders the blocking writes."""
        census = ["a", "b", "c", "d"]
        count = 150
        padding = b"x" * (FLUSH_WATERMARK // 4)  # a drain every few sends
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with transport_cls(census, timeout=10.0) as transport:
                endpoints = {location: transport.endpoint(location) for location in census}
                sender = endpoints["a"]
                sending = threading.Event()
                sending.set()
                errors = []

                def produce():
                    try:
                        for index in range(count):
                            for receiver in "bcd":
                                sender.send(receiver, (index, padding))
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)
                    finally:
                        sending.clear()

                def keep_flushing():
                    try:
                        while sending.is_set():
                            sender.flush()
                    except BaseException as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=produce)] + [
                    threading.Thread(target=keep_flushing) for _ in range(3)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20.0)
                    assert not thread.is_alive()
                assert not errors, errors
                sender.flush()
                for receiver in "bcd":
                    indices = [endpoints[receiver].recv("a")[0] for _ in range(count)]
                    assert indices == list(range(count)), receiver
        finally:
            sys.setswitchinterval(interval)

    def test_kernel_bounded_writes_cannot_deadlock(self, transport_cls):
        """Two endpoints each write 4 MiB to the other before either
        receives.  Blocking writes stall on full kernel buffers, but the
        readers (threads or the selector) drain them regardless of the
        application, so both writers finish and every frame arrives in order."""
        frames, chunk = 64, b"y" * (64 * 1024)  # 4 MiB each way
        with transport_cls(["a", "b"], timeout=10.0) as transport:
            endpoints = {location: transport.endpoint(location) for location in "ab"}
            errors = []

            def write(location, peer):
                try:
                    for index in range(frames):
                        endpoints[location].send(peer, (index, chunk))
                    endpoints[location].flush()
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            writers = [
                threading.Thread(target=write, args=pair) for pair in (("a", "b"), ("b", "a"))
            ]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=20.0)
                assert not writer.is_alive()
            assert not errors, errors
            for location, peer in (("a", "b"), ("b", "a")):
                received = [endpoints[location].recv(peer) for _ in range(frames)]
                assert [index for index, _ in received] == list(range(frames))
                assert all(body == chunk for _, body in received)

    def test_closed_sessions_leave_no_file_descriptors(self, transport_cls):
        """With the garbage collector off, every socket a session opened —
        listeners, outgoing and accepted connections — is closed by
        ``close()`` itself, not by a later GC pass."""
        census = ["a", "b", "c"]

        def session():
            with transport_cls(census, timeout=5.0) as transport:
                endpoints = {location: transport.endpoint(location) for location in census}
                for sender in census:  # a full mesh of connections
                    for receiver in census:
                        if receiver != sender:
                            endpoints[sender].send(receiver, sender)
                    endpoints[sender].flush()
                for receiver in census:
                    for sender in census:
                        if sender != receiver:
                            assert endpoints[receiver].recv(sender) == sender

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd")
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            session()  # one-time imports and lazily opened files
            baseline = open_fds()
            for _ in range(5):
                session()
            # Threaded readers close their sockets as they see EOF, just
            # after close() returns; give them a moment.
            deadline = time.monotonic() + 5.0
            while open_fds() > baseline and time.monotonic() < deadline:
                time.sleep(0.01)
            assert open_fds() <= baseline
        finally:
            if enabled:
                gc.enable()


class TestWireInterop:
    """The two socket backends speak one wire format — prove it on one socket."""

    def test_threaded_sender_into_asyncio_receiver(self):
        with AsyncioTCPTransport(["a", "b"], timeout=5.0) as asy:
            receiver = asy.endpoint("b")
            threaded = TCPTransport(["a", "b"], timeout=5.0)
            try:
                sender = threaded.endpoint("a")
                # Point the threaded endpoint's connection cache at the
                # asyncio endpoint's listening socket: same wire, no shim.
                sock = socket.create_connection(
                    ("127.0.0.1", asy.port_of("b")), timeout=5.0
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with threaded.endpoint("a")._out_lock:
                    sender._out_sockets["b"] = sock
                sender.send("b", {"x": [1, 2, 3]})
                sender.flush()
                assert receiver.recv("a") == {"x": [1, 2, 3]}
                sender.send("b", "tagged-payload", instance=7)
                sender.flush()
                assert receiver.recv_tagged("a") == (7, "tagged-payload")
            finally:
                threaded.close()

    def test_asyncio_sender_into_threaded_receiver(self, monkeypatch):
        threaded = TCPTransport(["a", "b"], timeout=5.0)
        try:
            receiver = threaded.endpoint("b")
            with AsyncioTCPTransport(["a", "b"], timeout=5.0) as asy:
                sender = asy.endpoint("a")
                # Route the asyncio endpoint's connect at the *threaded*
                # listener instead of its own census peer.
                monkeypatch.setattr(asy, "port_of", lambda loc: threaded.port_of(loc))
                sender.send("b", ("tuple", 42))
                sender.flush()
                assert receiver.recv("a") == ("tuple", 42)
                sender.send("b", b"bytes", instance=9)
                sender.flush()
                assert receiver.recv_tagged("a") == (9, b"bytes")
        finally:
            threaded.close()

    def test_frame_writer_output_parses_identically(self):
        """A frame built by the shared writer round-trips through the shared
        parser — the byte-level identity both backends inherit."""
        writer = FrameWriter("a")
        payload = serialize({"k": "v"})
        frame = writer.header(len(payload), 3) + payload
        parsed = FrameParser().feed(frame)
        assert parsed == [("a", 3, payload)]


def _frame_from(sender_tag: bytes) -> bytes:
    """One well-formed frame whose sender field holds ``sender_tag`` verbatim."""
    body = SENDER_LENGTH.pack(len(sender_tag)) + sender_tag + b"\x00" + serialize(1)
    return LENGTH.pack(len(body)) + body


def _runaway_frame(sender: str = "a") -> bytes:
    """A structurally plausible frame whose instance varint never terminates:
    ten-plus 0x80 continuation bytes, the exact shape the 64-bit bound turns
    from a silent misdecode into a typed error."""
    tag = wire.encode(sender)
    body = SENDER_LENGTH.pack(len(tag)) + tag + b"\x80" * 12 + serialize("junk")
    return LENGTH.pack(len(body)) + body


class TestCorruptionSurfacing:
    def test_frame_parser_raises_typed_corruption(self):
        with pytest.raises(FrameCorruption, match="varint overflow"):
            FrameParser().feed(_runaway_frame())

    def test_undecodable_sender_is_typed_too(self):
        body = SENDER_LENGTH.pack(4) + b"\xff\xff\xff\xff" + b"\x00" + serialize(1)
        with pytest.raises(FrameCorruption):
            FrameParser().feed(LENGTH.pack(len(body)) + body)

    @pytest.mark.parametrize("sender", [b"l\x00", b"d\x01l\x00N"],
                             ids=["empty-list", "unhashable-key"])
    def test_sender_that_is_not_a_location_is_typed(self, sender):
        with pytest.raises(FrameCorruption):
            FrameParser().feed(_frame_from(sender))

    def test_feed_poisons_inboxes_on_a_non_location_sender(self):
        """The reader step itself: no bare TypeError out of the inbox lookup,
        the stream is dropped and every blocked receiver gets the poison."""
        with TCPTransport(["a", "b", "c"], timeout=5.0) as transport:
            endpoint = transport.endpoint("b")
            assert endpoint._feed(FrameParser(), _frame_from(b"l\x00")) is None
            for peer in ("a", "c"):
                assert isinstance(endpoint._inboxes[peer].get_nowait(), FrameCorruption)

    @pytest.mark.parametrize("transport_cls", [TCPTransport, AsyncioTCPTransport])
    def test_runaway_varint_on_the_socket_fails_receivers_loudly(
        self, transport_cls
    ):
        """Feed the raw corrupt bytes into a live listener: the blocked
        receiver must raise the typed corruption well before its timeout,
        on both socket backends."""
        with transport_cls(["a", "b"], timeout=10.0) as transport:
            receiver = transport.endpoint("b")
            with socket.create_connection(
                ("127.0.0.1", transport.port_of("b")), timeout=5.0
            ) as sock:
                sock.sendall(_runaway_frame())
                started = time.monotonic()
                with pytest.raises(FrameCorruption, match="varint overflow"):
                    receiver.recv("a")
                assert time.monotonic() - started < 5.0  # poisoned, not timed out


#: The gateway parsers' fuzz budget (tests/test_gateway_protocol.py).
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

#: Frames as the shared writer builds them: a census sender (or one with no
#: inbox here), an instance id, and a small serialized payload.
FRAMES = st.lists(
    st.tuples(st.sampled_from(["a", "c", "zz"]), st.integers(0, 1 << 20),
              st.one_of(st.integers(), st.text(max_size=6), st.none(),
                        st.lists(st.booleans(), max_size=4))),
    max_size=6,
).map(lambda frames: [(sender, instance, serialize(value))
                      for sender, instance, value in frames])


def _stream(frames) -> bytes:
    return b"".join(FrameWriter(sender).header(len(payload), instance) + payload
                    for sender, instance, payload in frames)


#: A length-prefixed frame body of random bytes, most with a short sender
#: field, so the sender and instance decoders see junk.
JUNK_FRAMES = st.one_of(
    st.binary(max_size=16),
    st.builds(lambda size, rest: SENDER_LENGTH.pack(size) + rest,
              st.integers(0, 8), st.binary(max_size=16)),
).map(lambda body: LENGTH.pack(len(body)) + body)


@st.composite
def _arriving_bytes(draw):
    """Random bytes, or real and junk frames, then cut, flipped or extended."""
    damage = draw(st.sampled_from(["raw", "cut", "flip", "extend"]))
    if damage == "raw":
        return draw(st.binary(max_size=120))
    data = bytearray(b"".join(draw(st.lists(
        st.one_of(FRAMES.map(_stream), JUNK_FRAMES), min_size=1, max_size=4))))
    if damage == "cut":
        return bytes(data[:draw(st.integers(0, len(data)))])
    if damage == "flip" and data:
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data) + (draw(st.binary(min_size=1, max_size=12)) if damage == "extend" else b"")


def _chunks(data: bytes, cuts) -> list:
    bounds = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[start:end] for start, end in zip(bounds, bounds[1:])]


def _drain(inbox) -> list:
    items = []
    while not inbox.empty():
        items.append(inbox.get_nowait())
    return items


class TestFrameParserRaisesOnlyFrameCorruption:
    """Whatever bytes reach a socket reader, the read step
    (``FramedCoalescingEndpoint._feed``) yields frames or poisons every inbox
    with the typed :class:`FrameCorruption`, never another exception, and a
    valid stream yields the same frames however it is chunked."""

    def test_fuzz_feed(self):
        with TCPTransport(["a", "b", "c"], timeout=5.0) as transport:
            endpoint = transport.endpoint("b")

            @FUZZ
            @given(_arriving_bytes(), st.lists(st.integers(0, 1 << 16), max_size=8))
            def feed(data, cuts):
                parser = FrameParser()
                for chunk in _chunks(data, cuts):
                    frames = endpoint._feed(parser, chunk)
                    if frames is None:  # the reader drops the connection here
                        for peer in ("a", "c"):
                            assert isinstance(_drain(endpoint._inboxes[peer])[-1],
                                              FrameCorruption)
                        return
                    for sender, instance, payload in frames:
                        assert type(sender) is str and type(instance) is int
                        assert type(payload) is bytes
                for peer in ("a", "c"):
                    _drain(endpoint._inboxes[peer])

            feed()

    def test_a_valid_stream_parses_the_same_however_chunked(self):
        with TCPTransport(["a", "b", "c"], timeout=5.0) as transport:
            endpoint = transport.endpoint("b")

            @FUZZ
            @given(FRAMES, st.lists(st.integers(0, 1 << 16), max_size=8))
            def feed(frames, cuts):
                parser, parsed = FrameParser(), []
                for chunk in _chunks(_stream(frames), cuts):
                    parsed += endpoint._feed(parser, chunk)
                assert parsed == frames
                for peer in ("a", "c"):
                    assert _drain(endpoint._inboxes[peer]) == [
                        (instance, payload)
                        for sender, instance, payload in frames if sender == peer]

            feed()


class TestVarintBounds:
    """The ``read_uvarint`` 64-bit bound and its consumers."""

    def test_read_uvarint_refuses_more_than_64_bits(self):
        with pytest.raises(ValueError, match="varint overflow"):
            wire.read_uvarint(b"\x80" * 10 + b"\x01", 0)

    def test_max_legitimate_value_still_roundtrips(self):
        out = bytearray()
        wire.write_uvarint(out, 2**64 - 1)
        assert wire.read_uvarint(bytes(out), 0) == (2**64 - 1, len(out))

    def test_truncated_varint_is_still_truncated_not_overflow(self):
        with pytest.raises(ValueError, match="truncated varint"):
            wire.read_uvarint(b"\x80\x80", 0)

    def test_wire_decode_surfaces_overflow_as_value_error(self):
        with pytest.raises(ValueError, match="varint overflow"):
            wire.decode(b"i" + b"\x80" * 10 + b"\x01")
        with pytest.raises(ValueError, match="varint overflow"):
            wire.decode(b"s" + b"\x80" * 10 + b"\x01")

    @pytest.mark.parametrize("payload", [
        wire.encode(1.5)[:-2],  # truncated float
        b"d\x01l\x00N",  # unhashable dict key
        b"l\x01" * 5000 + b"N",  # runaway nesting
    ], ids=["truncated-float", "unhashable-key", "deep-nesting"])
    def test_wire_decode_raises_only_value_error(self, payload):
        with pytest.raises(ValueError, match="malformed wire payload"):
            wire.decode(payload)

    def test_wal_replay_treats_runaway_tail_as_torn(self, tmp_path):
        """A runaway length varint at the WAL tail is what a crash mid-append
        can leave: replay must truncate it like any torn tail — keeping every
        intact record — not decode a bogus giant length or crash."""
        path = tmp_path / "wal.bin"
        with WriteAheadLog(path) as log:
            log.append(("put", "a", "1"))
            log.append(("put", "b", "2"))
        with open(path, "ab") as handle:
            handle.write(b"\x80" * 12)  # runaway continuation bytes
        reopened = WriteAheadLog(path)
        assert list(reopened.records()) == [
            (1, ("put", "a", "1")),
            (2, ("put", "b", "2")),
        ]
        assert reopened.append(("put", "c", "3")) == 3  # tail repaired on disk
        reopened.close()
