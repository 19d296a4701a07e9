"""End-to-end tests for the gateway: real sockets over a real cluster.

Every test here drives :class:`GatewayServer` through TCP — mostly via
:class:`GatewayClient`, occasionally through a raw socket to exercise the
inline form and framing-damage paths.  The overload defenses are tested
separately and deterministically:

* **admission control** by pinning the cluster's ``pending`` gauge above
  the high-water mark (monkeypatched property — no racing against real
  load), asserting the retryable ``BUSY`` shed;
* **backpressure** by pipelining far past ``max_inflight_per_conn`` and
  asserting every reply arrives, in order (the reader paces the socket
  rather than erroring);
* **drain** by closing the server with delayed in-flight commands and
  asserting each already-admitted command still got its reply;
* **chaos** by parking the gateway over a cluster whose primary is
  crash-scheduled (seeded :class:`FaultPlan`) and asserting every wire
  command answers with a *typed* error frame — never a hang, never an
  unstructured failure.
"""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro import ClusterClient, ClusterEngine, FaultPlan, TxnConflict
from repro.cluster.engine import ClusterEngine as _EngineClass
from repro.core.errors import ChoreographyRuntimeError
from repro.gateway import (
    ERR_ABORTED,
    ERR_BADREQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_FAILED,
    ERR_FAILOVER,
    ERR_MAXCONN,
    ERR_TIMEOUT,
    ERR_UNAVAILABLE,
    BulkReply,
    ErrorReply,
    GatewayClient,
    GatewayError,
    GatewayServer,
    GatewaySettings,
    encode_reply,
)
from repro.protocols.kvs import Request, StaleEpoch
from tests.test_cluster_failover import BACKEND, CHAOS_SEEDS, TIMEOUT

#: Socket timeout for test clients: generous enough for CI, small enough
#: that a hang fails the test instead of wedging the suite.
CLIENT_TIMEOUT = 20.0


@pytest.fixture()
def stack():
    """A 2-shard cluster behind a gateway, plus one connected client."""
    with ClusterClient(shards=2, replication=2, backend=BACKEND) as kvs:
        with GatewayServer(kvs) as server:
            host, port = server.address
            with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                yield server, client


class TestGatewayDataPlane:
    def test_put_get_delete_round_trip(self, stack):
        _server, client = stack
        assert client.put("user:1", "ada") is None
        assert client.get("user:1") == "ada"
        assert client.put("user:1", "grace") == "ada"
        assert client.delete("user:1") == "grace"
        assert client.get("user:1") is None
        assert client.delete("user:1") is None

    def test_batch_mixed_requests(self, stack):
        _server, client = stack
        replies = client.batch(
            [
                Request.put("a", "1"),
                Request.get("a"),
                Request.delete("a"),
                Request.get("a"),
            ]
        )
        assert replies == [None, "1", "1", None]

    def test_scan_across_shards(self, stack):
        _server, client = stack
        for index in range(8):
            client.put(f"k:{index}", str(index))
        client.put("other", "x")
        assert client.scan("k:") == [(f"k:{i}", str(i)) for i in range(8)]

    def test_inline_form_over_raw_socket(self, stack):
        server, _client = stack
        host, port = server.address
        with socket.create_connection((host, port), timeout=CLIENT_TIMEOUT) as raw:
            raw.sendall(b"PUT inline yes\r\nGET inline\r\n")
            deadline = time.monotonic() + CLIENT_TIMEOUT
            data = b""
            while data != b"$-1\r\n$3\r\nyes\r\n":
                raw.settimeout(max(0.1, deadline - time.monotonic()))
                chunk = raw.recv(65536)
                assert chunk, f"connection closed early with {data!r}"
                data += chunk
        assert data == b"$-1\r\n$3\r\nyes\r\n"

    def test_pipelined_replies_keep_request_order(self, stack):
        _server, client = stack
        count = 30
        for index in range(count):
            client.send("PUT", "seq", f"v{index}")
        replies = client.drain(count)
        previous = [r.value for r in replies if isinstance(r, BulkReply)]
        assert previous == [None] + [f"v{i}" for i in range(count - 1)]


class TestGatewayTxn:
    """``MULTI (PUT k v | DEL k)+ EXEC`` mapped onto cross-shard 2PC."""

    def test_multi_exec_commits_atomically_across_shards(self, stack):
        _server, client = stack
        txn_id = client.txn([Request.put("alice", "50"), Request.put("bob", "150")])
        assert txn_id.startswith("txn-")
        assert client.get("alice") == "50"
        assert client.get("bob") == "150"
        second = client.txn([Request.delete("alice"), Request.put("bob", "200")])
        assert second != txn_id
        assert client.get("alice") is None
        assert client.get("bob") == "200"

    def test_multi_grammar_is_validated_up_front(self, stack):
        _server, client = stack
        for bad in (
            ["MULTI", "PUT", "k", "v"],  # missing EXEC
            ["MULTI", "GET", "k", "EXEC"],  # reads are not allowed
            ["MULTI", "EXEC"],  # empty write set
            ["MULTI", "PUT", "k", "EXEC"],  # PUT missing its value
        ):
            with pytest.raises(GatewayError) as excinfo:
                client.call(*bad)
            assert excinfo.value.code == ERR_BADREQUEST
            assert not excinfo.value.retryable
        assert client.ping() == "PONG"  # connection survived them all

    def test_conflict_surfaces_as_a_retryable_aborted_frame(self, stack):
        server, client = stack
        cluster = server.client.cluster
        # Park an intent on the contended key by stalling one decide phase.
        real_decide = cluster._decide_phase
        cluster._decide_phase = lambda *args: None
        cluster.submit_txn([Request.put("hot", "1")], txn_id="parked")
        deadline = time.monotonic() + CLIENT_TIMEOUT
        while cluster.pending and time.monotonic() < deadline:
            time.sleep(0.01)
        cluster._decide_phase = real_decide
        with pytest.raises(GatewayError) as excinfo:
            client.txn([Request.put("hot", "2"), Request.put("cold", "3")])
        assert excinfo.value.code == ERR_ABORTED
        assert excinfo.value.retryable  # nothing applied; a fresh try is safe
        assert excinfo.value.detail["keys"] == ["hot"]
        assert excinfo.value.detail["txn_id"]
        assert client.get("cold") is None  # the other shard rolled back too

    def test_client_retries_ride_out_a_transient_abort(self, stack):
        server, _client = stack
        cluster = server.client.cluster
        real = cluster.submit_txn
        calls = [0]

        def contended_once(requests, **kwargs):
            calls[0] += 1
            if calls[0] == 1:
                raise TxnConflict("txn-lost", ["hot"])
            return real(requests, **kwargs)

        cluster.submit_txn = contended_once
        host, port = server.address
        with GatewayClient(host, port, timeout=CLIENT_TIMEOUT, retries=2) as client:
            txn_id = client.txn([Request.put("hot", "9")])
            assert calls[0] == 2  # first attempt ABORTED, resend committed
            assert txn_id.startswith("txn-")
            assert client.get("hot") == "9"


class TestGatewayControlPlane:
    def test_ping_and_echo(self, stack):
        _server, client = stack
        assert client.ping() == "PONG"
        assert client.ping("token-17") == "token-17"

    def test_health_reports_shards_and_pending(self, stack):
        _server, client = stack
        health = client.health()
        assert sorted(health) == ["shard0", "shard1"]
        for shard in health.values():
            assert shard["degraded"] is False
            assert shard["pending"] == 0
            assert set(shard["replicas"].values()) == {"up"}

    def test_stats_counters_move(self, stack):
        _server, client = stack
        client.put("k", "v")
        stats = client.stats()
        assert stats["connections"] == 1
        assert stats["commands"] >= 2
        assert stats["cluster_messages"] > 0
        assert stats["draining"] is False


class TestGatewayErrors:
    def test_unknown_verb_is_nonfatal(self, stack):
        _server, client = stack
        with pytest.raises(GatewayError) as excinfo:
            client.call("FROB", "x")
        assert excinfo.value.code == ERR_BADREQUEST
        assert not excinfo.value.retryable
        assert client.ping() == "PONG"  # connection survived

    def test_framing_damage_answers_then_hangs_up(self, stack):
        server, _client = stack
        host, port = server.address
        with socket.create_connection((host, port), timeout=CLIENT_TIMEOUT) as raw:
            raw.sendall(b"*1\r\n:666\r\n")  # int frame where a bulk belongs
            raw.settimeout(CLIENT_TIMEOUT)
            data = b""
            while True:
                chunk = raw.recv(65536)
                if not chunk:
                    break  # server hung up, as promised
                data += chunk
        assert data.startswith(b"-")  # but answered with an error frame first

    def test_busy_shed_past_high_water(self, stack, monkeypatch):
        server, client = stack
        monkeypatch.setattr(
            _EngineClass, "pending", property(lambda self: 10_000)
        )
        with pytest.raises(GatewayError) as excinfo:
            client.get("whatever")
        assert excinfo.value.code == ERR_BUSY
        assert excinfo.value.retryable
        assert excinfo.value.detail["high_water"] == server.settings.admission_high_water
        assert client.ping() == "PONG"  # control plane still admitted
        assert client.stats()["shed_busy"] >= 1

    def test_shedding_is_sticky_until_the_low_water_mark(self, stack, monkeypatch):
        server, client = stack
        load = {"pending": 0}
        monkeypatch.setattr(
            _EngineClass, "pending", property(lambda self: load["pending"])
        )
        low = server.settings.low_water
        assert client.put("calm", "1") is None  # below the band: admitted
        load["pending"] = server.settings.admission_high_water + 1
        with pytest.raises(GatewayError) as excinfo:
            client.put("hot", "2")
        assert excinfo.value.code == ERR_BUSY
        assert excinfo.value.detail["low_water"] == low
        # Back under the high-water mark but still above the low one:
        # hysteresis keeps shedding (no admit/shed flapping).
        load["pending"] = low + 1
        with pytest.raises(GatewayError) as excinfo:
            client.put("warm", "3")
        assert excinfo.value.code == ERR_BUSY
        assert client.stats()["shedding"] is True
        # At the low-water mark the gateway re-admits.
        load["pending"] = low
        assert client.put("cool", "4") is None
        assert client.stats()["shedding"] is False

    def test_client_retries_ride_out_a_shed(self, stack, monkeypatch):
        server, _client = stack
        spikes = iter([10_000])  # saturated for exactly one admission check
        monkeypatch.setattr(
            _EngineClass, "pending", property(lambda self: next(spikes, 0))
        )
        host, port = server.address
        with GatewayClient(host, port, timeout=CLIENT_TIMEOUT, retries=2) as client:
            assert client.put("k", "v") is None  # first attempt shed, retry lands
            assert client.get("k") == "v"
        assert server.metrics()["shed_busy"] == 1

    def test_client_surfaces_nonretryable_frames_despite_retries(self, stack):
        server, _client = stack
        host, port = server.address
        with GatewayClient(host, port, timeout=CLIENT_TIMEOUT, retries=5) as client:
            before = server.metrics()["commands"]
            with pytest.raises(GatewayError) as excinfo:
                client.call("FROB", "x")
            assert excinfo.value.code == ERR_BADREQUEST
            assert server.metrics()["commands"] == before + 1  # no blind resends

    def test_client_rejects_negative_retries(self, stack):
        server, _client = stack
        host, port = server.address
        with pytest.raises(ValueError, match="retries"):
            GatewayClient(host, port, retries=-1)

    def test_draining_rejects_new_work_but_serves_control(self, stack):
        server, client = stack
        server._draining.set()
        try:
            with pytest.raises(GatewayError) as excinfo:
                client.put("k", "v")
            assert excinfo.value.code == ERR_DRAINING
            assert excinfo.value.retryable
            assert client.ping() == "PONG"
        finally:
            server._draining.clear()

    def test_maxconn_rejected_with_typed_error(self):
        with ClusterClient(shards=1, replication=2, backend=BACKEND) as kvs:
            settings = GatewaySettings(max_connections=1)
            with GatewayServer(kvs, settings) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as first:
                    assert first.ping() == "PONG"
                    with socket.create_connection(
                        (host, port), timeout=CLIENT_TIMEOUT
                    ) as refused:
                        refused.settimeout(CLIENT_TIMEOUT)
                        data = refused.recv(65536)
                        assert data.startswith(b"-")
                        assert ERR_MAXCONN.encode() in data


class TestBackpressure:
    def test_pipelining_past_budget_paces_not_errors(self):
        with ClusterClient(shards=2, replication=2, backend=BACKEND) as kvs:
            settings = GatewaySettings(max_inflight_per_conn=2)
            with GatewayServer(kvs, settings) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                    count = 40
                    for index in range(count):
                        client.send("PUT", f"key:{index % 5}", f"v{index}")
                    replies = client.drain(count)
                    assert len(replies) == count
                    assert not any(isinstance(r, ErrorReply) for r in replies)
                    assert server.metrics()["shed_busy"] == 0


class TestDrain:
    def test_close_waits_for_admitted_commands(self):
        plan = FaultPlan(seed=5).delay(jitter=0.01, rate=1.0)
        with ClusterClient(
            shards=2, replication=2, backend=BACKEND, timeout=5.0, faults=plan
        ) as kvs:
            with GatewayServer(kvs) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                    count = 16
                    for index in range(count):
                        client.send("PUT", f"k{index}", f"v{index}")
                    # Let the reader admit everything before the drain begins.
                    deadline = time.monotonic() + CLIENT_TIMEOUT
                    while server.metrics()["commands"] < count:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    closer = threading.Thread(target=server.close)
                    closer.start()
                    replies = client.drain(count)
                    closer.join(timeout=CLIENT_TIMEOUT)
                    assert not closer.is_alive()
                    assert len(replies) == count
                    assert not any(isinstance(r, ErrorReply) for r in replies)
                assert server.metrics()["inflight"] == 0

    def test_close_is_idempotent(self, stack):
        server, _client = stack
        server.close()
        server.close()

    def test_close_on_an_idle_server_does_not_wait_out_the_accept_thread(self):
        """close() must wake the thread that accepts: it used to sit through
        a whole 1 s join of a thread blocked in accept() on every teardown.
        The selector thread accepts now, and close() posts it a stop."""
        with ClusterClient(shards=1, replication=1, backend=BACKEND) as kvs:
            server = GatewayServer(kvs).start()
            (selector,) = [t for t in threading.enumerate() if t.name == "gw-selector"]
            time.sleep(0.05)  # let the thread reach select()
            began = time.monotonic()
            server.close()
            elapsed = time.monotonic() - began
        assert not selector.is_alive()
        assert elapsed < 0.5, f"close() took {elapsed:.2f}s"


class TestDeadConnection:
    def test_reset_mid_pipeline_releases_slots_and_reader(self, monkeypatch):
        """A client that resets with replies still owed: the writer used to
        stop at its first failed send, leaving the queued replies' slots held
        and the reader blocked on one forever, and close() then waited out
        the whole drain_timeout.  Now every slot comes back and the
        connection leaves the server once its replies are dropped."""
        with ClusterClient(shards=2, replication=2, backend="local") as kvs:
            server = GatewayServer(kvs, GatewaySettings(drain_timeout=3.0)).start()
            release = Future()  # every reply waits on it
            submit = server._submit

            def held_submit(command):
                future, encode = submit(command)
                return release, lambda _: encode(future.result())

            monkeypatch.setattr(server, "_submit", held_submit)
            budget = server.settings.max_inflight_per_conn
            try:
                raw = socket.create_connection(server.address, timeout=CLIENT_TIMEOUT)
                raw.sendall(b"".join(b"PUT k%d v\r\n" % i for i in range(200)))
                deadline = time.monotonic() + CLIENT_TIMEOUT
                while server.metrics()["inflight"] < budget:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert server.metrics()["connections"] == 1
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                raw.close()
                time.sleep(0.05)  # let the reset land before the first reply
                release.set_result(None)

                def leftovers():
                    metrics = server.metrics()
                    return metrics["inflight"], metrics["connections"]

                while leftovers() != (0, 0) and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert leftovers() == (0, 0)
            finally:
                began = time.monotonic()
                server.close()
            assert time.monotonic() - began < 1.0


class TestStalledClient:
    def test_a_client_that_stops_reading_holds_at_most_the_budget(self):
        """A client pipelines ~30 MB of PINGs (each echoing 80 bytes) and
        PUTs into a 4 KiB receive buffer and never reads.  The gateway stops
        reading it once its ring is full or a reply waits for the kernel, so
        the send stalls well short of 30 MB, the command count stops, and
        the connection holds at most the budget's replies.  Before, PINGs
        held no in-flight slot, the reader kept reading, and the writer's
        queue grew without bound (363,309 replies after 30.8 MB)."""
        total = 30 << 20
        ping = b"PING " + b"x" * 80 + b"\r\n"
        block = b"".join(b"PUT k v\r\n" if i % 16384 == 16383 else ping for i in range(32768))
        largest = len(encode_reply(BulkReply("x" * 80)))
        settings = GatewaySettings(drain_timeout=1.0)
        budget = settings.max_inflight_per_conn
        with ClusterClient(shards=1, replication=1, backend="local") as kvs:
            server = GatewayServer(kvs, settings).start()
            try:
                raw = socket.socket()
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                raw.connect(server.address)
                raw.setblocking(False)
                sent, progress, inflight = 0, time.monotonic(), 0
                while sent < total and time.monotonic() - progress < 1.0:
                    try:
                        sent += raw.send(block[sent % len(block):])
                        progress = time.monotonic()
                    except BlockingIOError:
                        time.sleep(0.01)
                    inflight = max(inflight, server.metrics()["inflight"])
                commands = server.metrics()["commands"]
                time.sleep(0.3)
                assert sent < total, "the gateway read the whole stream"
                assert server.metrics()["commands"] == commands
                assert inflight <= budget
                (conn,) = server._connections
                assert len(conn.ring) <= budget
                assert len(conn.out) <= budget * largest
            finally:
                began = time.monotonic()
                server.close()
                elapsed = time.monotonic() - began
                raw.close()
        assert elapsed < settings.drain_timeout + 1.0


class TestNoThreadPerConnection:
    """A gateway runs one thread, ``gw-selector``, however many connections
    it holds (an accept thread and a reader/writer pair per connection
    before: 17 threads with 8 connections), and a closed or never-started
    one holds no thread and no descriptor."""

    @staticmethod
    def descriptors():
        return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()

    def test_one_selector_thread_and_none_left_after_close(self):
        with ClusterClient(shards=1, replication=1, backend="local") as kvs:
            threads, descriptors = set(threading.enumerate()), self.descriptors()
            GatewayServer(kvs)
            assert self.descriptors() == descriptors  # never started: nothing opened
            server = GatewayServer(kvs).start()
            started = [t.name for t in set(threading.enumerate()) - threads]
            assert started == ["gw-selector"]
            clients = [GatewayClient(*server.address, timeout=CLIENT_TIMEOUT)
                       for _ in range(8)]
            for client in clients:
                assert client.ping() == "PONG"
            assert server.metrics()["connections"] == 8
            started = [t.name for t in set(threading.enumerate()) - threads]
            assert started == ["gw-selector"], started
            for client in clients:
                client.close()
            server.close()
            assert set(threading.enumerate()) - threads == set()
            deadline = time.monotonic() + CLIENT_TIMEOUT
            while self.descriptors() != descriptors and time.monotonic() < deadline:
                time.sleep(0.01)  # a socket's descriptor goes when its last ref does
            assert self.descriptors() == descriptors


class TestRepliesUnderFastThreadSwitching:
    def test_pipelining_clients_get_every_reply_in_order(self):
        """Six clients pipeline bursts of PING/PUT/GET through a budget of 3
        while the interpreter switches threads every 10 µs: the selector and
        the completing threads share each connection's ring and ``out``, so
        a lost wake-up hangs a client and a lost or reordered write breaks
        its expected replies."""
        clients, rounds, burst = 6, 20, 30
        errors = []

        def drive(server, index):
            key, last = f"c{index}", None
            try:
                with GatewayClient(*server.address, timeout=10.0) as client:
                    for round_ in range(rounds):
                        expected = []
                        for n in range(burst):
                            value = f"{round_}.{n}"
                            if n % 3 == 0:
                                client.send("PING", value)
                                expected.append(value)
                            elif n % 3 == 1:
                                client.send("PUT", key, value)
                                expected.append(last)
                                last = value
                            else:
                                client.send("GET", key)
                                expected.append(last)
                        replies = client.drain(burst)
                        assert [reply.value for reply in replies] == expected
            except BaseException as exc:  # noqa: BLE001 - reported by the test thread
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterClient(shards=2, replication=2, backend="local") as kvs:
                with GatewayServer(kvs, GatewaySettings(max_inflight_per_conn=3)) as server:
                    threads = [threading.Thread(target=drive, args=(server, index))
                               for index in range(clients)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert errors == []
                    assert server.metrics()["commands"] == clients * rounds * burst
                    assert server.metrics()["inflight"] == 0
        finally:
            sys.setswitchinterval(interval)


class TestGatewaySettings:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("port", -1),
            ("max_connections", 0),
            ("max_inflight_per_conn", 0),
            ("admission_high_water", 0),
            ("admission_low_water", -1),
            ("drain_timeout", -0.1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            GatewaySettings(**{field: value})

    def test_low_water_must_not_exceed_high_water(self):
        with pytest.raises(ValueError, match="low_water"):
            GatewaySettings(admission_high_water=10, admission_low_water=11)

    def test_low_water_defaults_to_half_the_high_water_mark(self):
        assert GatewaySettings(admission_high_water=100).low_water == 50
        assert GatewaySettings(admission_high_water=1).low_water == 1
        assert (
            GatewaySettings(admission_high_water=100, admission_low_water=7).low_water
            == 7
        )


class TestGatewayChaos:
    """The network door under injected faults: typed frames, never hangs."""

    #: Codes a client may legitimately see while the shard behind the
    #: gateway is crashing and being failed over.
    ACCEPTABLE = {ERR_FAILED, ERR_TIMEOUT, ERR_UNAVAILABLE, ERR_BUSY, ERR_FAILOVER}

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_primary_crash_fails_over_behind_the_gateway(self, seed):
        plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=0)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            kvs = ClusterClient(cluster)
            with GatewayServer(kvs) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                    acked = {}
                    for index in range(10):
                        try:
                            client.put(f"k{index}", f"v{index}")
                            acked[f"k{index}"] = f"v{index}"
                        except GatewayError as exc:
                            # Anything surfaced during the failover window
                            # must stay typed — and the window itself maps
                            # to a retryable code, never a dead connection.
                            assert exc.code in self.ACCEPTABLE, exc.code
                    # The shard failed over: the writes landed on the new
                    # head and every acked write is durable there.
                    assert cluster.promotions
                    assert cluster.promotions[0].old_primary == "shard0.r0"
                    for key, value in acked.items():
                        assert client.get(key) == value
                    health = client.health()["shard0"]
                    assert health["primary"] == cluster.promotions[-1].new_primary
                    assert health["epoch"] == cluster.promotions[-1].epoch
                    assert health["roles"][health["primary"]] == "primary"
                    # The connection itself survives typed failures.
                    assert client.ping() == "PONG"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_backup_crash_is_routed_around(self, seed):
        plan = FaultPlan(seed=seed).crash("shard0.r1", after_ops=4)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            kvs = ClusterClient(cluster)
            with GatewayServer(kvs) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                    for index in range(12):
                        client.put(f"k{index % 4}", f"v{index}")
                    # Failover replayed the in-flight writes; reads serve on.
                    assert client.get("k3") == "v11"
                    health = client.health()["shard0"]
                    assert health["replicas"]["shard0.r1"] == "down"

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_pipelined_sends_across_a_failover_all_get_replies(self, seed):
        # The raw pipelined path (send()/drain()) bypasses the client's
        # retry loop, so every slot the reader admitted must produce a
        # frame even while the shard behind the gateway is failing over —
        # and every in-flight slot must be released after its reply is on
        # the socket (the drain/accounting invariant), never leaked.
        plan = FaultPlan(seed=seed).crash("shard0.r0", after_ops=6)
        with ClusterEngine(
            shards=1, replication=2, backend=BACKEND, timeout=TIMEOUT, faults=plan
        ) as cluster:
            kvs = ClusterClient(cluster)
            with GatewayServer(kvs) as server:
                host, port = server.address
                with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                    count = 24
                    for index in range(count):
                        client.send("PUT", f"k{index % 4}", f"v{index}")
                    replies = client.drain(count)
                    assert len(replies) == count  # one frame per send, in order
                    for reply in replies:
                        if isinstance(reply, ErrorReply):
                            assert reply.code in self.ACCEPTABLE, reply
                        else:
                            assert isinstance(reply, BulkReply)
                    assert cluster.promotions  # the head fell mid-pipeline
                    # Every slot was released after its sendall: no leaks.
                    deadline = time.monotonic() + CLIENT_TIMEOUT
                    while server.metrics()["inflight"] and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert server.metrics()["inflight"] == 0
                    # The connection serves on against the promoted head.
                    assert client.put("after", "failover") is None
                    assert client.get("after") == "failover"

    def test_call_retry_rides_out_a_failover_frame(self, stack):
        # Deterministic pin of the FAILOVER retry path: the first attempt
        # surfaces a stale-epoch-rooted failure (the promotion window), the
        # client sees the retryable FAILOVER frame and resends, and the
        # resend lands on the current binding.
        server, _client = stack
        cluster = server.client.cluster
        real = cluster.submit_put
        calls = [0]

        def fenced_once(key, value):
            calls[0] += 1
            if calls[0] == 1:
                raise ChoreographyRuntimeError("shard0.r0", StaleEpoch(0, 1))
            return real(key, value)

        cluster.submit_put = fenced_once
        host, port = server.address
        with GatewayClient(host, port, timeout=CLIENT_TIMEOUT, retries=2) as client:
            assert client.put("fenced", "ok") is None
            assert calls[0] == 2  # FAILOVER frame, then the resend landed
            assert client.get("fenced") == "ok"

    def test_cluster_closed_surfaces_as_unavailable(self):
        kvs = ClusterClient(shards=1, replication=2, backend=BACKEND)
        with GatewayServer(kvs) as server:
            host, port = server.address
            with GatewayClient(host, port, timeout=CLIENT_TIMEOUT) as client:
                assert client.put("k", "v") is None
                kvs.close()
                with pytest.raises(GatewayError) as excinfo:
                    client.get("k")
                assert excinfo.value.code == ERR_UNAVAILABLE
