"""The per-layer cost ladder: one reference request issued at each boundary.

The reference PUT (16-byte key, 64-byte value, 1 shard, replication 3) and
the reference GMW run are issued sequentially at every layer boundary in
turn, from outside, by timing calls into each layer's public functions.  A
layer's *self* time is its rung minus the rung beneath it.  Every call is a
span whose ``req`` is the iteration and whose ``parent`` is the rung above,
so iteration *i* reads top-down like one request's trace.

All rungs are built first and then measured in interleaved rounds: the host
this runs on switches between two CPU speeds for seconds at a time, and a
rung measured start-to-finish inside one speed would sit ~25 % off its
neighbours, turning the differences between rungs into noise.  Rounds of
hundreds of calls, not single calls in turn: a call that follows another
rung's runs on cold caches and reads up to 2x slow.  The exception is the
three rungs that ride one live tcp cluster - engine, cluster, gateway:
``cluster.put_us`` is ~2 % above ``runtime.engine.put_us.tcp``, which rounds
measured apart cannot resolve (they read +13, -2 and +24 us), so the three
take turns call by call on the system they share, equally warm, and their
differences repeat to a few microseconds.
Each call is also scaled by a host speed reading at most 50 ms old (see
``harness.host_speed_factor``), like every other time the benchmark reports.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterClient, ClusterEngine
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    command_from_args,
    encode_command,
    encode_reply,
    parse_command,
    parse_reply,
    reply_for_response,
)
from repro.protocols import circuits
from repro.protocols.crypto import generate_rsa_keypair
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, Response
from repro.runtime import wire
from repro.runtime.asyncio_tcp import AsyncioTCPTransport
from repro.runtime.engine import ChoreoEngine
from repro.runtime.framing import FrameParser, FrameWriter
from repro.runtime.local import LocalTransport
from repro.runtime.tcp import TCPTransport
from repro.storage import DurableState

import harness
from workloads import GMW_CIRCUIT, PARTIES, RSA_BITS, gmw_run, make_value

KEY = "ref:%012d" % 0          # 16 bytes
VALUE = "v" * 64               # 64 bytes
ROUNDS = 8                     # interleaved passes over all rungs
WARMUP_SHARE = 0.1             # of each rung's calls, discarded first
READING_GOOD_NS = 50_000_000   # how long one host speed reading is used

Metric = Tuple[float, str]


@dataclass
class Rung:
    name: str
    layer: str
    parent: Optional[str]       # the rung above, for the span tree
    calls: int
    call: Callable[[int], object]
    unit: str = "us"
    together: bool = False      # takes turns, call by call, with the rung before it
    taken_ns: List[float] = field(default_factory=list)


def build_rungs(stack: contextlib.ExitStack, put_calls: int, gmw_calls: int,
                scratch: str) -> Tuple[List[Rung], DurableState]:
    """Stand every layer up (closed again by ``stack``) and list its rung."""
    rungs: List[Rung] = []

    def add(name: str, layer: str, parent: Optional[str], calls: int,
            call: Callable[[int], object], unit: str = "us", together: bool = False) -> None:
        rungs.append(Rung(name, layer, parent, calls, call, unit, together))

    payload = Request.put(KEY, VALUE)

    # -- codecs ---------------------------------------------------------------
    add("runtime.wire.codec_us", "runtime.wire", "runtime.framing.frame_us", put_calls,
        lambda _i: wire.decode(wire.encode(payload)))
    writer, parser, body = FrameWriter("client"), FrameParser(), wire.encode(payload)
    add("runtime.framing.frame_us", "runtime.framing", "runtime.tcp.hop_us", put_calls,
        lambda i: parser.feed(writer.header(len(body), i) + body))
    reply = reply_for_response(Response.found(VALUE))

    def gateway_codec(_i: int) -> None:
        args, _end = parse_command(encode_command(("PUT", KEY, VALUE)))
        command_from_args(args)
        parse_reply(encode_reply(reply))

    add("gateway.protocol.codec_us", "gateway.protocol", "gateway.put_us", put_calls,
        gateway_codec)
    add("protocols.crypto.keygen_us", "protocols.crypto", "core.central.gmw_ms",
        max(gmw_calls, put_calls // 10),
        lambda i: generate_rsa_keypair(random.Random(i), RSA_BITS))

    # -- one hop between two warm endpoints -----------------------------------
    for label, factory in (("local", LocalTransport), ("tcp", TCPTransport),
                           ("asyncio_tcp", AsyncioTCPTransport)):
        transport = factory(["a", "b"], timeout=10.0)
        stack.callback(transport.close)
        sender, receiver = transport.endpoint("a"), transport.endpoint("b")

        def hop(_i: int, sender=sender, receiver=receiver) -> None:
            sender.send("b", payload)
            sender.flush()
            receiver.recv("a")

        engine_rung = "asyncio" if label == "asyncio_tcp" else label
        add(f"runtime.{label}.hop_us", f"runtime.{label}",
            f"runtime.engine.put_us.{engine_rung}", put_calls, hop)

    # -- the reference PUT: core → engine → cluster → gateway ------------------
    above = {"central": "runtime.engine.put_us.local", "local": "runtime.engine.put_us.tcp",
             "asyncio": None, "tcp": "cluster.put_us"}
    for backend in ("central", "local", "asyncio", "tcp"):
        cluster = stack.enter_context(ClusterEngine(1, replication=3, backend=backend))
        session = cluster.session(cluster.shards[0])
        add("core.central.put_us" if backend == "central"
            else f"runtime.engine.put_us.{backend}",
            "core" if backend == "central" else "runtime.engine", above[backend], put_calls,
            lambda _i, s=session: s.engine.run(s.put, args=(KEY, VALUE)))
    # The upper rungs ride the very tcp engine measured above.
    add("cluster.put_us", "cluster", "gateway.put_us", put_calls,
        lambda _i: cluster.submit_put(KEY, VALUE).result(), together=True)
    server = stack.enter_context(GatewayServer(ClusterClient(cluster)))
    client = stack.enter_context(GatewayClient(*server.address, timeout=10.0))
    add("gateway.put_us", "gateway", None, put_calls, lambda _i: client.put(KEY, VALUE),
        together=True)

    # -- the reference GMW run: same inputs and crypto seeds at every rung ------
    inputs = {party: {"x": True} for party in PARTIES}
    expected = circuits.evaluate_plain(GMW_CIRCUIT, inputs)

    def gmw_central(op, all_inputs, *, seed=0):
        # ``central`` runs the body once for the whole census and rejects
        # location_args, so every party's inputs ride in one mapping.
        return gmw(op, PARTIES, GMW_CIRCUIT, all_inputs, seed=seed, rsa_bits=RSA_BITS)

    def check(ok: bool) -> None:
        if not ok:
            raise AssertionError("reference GMW run returned the wrong bit")

    central = stack.enter_context(ChoreoEngine(PARTIES, backend="central"))
    add("core.central.gmw_ms", "core", "runtime.engine.gmw_ms.local", gmw_calls,
        lambda i: check(set(central.run(
            gmw_central, args=(inputs,), kwargs={"seed": i}
        ).returns.values()) == {expected}), "ms")
    for backend in ("local", "tcp", "asyncio"):
        engine = stack.enter_context(ChoreoEngine(PARTIES, backend=backend, timeout=20.0))
        add(f"runtime.engine.gmw_ms.{backend}", "runtime.engine",
            "runtime.engine.gmw_ms.tcp" if backend == "local" else None, gmw_calls,
            lambda i, e=engine: check(gmw_run(e, inputs, i)), "ms")

    # -- storage ----------------------------------------------------------------
    # Distinct keys and incompressible values, so bytes on disk compare with
    # bytes written.
    grown = DurableState(os.path.join(scratch, "append"), fsync="batch")
    stack.callback(grown.close)
    noise = random.Random(0)

    def append(_i: int) -> None:
        grown["ref:%012d" % len(grown)] = make_value(noise)

    add("storage.wal.append_us", "storage", "cluster.put_us", put_calls, append)

    # Replay: a WAL-only store (no snapshot ever taken) reopened cold.
    replayed = os.path.join(scratch, "replay")
    log_only = DurableState(replayed, fsync="batch", snapshot_every=1 << 30)
    for index in range(put_calls):
        log_only["ref:%012d" % index] = VALUE
    log_only.close()

    def reopen(_i: int) -> None:
        again = DurableState(replayed, fsync="batch", snapshot_every=1 << 30)
        records = again.replayed_records
        again.close()
        if records != put_calls:
            raise AssertionError(f"replayed {records} of {put_calls} WAL records")

    add("storage.replay_us", "storage", None, ROUNDS, reopen)
    return rungs, grown


def run_ladder(spans: harness.Spans, put_calls: int, gmw_calls: int) -> Dict[str, Metric]:
    """Measure every rung; return ``name -> (median, unit)`` plus self times."""
    scratch = tempfile.mkdtemp(prefix="ladder-", dir=harness.OUT_DIR)
    clock = time.perf_counter_ns
    try:
        with contextlib.ExitStack() as stack:
            rungs, grown = build_rungs(stack, put_calls, gmw_calls, scratch)
            for rung in rungs:
                for index in range(max(1, int(rung.calls * WARMUP_SHARE))):
                    rung.call(index)
            slots: List[List[Rung]] = []
            for rung in rungs:
                if rung.together:
                    slots[-1].append(rung)
                else:
                    slots.append([rung])
            stale_at = 0
            for turn in range(ROUNDS):
                for slot in slots:
                    calls = slot[0].calls
                    for index in range(turn * calls // ROUNDS, (turn + 1) * calls // ROUNDS):
                        for rung in slot:
                            if clock() >= stale_at:
                                factor = harness.host_speed_factor()
                                stale_at = clock() + READING_GOOD_NS
                            start = clock()
                            rung.call(index)
                            end = clock()
                            rung.taken_ns.append((end - start) / factor)
                            spans.record(rung.name, rung.layer, index, rung.parent, start, end)
        appended = os.path.join(scratch, "append")
        on_disk = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _dirs, names in os.walk(appended) for name in names
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics: Dict[str, Metric] = {
        rung.name: (statistics.median(rung.taken_ns) / (1e6 if rung.unit == "ms" else 1e3),
                    rung.unit)
        for rung in rungs
    }
    metrics["storage.bytes_per_user_byte"] = (
        on_disk / (len(grown) * (len(KEY) + len(VALUE))), "ratio")
    metrics["storage.replay_us_per_record"] = (
        metrics.pop("storage.replay_us")[0] / put_calls, "us")

    def derive(name: str, upper: str, lower: str) -> None:
        """A layer's self time: its rung minus the rung beneath it."""
        metrics[name] = (metrics[upper][0] - metrics[lower][0], metrics[upper][1])

    for backend in ("local", "tcp", "asyncio"):
        derive(f"runtime.engine.self_us.{backend}",
               f"runtime.engine.put_us.{backend}", "core.central.put_us")
        derive(f"runtime.engine.gmw_self_ms.{backend}",
               f"runtime.engine.gmw_ms.{backend}", "core.central.gmw_ms")
    for backend in ("tcp", "asyncio"):
        derive(f"runtime.transport.self_us.{backend}",
               f"runtime.engine.put_us.{backend}", "runtime.engine.put_us.local")
    derive("cluster.self_us", "cluster.put_us", "runtime.engine.put_us.tcp")
    derive("gateway.self_us", "gateway.put_us", "cluster.put_us")
    return metrics
