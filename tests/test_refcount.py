"""Count guard: a finished request leaves no reference cycle behind.

CPython frees an object the moment its last reference goes, unless the
object sits in a reference cycle; cycles wait for the cyclic collector,
whose pauses land on whichever request happens to allocate past a
generation's threshold.  So the cluster and the gateway keep every
per-request structure acyclic.  Each workload below runs warm, with the
collector off and ``gc.DEBUG_SAVEALL`` on, and ``gc.collect()`` must then
find nothing: every Future, callback and answer was already freed by
refcount.
"""

from __future__ import annotations

import gc

from repro import ClusterClient, ClusterEngine
from repro.gateway import GatewayClient, GatewayServer
from repro.protocols.kvs import Request


def _cyclic_garbage(workload) -> int:
    """How many objects ``workload()`` left in reference cycles."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        workload()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _local_mix(cluster: ClusterEngine) -> None:
    cluster.submit_put("a", "1").result(timeout=30.0)
    cluster.submit_get("a").result(timeout=30.0)
    cluster.submit_delete("a").result(timeout=30.0)
    for future in [cluster.submit_put(f"p{index}", "v") for index in range(8)]:
        future.result(timeout=30.0)
    for future in cluster.submit_batch([Request.put("b", "x"), Request.get("a"),
                                        Request.delete("b")]):
        future.result(timeout=30.0)
    for future in cluster.submit_batch([Request.get("p0"), Request.get("nope")]):
        future.result(timeout=30.0)
    cluster.submit_batch_answers([Request.put(f"p{index}", "w") for index in range(4)]
                                 + [Request.get("p1"), Request.get("nope")]).result(timeout=30.0)
    assert cluster.submit_txn([Request.put("t0", "1"), Request.put("t1", "2")]).result(
        timeout=30.0).committed
    for future in cluster.submit_scan("p").values():
        future.result(timeout=30.0)


def _gateway_mix(client: GatewayClient) -> None:
    client.put("a", "1")
    assert client.get("a") == "1"
    client.batch([Request.put("b", "x"), Request.get("a"), Request.delete("b")])
    client.scan("a")
    client.txn([Request.put("t0", "1"), Request.put("t1", "2")])
    client.delete("a")


class TestRequestsDieByRefcount:
    def test_a_warm_local_cluster_leaves_no_cycles(self):
        with ClusterEngine(2, replication=3, backend="local") as cluster:
            _local_mix(cluster)  # warm: every binding exists
            cluster.in_doubt()  # and the warm-up's decides are delivered
            assert _cyclic_garbage(lambda: _local_mix(cluster)) == 0

    def test_a_gateway_round_leaves_no_cycles(self):
        with ClusterClient(shards=2, replication=2, backend="tcp") as kvs:
            with GatewayServer(kvs) as server:
                with GatewayClient(*server.address, timeout=20.0) as client:
                    _gateway_mix(client)
                    assert _cyclic_garbage(lambda: _gateway_mix(client)) == 0
