"""Tests for the simulated-latency transport and its critical-path model."""

from __future__ import annotations

import pytest

from repro import ChoreoEngine
from repro.protocols.kvs import Request, kvs_serve
from repro.runtime.simulated import SimulatedNetworkTransport


def run_once(chor, census, args=(), *, backend):
    """One instance of ``chor`` on a throwaway engine."""
    with ChoreoEngine(census, backend=backend) as engine:
        return engine.run(chor, args)


def ping_chain(op, hops):
    """A purely sequential chain of communications: latency must add up."""
    value = op.locally(hops[0], lambda _un: 0)
    for previous, current in zip(hops, hops[1:]):
        arrived = op.comm(previous, current, value)
        value = op.locally(current, lambda un, _a=arrived: un(_a) + 1)
    return op.broadcast(hops[-1], value)


def star_broadcast(op, centre, leaves):
    """One multicast: all deliveries overlap, latency must not add up."""
    value = op.locally(centre, lambda _un: "hi")
    op.multicast(centre, leaves, value)


class TestSimulatedTransport:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SimulatedNetworkTransport(["a", "b"], latency=-1)
        with pytest.raises(ValueError):
            SimulatedNetworkTransport(["a", "b"], bandwidth=0)

    def test_sequential_chain_accumulates_latency(self):
        hops = ["n0", "n1", "n2", "n3"]
        transport = SimulatedNetworkTransport(hops, latency=1.0, bandwidth=1e9)
        result = run_once(ping_chain, hops, args=(hops,), backend=transport)
        assert set(result.returns.values()) == {len(hops) - 1}
        # 3 sequential hops + the final broadcast (1 more hop on the critical path)
        assert transport.critical_path == pytest.approx(4.0, abs=1e-6)
        transport.close()

    def test_broadcast_latency_does_not_accumulate(self):
        census = ["centre", "l1", "l2", "l3", "l4"]
        transport = SimulatedNetworkTransport(census, latency=1.0, bandwidth=1e9)
        run_once(
            star_broadcast, census, args=("centre", census[1:]), backend=transport
        )
        # four deliveries, but they all overlap: one latency unit total
        assert transport.critical_path == pytest.approx(1.0, abs=1e-6)
        assert transport.stats.total_messages == 4
        transport.close()

    def test_bandwidth_term_charges_large_payloads(self):
        census = ["a", "b"]

        def send_blob(op):
            blob = op.locally("a", lambda _un: "x" * 10_000)
            return op.comm("a", "b", blob)

        slow = SimulatedNetworkTransport(census, latency=0.0, bandwidth=1_000.0)
        run_once(send_blob, census, backend=slow)
        fast = SimulatedNetworkTransport(census, latency=0.0, bandwidth=1_000_000.0)
        run_once(send_blob, census, backend=fast)
        assert slow.critical_path > fast.critical_path
        slow.close()
        fast.close()

    def test_clocks_exposed_per_endpoint(self):
        census = ["a", "b", "c"]
        transport = SimulatedNetworkTransport(census, latency=2.0)

        def chor(op):
            op.comm("a", "b", op.locally("a", lambda _un: 1))

        run_once(chor, census, backend=transport)
        clocks = transport.clocks()
        assert clocks["b"] == pytest.approx(2.0, abs=1e-3)
        assert clocks["c"] == 0.0
        transport.close()

    @pytest.mark.parametrize("small,large,slack", [(2, 6, 2.0), (1, 8, 3.0)])
    def test_kvs_latency_scales_with_request_count_not_cluster_size(
        self, small, large, slack
    ):
        """The KVS critical path is dominated by the request/response chain;
        adding servers adds parallel work, not sequential latency."""
        workload = [Request.put("k", "v"), Request.get("k"), Request.stop()]

        def critical_path(n_servers):
            servers = [f"s{i}" for i in range(1, n_servers + 1)]
            census = ["client"] + servers
            transport = SimulatedNetworkTransport(census, latency=1.0, bandwidth=1e9)
            run_once(
                lambda op: kvs_serve(op, "client", servers[0], servers, workload),
                census,
                backend=transport,
            )
            transport.close()
            return transport.critical_path

        few, many = critical_path(small), critical_path(large)
        assert many <= few + slack  # near-flat in the number of servers
        assert few >= 2 * len(workload)  # at least request+response per request
