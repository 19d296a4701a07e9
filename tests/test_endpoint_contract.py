"""One contract, every endpoint stack.

``TransportEndpoint`` defines ``send`` / ``send_many`` / ``recv`` /
``recv_tagged`` once, over the two frame primitives each transport (or
wrapper) implements.  This suite drives one scripted exchange through every
stack a transport's ``_make_endpoint`` can produce and requires the same
transcript, the same ``ChannelStats`` and the same typed peer-check errors
from all of them.
"""

from __future__ import annotations

import pytest

from repro.core.errors import TransportError
from repro.faults import FaultPlan
from repro.runtime import transport as transport_module
from repro.runtime.asyncio_tcp import AsyncioTCPTransport
from repro.runtime.local import LocalTransport
from repro.runtime.simulated import SimulatedNetworkTransport
from repro.runtime.tcp import TCPTransport
from repro.runtime.transport import serialize

CENSUS = ["a", "b", "c", "d"]
PAYLOAD = {"shares": [True, False, True], "round": 3}

#: An empty plan injects nothing: the fault wrapper must be a pure pass-through.
STACKS = {
    "local": lambda: LocalTransport(CENSUS, timeout=5.0),
    "tcp": lambda: TCPTransport(CENSUS, timeout=5.0),
    "asyncio": lambda: AsyncioTCPTransport(CENSUS, timeout=5.0),
    "simulated": lambda: SimulatedNetworkTransport(CENSUS, timeout=5.0),
    "tcp+faults": lambda: TCPTransport(CENSUS, timeout=5.0, faults=FaultPlan(seed=1)),
    "simulated+faults": lambda: SimulatedNetworkTransport(
        CENSUS, timeout=5.0, faults=FaultPlan(seed=1)
    ),
}

#: a → b, in send order: (instance tag, payload).  Tags 1 and 2 interleave
#: (per-pair FIFO must hold across instances); a 1-byte boolean share must be
#: recorded as 1 byte whatever its tag.
TAGGED = [
    (7, True),
    (1, "x1"),
    (2, "y1"),
    (1, "x2"),
    (2, "y2"),
    (9, b"bytes"),
    (7, "scoped-payload"),
]


@pytest.fixture
def serialize_calls(monkeypatch):
    """Every ``serialize`` call the endpoints make (it is called in one module)."""
    calls = []

    def counting(payload):
        calls.append(payload)
        return serialize(payload)

    monkeypatch.setattr(transport_module, "serialize", counting)
    return calls


def run_script(make_transport):
    """Drive the scripted exchange; return (transcript, message counts, bytes)."""
    with make_transport() as transport:
        ends = {location: transport.endpoint(location) for location in CENSUS}
        a, b = ends["a"], ends["b"]
        for instance, payload in TAGGED:
            a.send("b", payload, instance=instance)
        a.send_many(["b"], PAYLOAD, instance=300)  # a two-byte varint tag
        a.send("b", "plain")  # untagged sends read back as tag 0
        a.send_many(["b", "c", "d"], PAYLOAD, instance=5)
        a.send_many(["c", "d"], "untagged-broadcast")
        b.send("a", "reply")
        a.flush()
        b.flush()
        transcript = {
            "b": [b.recv_tagged("a") for _ in range(len(TAGGED) + 3)],
            "c": [ends["c"].recv_tagged("a"), ends["c"].recv("a")],
            "d": [ends["d"].recv_tagged("a"), ends["d"].recv("a")],
            "a": [a.recv("b")],
        }
        return transcript, transport.stats.snapshot(), dict(transport.stats.payload_bytes)


EXPECTED_TRANSCRIPT = {
    "b": TAGGED + [(300, PAYLOAD), (0, "plain"), (5, PAYLOAD)],
    "c": [(5, PAYLOAD), "untagged-broadcast"],
    "d": [(5, PAYLOAD), "untagged-broadcast"],
    "a": ["reply"],
}


def expected_bytes():
    broadcast = len(serialize(PAYLOAD)) + len(serialize("untagged-broadcast"))
    to_b = sum(len(serialize(payload)) for _tag, payload in TAGGED)
    to_b += len(serialize("plain")) + 2 * len(serialize(PAYLOAD))
    return {
        ("a", "b"): to_b,
        ("a", "c"): broadcast,
        ("a", "d"): broadcast,
        ("b", "a"): len(serialize("reply")),
    }


@pytest.mark.parametrize("stack", STACKS)
def test_scripted_exchange(stack, serialize_calls):
    transcript, messages, payload_bytes = run_script(STACKS[stack])
    # Every stack is held to the same literals, so all six agree with each other.
    assert transcript == EXPECTED_TRANSCRIPT
    assert messages == {
        ("a", "b"): len(TAGGED) + 3, ("a", "c"): 2, ("a", "d"): 2, ("b", "a"): 1,
    }
    # The tag rides beside the payload, never inside it: recorded bytes are
    # exactly each payload's serialization, once per receiver.
    assert payload_bytes == expected_bytes()
    # One serialize per send *call*: a 3-receiver broadcast shares one, and no
    # wrapper layer (clock stamp, fault injection) encodes a second time.
    assert len(serialize_calls) == len(TAGGED) + 5


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("bad", ["a", "mallory"], ids=["self", "non-census"])
def test_bad_peer_is_rejected_before_anything_happens(stack, bad, serialize_calls):
    with STACKS[stack]() as transport:
        ends = {location: transport.endpoint(location) for location in CENSUS}
        a = ends["a"]
        with pytest.raises(TransportError, match="unknown receiver"):
            a.send(bad, 1)
        with pytest.raises(TransportError, match="unknown receiver"):
            a.send_many(["b", bad, "c"], 1)  # all-or-nothing: b gets no frame
        with pytest.raises(TransportError, match="unknown sender"):
            a.recv(bad)
        assert serialize_calls == []
        assert transport.stats.total_messages == 0
        # Nothing was buffered: the first frame b sees is the one sent next.
        a.send("b", "first")
        a.flush()
        assert ends["b"].recv("a") == "first"
        assert transport.stats.snapshot() == {("a", "b"): 1}
