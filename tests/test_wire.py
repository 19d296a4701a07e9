"""The wire codec (``repro.runtime.wire``) against what it promises.

* **Byte identity.**  Every payload the codec does not record-encode gets
  exactly the bytes of the frozen reference encoder in
  ``tests/wire_reference.py`` (the encoder before records and the rewritten
  fast path), so WAL records, snapshots and every non-KVS message are
  unchanged on disk and on the wire.  A store directory written by that
  encoder (``tests/data/parent_store``) reopens and replays to its state.
* **Records.**  An exact ``Request`` / ``Response`` whose fields are ``str``
  or ``None`` is a ``q`` / ``r`` record; anything else, subclasses included,
  keeps the pickle fallback.
* **Typed errors.**  ``wire.decode`` raises ``ValueError`` and nothing else,
  pinned by byte literals and by a byte-level fuzz target.  Pickle-tagged
  bytes are fuzzed only once their unpickler is restricted: today a crafted
  ``P`` payload can make ``pickle.loads`` allocate without bound.
* **The count guard.**  A warm replicated cluster calls ``pickle.dumps`` /
  ``pickle.loads`` zero times.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sys
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ChoreoEngine, ClusterEngine
from repro.protocols import circuits
from repro.protocols.gmw import gmw
from repro.protocols.kvs import Request, RequestKind, Response, ResponseKind
from repro.runtime import wire
from repro.storage import DurableState, Durability, EphemeralState

from tests import wire_reference as reference

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def holds_a_record(payload) -> bool:
    """Whether the codec may record-encode some part of ``payload``."""
    if type(payload) in (Request, Response):
        return True
    if type(payload) in (tuple, list):
        return any(holds_a_record(item) for item in payload)
    if type(payload) is dict:
        return any(holds_a_record(item) for pair in payload.items() for item in pair)
    return False


# ------------------------------------------------------------------ payloads --

EDGE_INTS = [0, 63, -64, 64, -65, 127, 128, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
             2**64, -(2**64), 2**200 + 1]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),
    st.text(max_size=24),
    st.text(min_size=100, max_size=200),
    st.sampled_from(["\ud800", "a\udfffb", "\udc80" * 3]),  # lone surrogates
    st.binary(max_size=24),
    st.binary(min_size=120, max_size=300),
)

keys = st.one_of(st.text(max_size=8), st.integers(), st.tuples(st.integers(), st.text(max_size=3)))

payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)

#: Near and past the element budget, one level and two levels deep.
budget_edges = st.one_of(
    st.lists(st.integers(-100, 100), min_size=wire.MAX_FAST_ITEMS - 2,
             max_size=wire.MAX_FAST_ITEMS + 2),
    st.lists(st.lists(st.booleans(), min_size=40, max_size=44), min_size=3, max_size=3),
    st.dictionaries(st.integers(), st.text(max_size=3), min_size=60, max_size=68).map(
        lambda d: (d, list(d))),
    st.integers(0, 130).map(lambda depth: _nest(depth)),
)


def _nest(depth: int):
    payload = None
    for _ in range(depth):
        payload = [payload]
    return payload


requests = st.builds(
    Request, st.sampled_from(list(RequestKind)), st.none() | st.text(max_size=20),
    st.none() | st.text(max_size=150),
)
responses = st.builds(Response, st.sampled_from(list(ResponseKind)),
                      st.none() | st.text(max_size=150))


# ------------------------------------------------------------ byte identity --


class TestByteIdentityWithTheReferenceEncoder:
    @given(payloads)
    @SETTINGS
    def test_nested_payloads(self, payload):
        assert wire.encode(payload) == reference.encode(payload)

    @given(budget_edges)
    @settings(SETTINGS, max_examples=30)
    def test_element_budget_edges(self, payload):
        assert wire.encode(payload) == reference.encode(payload)

    @pytest.mark.parametrize("payload", EDGE_INTS + [float("nan"), -0.0, float("inf")])
    def test_scalar_edges(self, payload):
        for shape in (payload, [payload], (payload, "k"), {"k": payload}):
            assert wire.encode(shape) == reference.encode(shape)
            if payload == payload:  # NaN is not equal to itself
                assert wire.decode(wire.encode(shape)) == shape

    def test_workload_payloads(self, traffic):
        """One payload of each shape the four workloads send or log."""
        shapes = {}
        for payload in traffic.payloads:
            shapes.setdefault(_shape(payload), payload)
        recorded = [p for p in shapes.values() if holds_a_record(p)]
        plain = [p for p in shapes.values() if not holds_a_record(p)]
        assert recorded and len(plain) > 10
        for payload in plain:
            assert wire.encode(payload) == reference.encode(payload), payload
        for payload in recorded:
            assert wire.decode(wire.encode(payload)) == payload

    def test_a_store_written_before_records_replays(self, tmp_path):
        """``tests/data/parent_store`` was written by the reference encoder's
        codebase from ``STORE_OPS`` (snapshot after record 10, two WAL records
        after it); reopening it must rebuild exactly what applying the same
        records to a fresh store builds."""
        directory = tmp_path / "store"
        shutil.copytree(os.path.join(os.path.dirname(__file__), "data", "parent_store"),
                        directory)
        expected = EphemeralState()
        for op in STORE_OPS:
            expected.apply(op)
        reopened = DurableState(directory, snapshot_every=5)
        try:
            assert dict(reopened) == dict(expected)
            assert reopened.txns == expected.txns
            assert (reopened.txn_tick, reopened.shard_epoch, reopened.promoted_head) == (
                expected.txn_tick, expected.shard_epoch, expected.promoted_head)
            assert (reopened.high_water, reopened.replayed_records) == (12, 2)
        finally:
            reopened.close()


STORE_OPS = [
    ("put", "alpha", "1"),
    ("put", "beta", "β" * 3),
    ("put", "long", "x" * 200),
    ("del", "alpha"),
    ("promote", 2, "r1"),
    ("txn_prepare", "t1", {"alpha": "9", "beta": None}, True),
    ("txn_prepare", "t2", {"gamma": "3"}, False),
    ("txn_decide", "t1", "commit", {"alpha": "9", "beta": None}),
    ("put", "big", "y" * 300),
    ("txn_prepare", "t3", {"delta": "4"}, True),
    ("put", "gamma", "z"),
    ("del", "nope"),
]


def _shape(payload):
    kind = type(payload)
    if kind in (tuple, list):
        return (kind.__name__, tuple(_shape(item) for item in payload))
    if kind is dict:
        return ("dict", tuple(sorted({(_shape(k), _shape(v)) for k, v in payload.items()},
                                     key=repr)))
    if kind in (Request, Response):
        return (kind.__name__, payload.kind, type(payload.value).__name__)
    return kind.__name__


# ------------------------------------------------------------------- records --


class TestRecords:
    @pytest.mark.parametrize("payload, encoded", [
        (Request.put("k", "v" * 8), b"q\x00s\x01ks\x08vvvvvvvv"),
        (Request.get("k"), b"q\x01s\x01kN"),
        (Request.delete("k"), b"q\x02s\x01kN"),
        (Request.stop(), b"q\x03NN"),
        (Response.found("x"), b"r\x00s\x01x"),
        (Response.not_found(), b"r\x01N"),
        (Response.stopped(), b"r\x02N"),
        ((3, Request.get("k")), b"t\x02i\x06q\x01s\x01kN"),
    ])
    def test_the_record_bytes(self, payload, encoded):
        assert wire.encode(payload) == encoded
        assert wire.decode(encoded) == payload

    @given(st.one_of(requests, responses, st.lists(requests | responses, max_size=8)))
    @SETTINGS
    def test_records_round_trip(self, payload):
        encoded = wire.encode(payload)
        assert encoded[:1] in (b"q", b"r", b"l")
        decoded = wire.decode(encoded)
        assert decoded == payload
        if type(payload) is not list:
            payload, decoded = [payload], [decoded]
        assert [type(item) for item in decoded] == [type(item) for item in payload]

    def test_a_record_charges_its_fields_to_the_budget(self):
        # A list of n requests charges n + 3n: 32 fit in 128, 33 do not.
        assert wire.encode([Request.get("k")] * 32)[:1] == b"l"
        assert wire.encode([Request.get("k")] * 33)[:1] == b"P"
        assert wire.encode([Response.found("v")] * 42 + [1])[:1] == b"l"
        assert wire.encode([Response.found("v")] * 43)[:1] == b"P"

    @pytest.mark.parametrize("payload", [
        Request(RequestKind.PUT, "k", 5),          # a field that is not a str
        Request("put", "k", "v"),                  # a kind outside RequestKind
        Response(ResponseKind.FOUND, b"v"),
        Request.put("k", "\ud800"),                # a lone surrogate
    ])
    def test_other_field_values_keep_the_pickle_fallback(self, payload):
        encoded = wire.encode(payload)
        assert encoded == reference.encode(payload)
        assert encoded[:1] == b"P" and wire.decode(encoded) == payload

    def test_subclasses_keep_the_pickle_fallback_and_their_class(self):
        for payload in (TracedRequest(RequestKind.GET, "k"),
                        TracedResponse(ResponseKind.FOUND, "v")):
            encoded = wire.encode([payload])
            assert encoded == reference.encode([payload]) and encoded[:1] == b"P"
            (decoded,) = wire.decode(encoded)
            assert type(decoded) is type(payload) and decoded == payload


@dataclass(frozen=True)
class TracedRequest(Request):
    trace: str = "t"


@dataclass(frozen=True)
class TracedResponse(Response):
    trace: str = "t"


# -------------------------------------------------------------- typed errors --


class TestDecodeRaisesOnlyValueError:
    @pytest.mark.parametrize("data, message", [
        (b"", "truncated"),
        (b"P", "pickled"),
        (b"Pxyz", "pickled"),
        (b"s\x05ab", "truncated"),
        (b"b\x05ab", "truncated"),
        (b"I\x05ab", "truncated"),
        (b"s\x80\x01ab", "truncated"),
        (b"i", "truncated"),
        (b"f\x00", "truncated"),
        (b"l\x03N", "truncated"),
        (b"t\x02s\x01", "truncated"),
        (b"q", "truncated"),
        (b"q\x00s\x01k", "truncated"),
        (b"q\x04NN", "kind 4 out of range"),
        (b"r\x03N", "kind 3 out of range"),
        (b"q\x00i\x02N", "field tag 105 is not s or N"),
        (b"r\x00T", "field tag 84 is not s or N"),
        (b"l\x01P", "unknown wire tag"),
        (b"NN", "trailing bytes"),
    ])
    def test_malformed_bytes(self, data, message):
        with pytest.raises(ValueError, match=message):
            wire.decode(data)

    @given(st.one_of(
        st.binary(max_size=48),
        st.tuples(payloads | requests | responses, st.integers(0, 2**16),
                  st.integers(0, 255), st.sampled_from(["cut", "flip", "insert"])).map(
            lambda drawn: _mutate(*drawn)),
    ).filter(lambda data: data[:1] != b"P"))
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    def test_fuzz_yields_a_value_or_value_error(self, data):
        try:
            wire.decode(data)
        except ValueError:
            pass


def _mutate(payload, at: int, byte: int, how: str) -> bytes:
    data = bytearray(wire.encode(payload))
    at %= len(data) + 1
    if how == "cut":
        del data[at:]
    elif how == "flip" and at < len(data):
        data[at] = byte
    else:
        data[at:at] = bytes((byte,))
    return bytes(data)


class _Reduces:
    """Pickles as a call of ``function(*args)``, as a hostile peer's pickle may."""

    def __init__(self, function, *args):
        self.function, self.args = function, args

    def __reduce__(self):
        return self.function, self.args


class TestThePickleDoor:
    """A ``P`` payload names only the classes the wire carries; a pickle that
    would call anything else is refused with ValueError before it runs."""

    def test_a_pickle_calling_os_system_is_refused_without_running(self, monkeypatch):
        data = b"P" + pickle.dumps(_Reduces(os.system, "exit 3"))
        assert b"system" in data
        ran = []
        # Where the pickle names it (posix.system on Linux): a widened door runs this.
        monkeypatch.setattr(sys.modules[os.system.__module__], "system",
                            lambda command: ran.append(command) or 0)
        with pytest.raises(ValueError, match="may not name"):
            wire.decode(data)
        assert ran == []

    @pytest.mark.parametrize("payload", [
        _Reduces(eval, "6 * 7"),
        _Reduces(__import__, "os"),
        _Reduces(shutil.which, "sh"),
        _Reduces(dataclass, int),  # a loaded callable that is not a wire type
    ])
    def test_any_other_callable_is_refused(self, payload):
        with pytest.raises(ValueError, match="may not name"):
            wire.decode(b"P" + pickle.dumps(payload))

    def test_the_wire_types_still_arrive(self):
        from repro.protocols.kvs import CatchupReport

        report = CatchupReport("delta", True, 3, 7, False)
        for payload in ({1, 2}, frozenset({"a"}), 2 + 3j, report,
                        [Request(RequestKind.GET, "k\ud800")],
                        Response(ResponseKind.FOUND, 5)):
            encoded = wire.encode(payload)
            assert encoded[:1] == b"P" and wire.decode(encoded) == payload


# ---------------------------------------------------------------- count guard --


@dataclass
class Traffic:
    dumps: int
    loads: int
    messages: int
    payloads: list


def _counting(function, counts, name):
    def counted(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return counted


def _drive(cluster, books: dict, rounds_of_singles: int, rounds_of_batches: int) -> None:
    for index in range(rounds_of_singles):
        cluster.submit_put("key%02d" % (index % 50), "value%04d" % index).result(timeout=30.0)
    for index in range(rounds_of_singles):
        cluster.submit_get("key%02d" % (index % 60)).result(timeout=30.0)
    for index in range(rounds_of_batches):
        for future in cluster.submit_batch([Request.put("b%d" % index, "x" * 64),
                                            Request.get("key01"), Request.delete("b0")]):
            future.result(timeout=30.0)
        for future in cluster.submit_batch([Request.get("key02"), Request.get("nope")]):
            future.result(timeout=30.0)
        expects = {name: books.get(name) for name in ("acct0", "acct1")}
        transfer = {"acct0": str(int(books.get("acct0", 100)) - 1),
                    "acct1": str(int(books.get("acct1", 100)) + 1)}
        result = cluster.submit_txn(
            [Request.put(name, value) for name, value in transfer.items()], expects=expects,
        ).result(timeout=30.0)
        assert result.committed
        books.update(transfer)


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """A warm ``r = 3`` local cluster driven through 200 PUTs, 200 GETs and
    20 rounds of a mixed batch of 3, a read batch of 2 and a two-key
    transfer, with ``pickle.dumps``/``loads`` counted; then, for the shape
    check only, a durable cluster's transfers and one GMW run."""
    counts = {"dumps": 0, "loads": 0}
    payloads: list = []
    real_encode = wire.encode

    def capture(payload):
        payloads.append(payload)
        return real_encode(payload)

    with pytest.MonkeyPatch.context() as patch:
        with ClusterEngine(1, replication=3, backend="local") as cluster:
            books: dict = {}
            _drive(cluster, books, 2, 1)  # warm: every binding exists
            cluster.in_doubt()  # and the warm-up's decide is delivered
            patch.setattr(pickle, "dumps", _counting(pickle.dumps, counts, "dumps"))
            patch.setattr(pickle, "loads", _counting(pickle.loads, counts, "loads"))
            patch.setattr(wire._Unpickler, "load",
                          _counting(wire._Unpickler.load, counts, "loads"))
            patch.setattr(wire, "encode", capture)
            before = cluster.stats.total_messages
            _drive(cluster, books, 200, 20)
            messages = cluster.stats.total_messages - before
        observed = Traffic(counts["dumps"], counts["loads"], messages, payloads)
        root = str(tmp_path_factory.mktemp("durable"))
        durability = Durability(root=root, fsync="never", snapshot_every=4)
        with ClusterEngine(2, replication=2, backend="local", durability=durability) as durable:
            _drive(durable, {}, 3, 3)
        parties = ["p1", "p2", "p3"]
        circuit = circuits.and_tree(parties)
        with ChoreoEngine(parties, backend="local") as engine:
            engine.run(lambda op, mine=None: gmw(op, parties, circuit, mine, seed=1, rsa_bits=128),
                       location_args={party: ({"x": True},) for party in parties})
    return observed


class TestAWarmClusterPicklesNothing:
    def test_pickle_calls(self, traffic):
        assert traffic.messages == 1_994
        assert (traffic.dumps, traffic.loads) == (0, 0)
