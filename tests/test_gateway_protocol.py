"""Unit tests for the gateway wire protocol: framing, commands, error schema.

No sockets here — these tests exercise :mod:`repro.gateway.protocol` as a
pure library: encode/parse round-trips (including byte-at-a-time incremental
feeds), the command table's arity rules, the frame limits, and the mapping
from the cluster's typed exceptions onto the stable error-code schema.  The
codec is also held to a frozen copy of its earlier self
(``tests/gateway_reference.py``), and a count guard keeps a ``BATCH`` frame
coded in one pass.
"""

from __future__ import annotations

import json
import random
import sys
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterClosed, ClusterRebalancing
from repro.core.errors import ChoreographyRuntimeError, ChoreoTimeout
from repro.gateway import (
    ERR_BADREQUEST,
    ERR_BUSY,
    ERR_FAILED,
    ERR_INTERNAL,
    ERR_REBALANCING,
    ERR_TIMEOUT,
    ERR_TOOBIG,
    ERR_UNAVAILABLE,
    RETRYABLE_CODES,
    ArrayReply,
    BulkReply,
    CommandError,
    ErrorReply,
    ProtocolError,
    SimpleReply,
    GatewayServer,
    command_from_args,
    encode_command,
    encode_reply,
    error_reply,
    parse_command,
    parse_reply,
    reply_for_exception,
    reply_for_response,
)
from repro.gateway.protocol import (
    MAX_ARGS,
    MAX_INLINE,
    MAX_REPLY_DEPTH,
    encode_answers,
    encode_sub_requests,
)
from repro.protocols.kvs import Request, RequestKind, Response, ResponseKind
from repro.runtime import wire

from tests import gateway_reference as reference


class TestCommandFraming:
    def test_array_form_round_trips(self):
        wire = encode_command(["PUT", "user:1", "ada lovelace"])
        args, pos = parse_command(wire)
        assert args == ["PUT", "user:1", "ada lovelace"]
        assert pos == len(wire)

    def test_incremental_byte_at_a_time(self):
        wire = encode_command(["GET", "key"])
        buffer = b""
        for byte in wire[:-1]:
            buffer += bytes([byte])
            args, pos = parse_command(buffer)
            assert args is None and pos == 0
        args, _pos = parse_command(buffer + wire[-1:])
        assert args == ["GET", "key"]

    def test_two_commands_in_one_buffer(self):
        wire = encode_command(["GET", "a"]) + encode_command(["GET", "b"])
        first, pos = parse_command(wire)
        second, pos = parse_command(wire, pos)
        assert first == ["GET", "a"] and second == ["GET", "b"]
        assert parse_command(wire, pos) == (None, pos)

    def test_inline_form(self):
        args, _pos = parse_command(b"PUT key value\r\n")
        assert args == ["PUT", "key", "value"]
        args, _pos = parse_command(b"GET key\n")  # bare LF tolerated
        assert args == ["GET", "key"]

    def test_inline_blank_lines_are_skipped(self):
        wire = b"\r\n\r\nPING\r\n"
        args, pos = parse_command(wire)
        assert args == ["PING"] and pos == len(wire)

    def test_blank_lines_before_an_incomplete_command_are_consumed(self):
        """The documented contract: the position comes back past every whole
        blank line, so the reader's unparsed tail cannot grow with them."""
        assert parse_command(b"\n") == (None, 1)
        assert parse_command(b" \r\n*2\r\n$3\r\nGET\r\n") == (None, 3)
        assert parse_command(b"  \t\n\nGET") == (None, 5)

    def test_the_null_marker_text_is_an_ordinary_argument(self):
        """The parser once marked a null bulk in-band with this very string."""
        args = ["PUT", "k", "\0__NULL__"]
        assert parse_command(encode_command(args)) == (args, len(encode_command(args)))
        reply = ArrayReply((BulkReply("\0__NULL__"), BulkReply(None)))
        assert parse_reply(encode_reply(reply))[0] == reply

    def test_binaryish_values_survive_bulk_framing(self):
        value = "spaces and\ttabs and \r\n newlines"
        wire = encode_command(["PUT", "k", value])
        args, _pos = parse_command(wire)
        assert args == ["PUT", "k", value]

    def test_oversize_argument_count_is_fatal_toobig(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_command(b"*%d\r\n" % (MAX_ARGS + 1))
        assert not isinstance(excinfo.value, CommandError)
        assert excinfo.value.code == ERR_TOOBIG

    def test_unterminated_oversize_line_is_fatal(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_command(b"X" * (MAX_INLINE + 2))
        assert not isinstance(excinfo.value, CommandError)
        assert excinfo.value.code == ERR_TOOBIG

    def test_bad_bulk_header_is_fatal(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_command(b"*1\r\n:5\r\n")
        assert not isinstance(excinfo.value, CommandError)


class TestReplyFraming:
    @pytest.mark.parametrize(
        "reply",
        [
            SimpleReply("OK"),
            SimpleReply("PONG"),
            BulkReply("a value with \r\n inside"),
            BulkReply(""),
            BulkReply(None),
            ArrayReply((BulkReply("k"), BulkReply("v"))),
            ArrayReply(()),
            ArrayReply((ArrayReply((SimpleReply("nested"),)), BulkReply("7"))),
            error_reply(ERR_BUSY, "cluster is saturated", pending=900),
        ],
    )
    def test_round_trip(self, reply):
        wire = encode_reply(reply)
        parsed, pos = parse_reply(wire)
        assert parsed == reply
        assert pos == len(wire)

    def test_incremental_reply_parse(self):
        wire = encode_reply(ArrayReply((BulkReply("abc"), BulkReply(None))))
        for cut in range(len(wire)):
            parsed, pos = parse_reply(wire[:cut])
            assert parsed is None and pos == 0
        parsed, _pos = parse_reply(wire)
        assert parsed == ArrayReply((BulkReply("abc"), BulkReply(None)))

    def test_error_frame_is_single_line_json(self):
        wire = encode_reply(error_reply(ERR_TIMEOUT, "late", peer="r1"))
        assert wire.startswith(b"-") and wire.endswith(b"\r\n")
        payload = json.loads(wire[1:-2].decode("utf-8"))
        assert payload["code"] == ERR_TIMEOUT
        assert payload["detail"]["peer"] == "r1"
        assert payload["detail"]["retryable"] is True

    def test_unknown_type_byte_is_fatal(self):
        with pytest.raises(ProtocolError):
            parse_reply(b"?huh\r\n")

    def test_integer_reply_is_an_unknown_type_byte(self):
        with pytest.raises(ProtocolError, match="unknown reply type"):
            parse_reply(b":5\r\n")

    def test_non_utf8_simple_reply_is_a_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_reply(b"+\xff\r\n")
        assert not isinstance(excinfo.value, CommandError)

    def test_deep_array_nesting_is_a_protocol_error(self):
        nested = b"*1\r\n" * MAX_REPLY_DEPTH + b"+1\r\n"
        assert parse_reply(nested)[1] == len(nested)
        with pytest.raises(ProtocolError, match="nest") as excinfo:
            parse_reply(b"*1\r\n" * 5000 + b"+1\r\n")
        assert not isinstance(excinfo.value, CommandError)


class TestCommandTable:
    def test_verbs_normalise_to_upper(self):
        assert command_from_args(["put", "k", "v"]).verb == "PUT"

    @pytest.mark.parametrize(
        "args",
        [[], ["NOPE"], ["GET"], ["GET", "a", "b"], ["PUT", "k"], ["HEALTH", "x"]],
    )
    def test_bad_arity_or_verb_is_nonfatal_badrequest(self, args):
        with pytest.raises(CommandError) as excinfo:
            command_from_args(args)
        assert excinfo.value.code == ERR_BADREQUEST

    def test_data_vs_control_plane(self):
        assert command_from_args(["GET", "k"]).is_data_plane
        assert command_from_args(["BATCH", "GET", "k"]).is_data_plane
        assert not command_from_args(["PING"]).is_data_plane
        assert not command_from_args(["HEALTH"]).is_data_plane

    def test_batch_args_decode_to_requests(self):
        command = command_from_args(
            ["BATCH", "PUT", "k1", "v1", "GET", "k2", "DEL", "k3"]
        )
        kinds = [r.kind for r in command.requests]
        assert kinds == [RequestKind.PUT, RequestKind.GET, RequestKind.DELETE]

    @pytest.mark.parametrize(
        "tail",
        [["PUT", "k"], ["GET"], ["DEL"], ["STOP"], ["PUT", "k", "v", "GET"]],
    )
    def test_malformed_batch_tail_rejected_at_parse_time(self, tail):
        with pytest.raises(CommandError):
            command_from_args(["BATCH"] + tail)


_text = st.text(max_size=8)
_writes = st.one_of(
    st.builds(Request.put, _text, _text), st.builds(Request.delete, _text)
)
_requests = st.one_of(_writes, st.builds(Request.get, _text))


class TestSubRequestEncoder:
    @given(requests=st.lists(_requests, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_the_tail_is_the_inverse_of_the_parse(self, requests):
        """``BATCH`` round-trips any request list, ``MULTI`` a write-only one;
        a read in a ``MULTI`` is refused client-side."""
        encoded = encode_sub_requests("BATCH", requests)
        assert list(command_from_args(["BATCH", *encoded]).requests) == requests
        if any(request.kind is RequestKind.GET for request in requests):
            with pytest.raises(ValueError, match="through MULTI"):
                encode_sub_requests("MULTI", requests)
        else:
            encoded = encode_sub_requests("MULTI", requests)
            command = command_from_args(["MULTI", *encoded, "EXEC"])
            assert list(command.requests) == requests


class TestErrorSchema:
    def test_cluster_closed_maps_to_unavailable(self):
        reply = reply_for_exception(ClusterClosed("cluster is closed"))
        assert reply.code == ERR_UNAVAILABLE
        assert not reply.retryable

    def test_rebalancing_maps_retryable(self):
        reply = reply_for_exception(ClusterRebalancing("rebalance in progress"))
        assert reply.code == ERR_REBALANCING
        assert reply.retryable

    def test_timeout_carries_blame_fields(self):
        reply = reply_for_exception(ChoreoTimeout("client", "shard0.r0", 0.3))
        assert reply.code == ERR_TIMEOUT
        assert reply.detail["waiter"] == "client"
        assert reply.detail["peer"] == "shard0.r0"
        assert reply.detail["seconds"] == 0.3
        assert reply.retryable

    def test_wrapped_timeout_unwraps_to_timeout(self):
        wrapped = ChoreographyRuntimeError(
            "client", ChoreoTimeout("client", "shard0.r1", 0.3)
        )
        reply = reply_for_exception(wrapped)
        assert reply.code == ERR_TIMEOUT
        assert reply.detail["location"] == "client"
        assert reply.detail["peer"] == "shard0.r1"

    def test_other_choreography_failure_maps_to_failed(self):
        wrapped = ChoreographyRuntimeError("shard0.r0", RuntimeError("boom"))
        reply = reply_for_exception(wrapped)
        assert reply.code == ERR_FAILED
        assert reply.detail["location"] == "shard0.r0"
        assert reply.detail["error"] == "RuntimeError"
        assert not reply.retryable

    def test_command_error_keeps_its_code(self):
        reply = reply_for_exception(CommandError("nope"))
        assert reply.code == ERR_BADREQUEST

    def test_unknown_exception_maps_to_internal(self):
        reply = reply_for_exception(ValueError("surprise"))
        assert reply.code == ERR_INTERNAL
        assert not reply.retryable

    def test_retryable_stamped_from_code_table(self):
        for code in RETRYABLE_CODES:
            assert error_reply(code, "x").retryable
        assert not error_reply(ERR_BADREQUEST, "x").retryable

    def test_reply_for_response(self):
        assert reply_for_response(Response.found("v")) == BulkReply("v")
        assert reply_for_response(Response.not_found()) == BulkReply(None)
        assert reply_for_response(Response.stopped()) == SimpleReply("STOPPED")


# -- fuzzing the parsers ---------------------------------------------------------------

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

#: Pieces of real frames, so random joins reach past the first header.
FRAGMENTS = st.sampled_from([
    b"*", b"$", b"+", b"-", b":", b"\r\n", b"\n", b"\r", b" ", b"0", b"1", b"2", b"-1",
    b"3", b"1025", b"99999999999", b"PUT", b"GET", b"DEL", b"BATCH", b"MULTI", b"EXEC",
    b"SCAN", b"PING", b"k", b"\xff", b"[", b"{", b'{"code":"X","message":"m"}'])


@st.composite
def wire_bytes(draw, frame):
    """Random bytes, joined fragments, or a real ``frame`` cut and patched."""
    shape = draw(st.sampled_from(["raw", "fragments", "damaged"]))
    if shape == "raw":
        return draw(st.binary(max_size=200))
    if shape == "fragments":
        return b"".join(draw(st.lists(st.one_of(FRAGMENTS, st.binary(max_size=6)),
                                      max_size=40)))
    data = bytearray(draw(frame))
    for _ in range(draw(st.integers(0, 3))):
        if data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))]) + draw(st.binary(max_size=8))


COMMAND_FRAMES = st.lists(st.text(max_size=6), min_size=1, max_size=6).map(encode_command)
REPLY_FRAMES = st.recursive(
    st.one_of(st.text(max_size=6).map(BulkReply), st.just(BulkReply(None)),
              st.from_regex(r"[A-Z]{0,6}", fullmatch=True).map(SimpleReply),
              st.text(max_size=6).map(lambda text: error_reply("X", text))),
    lambda items: st.lists(items, max_size=4).map(lambda xs: ArrayReply(tuple(xs))),
    max_leaves=8).map(encode_reply)


class TestParsersRaiseOnlyProtocolErrors:
    """Every byte string the gateway parsers meet yields parsed frames, an
    incomplete frame, or a typed :class:`ProtocolError` (a command's
    :class:`CommandError`), never a bare exception."""

    @FUZZ
    @given(wire_bytes(COMMAND_FRAMES))
    def test_fuzz_parse_command(self, data):
        start = 0
        try:
            while True:  # as the gateway reader walks its buffer
                args, end = parse_command(data, start)
                if args is None:  # whole blank lines before an incomplete frame go
                    assert _whole_blank_lines(data[start:end])
                    return
                assert end > start and all(isinstance(arg, str) for arg in args)
                start = end
                try:
                    command_from_args(args)
                except CommandError:
                    pass
        except ProtocolError:
            pass

    @FUZZ
    @given(wire_bytes(REPLY_FRAMES))
    def test_fuzz_parse_reply(self, data):
        start = 0
        try:
            while True:
                reply, end = parse_reply(data, start)
                if reply is None:
                    assert end == start
                    return
                assert end > start
                start = end
        except ProtocolError:
            pass

    def test_deeply_nested_error_json_is_a_protocol_error(self):
        # json.loads recursed out of the stack and the RecursionError escaped.
        with pytest.raises(ProtocolError, match="malformed error payload"):
            parse_reply(b"-" + b"[" * 60000 + b"\r\n")


def _whole_blank_lines(skipped):
    """``skipped`` is empty, or whole lines ending in ``\n`` that the inline
    form reads as blank (UTF-8 text with no whitespace-separated token)."""
    if not skipped:
        return True
    if not skipped.endswith(b"\n"):
        return False
    try:
        return not skipped.decode("utf-8").split()
    except UnicodeDecodeError:
        return False


# -- the codec against its frozen earlier self ---------------------------------------

#: Empty, one- to four-byte UTF-8, CR and LF and framing bytes inside values,
#: and a lone surrogate (both codecs raise the same UnicodeEncodeError).
_any_text = st.text(alphabet=st.sampled_from("aZ09 \té€😀\r\n$*-+\x00\ud800"), max_size=8)
REPLY_TREES = st.recursive(
    st.one_of(_any_text.map(BulkReply), st.just(BulkReply(None)),
              st.from_regex(r"[A-Z]{0,6}", fullmatch=True).map(SimpleReply),
              _any_text.map(lambda text: error_reply("X", text, n=len(text)))),
    lambda items: st.lists(items, max_size=4).map(lambda xs: ArrayReply(tuple(xs))),
    max_leaves=8)
RESPONSES = st.lists(st.one_of(_any_text.map(Response.found), st.just(Response.not_found()),
                               st.just(Response.stopped()),
                               st.just(Response(ResponseKind.FOUND, None))), max_size=40)


def _outcome(function, *args):
    """What a call gave: its value, or the class, code and message it raised."""
    try:
        return function(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), getattr(exc, "code", None), str(exc))


def _walk(parse, data):
    """Every step of walking ``data`` as a socket reader does."""
    steps, start = [], 0
    while True:
        step = _outcome(parse, data, start)
        steps.append(step)
        if step[0] is None or step[0] == "raised":
            return steps
        start = step[1]


def _batch_frame(seed=11):
    """A ``gw_batch``-shaped ``BATCH``: 30 GETs and 2 PUTs of 64-byte values."""
    rng = random.Random(seed)
    args = ["BATCH"]
    for index in range(32):
        key = "user%06d" % rng.randrange(1000)
        args += ["PUT", key, "%064x" % rng.getrandbits(256)] if index in (7, 23) else ["GET", key]
    answers = [Response.found("%064x" % rng.getrandbits(256)) if rng.random() < 0.8
               else Response.not_found() for _ in range(32)]
    return args, answers


class TestCodecMatchesTheReference:
    """``tests/gateway_reference.py`` froze the codec before bulk runs were
    parsed in one loop.  Bytes, values, positions and errors stay its own."""

    @FUZZ
    @given(st.lists(_any_text, max_size=8))
    def test_commands_encode_to_the_same_bytes(self, args):
        assert _outcome(encode_command, args) == _outcome(reference.encode_command, args)

    @FUZZ
    @given(REPLY_TREES)
    def test_replies_encode_to_the_same_bytes(self, reply):
        assert _outcome(encode_reply, reply) == _outcome(reference.encode_reply, reply)

    @FUZZ
    @given(RESPONSES)
    def test_a_batch_answer_is_the_reply_the_server_built(self, responses):
        built = ArrayReply(tuple(map(reply_for_response, responses)))
        assert _outcome(encode_answers, responses) == _outcome(reference.encode_reply, built)

    @FUZZ
    @given(wire_bytes(COMMAND_FRAMES))
    def test_commands_parse_the_same_at_every_step(self, data):
        steps = _walk(parse_command, data)
        assert steps == _walk(reference.parse_command, data)
        for step in steps:
            if step[0] not in (None, "raised"):
                assert (_outcome(command_from_args, step[0])
                        == _outcome(reference.command_from_args, step[0]))

    @FUZZ
    @given(wire_bytes(REPLY_FRAMES))
    def test_replies_parse_the_same_at_every_step(self, data):
        assert _walk(parse_reply, data) == _walk(reference.parse_reply, data)

    def test_every_cut_of_a_batch_frame_parses_the_same(self):
        args, answers = _batch_frame()
        command, reply = encode_command(args), encode_answers(answers)
        for frame, parse, frozen in ((command, parse_command, reference.parse_command),
                                     (reply, parse_reply, reference.parse_reply)):
            for cut in range(len(frame) + 1):
                assert _walk(parse, frame[:cut]) == _walk(frozen, frame[:cut]), cut
        assert command_from_args(args) == reference.command_from_args(args)


def _python_calls(function, *args):
    """Python-level calls (profiler ``call`` events) in ``function(*args)``,
    itself included, and its result."""
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
    return calls, result


class TestABatchFrameIsCodedInOnePass:
    """One 32-op ``BATCH`` frame (30 GETs, 2 PUTs) costs each codec step a
    handful of Python calls, not one or more per argument.  The codec that
    walked a frame per argument made 136 (encode), 204 (parse), 67
    (validate), 155 (the server's reply) and 165 (reply parse), and
    encoding 8 requests on the cluster wire made 19."""

    LIMIT = 8

    def test_the_command_is_encoded_parsed_and_validated_in_one_pass(self):
        args, _answers = _batch_frame()
        calls, frame = _python_calls(encode_command, args)
        assert len(calls) <= self.LIMIT, calls
        assert frame == reference.encode_command(args)
        calls, (parsed, end) = _python_calls(parse_command, frame)
        assert len(calls) <= self.LIMIT, calls
        assert (parsed, end) == (args, len(frame))
        calls, command = _python_calls(command_from_args, parsed)
        assert len(calls) <= self.LIMIT, calls
        assert command == reference.command_from_args(args)

    def test_the_servers_batch_reply_is_encoded_in_one_pass(self):
        args, answers = _batch_frame()
        done = SimpleNamespace(result=partial(list, answers))  # no Python frame
        cluster = SimpleNamespace(submit_batch_answers=lambda requests: done)
        server = GatewayServer(SimpleNamespace(cluster=cluster))
        future, encode = server._submit(command_from_args(args))
        calls, data = _python_calls(encode, future.result())
        assert len(calls) <= self.LIMIT, calls
        assert data == reference.encode_reply(
            ArrayReply(tuple(map(reply_for_response, answers))))
        calls, (reply, end) = _python_calls(parse_reply, data)
        assert len(calls) <= self.LIMIT, calls
        assert (reply, end) == reference.parse_reply(data)

    def test_a_request_list_is_put_on_the_cluster_wire_one_call_per_record(self):
        requests = [Request.get("user%06d" % index) for index in range(8)]
        calls, data = _python_calls(wire.encode, requests)
        assert len(calls) <= 11, calls  # encode, the list, 8 records, the top level
        assert wire.decode(data) == requests
