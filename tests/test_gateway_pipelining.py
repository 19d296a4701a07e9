"""Socket readers walk each received chunk once, out of a reused buffer.

A pipelining client can land thousands of small commands in one ``recv``;
the reader must hand the parser one buffer per chunk and advance a cursor,
not re-copy the whole receive buffer for every command it finds in it.  The
same holds for replies parsed by :class:`~repro.gateway.GatewayClient`.
And every threaded reader receives into one per-connection buffer
(``recv_into``), never allocating a fresh 64 KiB ``bytes`` per ``recv``.
"""

from __future__ import annotations

import socket

from repro import ClusterClient
from repro.gateway import BulkReply, GatewayClient, GatewayServer, encode_reply, parse_reply
from repro.gateway import client as gateway_client
from repro.gateway import server as gateway_server
from repro.runtime.tcp import TCPTransport

COMMANDS = 2000


def test_pipelined_burst_is_answered_in_order_without_recopying(monkeypatch):
    handed_in = []  # every distinct buffer object the parser was given
    real_parse = gateway_server.parse_command

    def counting_parse(buffer, start=0):
        if not handed_in or handed_in[-1] is not buffer:
            handed_in.append(buffer)
        return real_parse(buffer, start)

    monkeypatch.setattr(gateway_server, "parse_command", counting_parse)
    burst = b"".join(b"PING %d\r\n" % n for n in range(COMMANDS))

    with ClusterClient(shards=1, replication=1, backend="local") as kvs:
        with GatewayServer(kvs) as server:
            with socket.create_connection(server.address, timeout=20.0) as sock:
                sock.sendall(burst)
                received, replies, cursor = b"", [], 0
                while len(replies) < COMMANDS:
                    chunk = sock.recv(65536)
                    assert chunk, "gateway hung up mid-burst"
                    received += chunk
                    while True:
                        reply, cursor = parse_reply(received, cursor)
                        if reply is None:
                            break
                        replies.append(reply)

    assert replies == [BulkReply(str(n)) for n in range(COMMANDS)]
    # At the parent commit every command got its own copy of the buffer, so
    # this ratio was on the order of the commands per chunk (hundreds).
    assert sum(len(buffer) for buffer in handed_in) <= 2 * len(burst)


def test_client_walks_a_burst_of_replies_without_recopying(monkeypatch):
    handed_in = []  # every distinct buffer object the reply parser was given
    real_parse = gateway_client.parse_reply

    def counting_parse(buffer, start=0):
        if not handed_in or handed_in[-1] is not buffer:
            handed_in.append(buffer)
        return real_parse(buffer, start)

    monkeypatch.setattr(gateway_client, "parse_reply", counting_parse)
    with ClusterClient(shards=1, replication=1, backend="local") as kvs:
        with GatewayServer(kvs) as server:
            with GatewayClient(*server.address, timeout=20.0) as client:
                for n in range(COMMANDS):
                    client.send("PING", str(n))
                replies = client.drain(COMMANDS)

    assert replies == [BulkReply(str(n)) for n in range(COMMANDS)]
    received = sum(len(encode_reply(reply)) for reply in replies)
    # At the parent commit every reply copied the whole receive buffer:
    # 2,000 replies (18.9 KB) handed megabytes to the parser.
    assert sum(len(buffer) for buffer in handed_in) <= 2 * received


class TestReadersReuseOneBuffer:
    """Each socket reader receives with ``recv_into``: 0 ``recv`` calls.
    The transport cases run the one selector transport under its two
    names."""

    @staticmethod
    def count_recv(monkeypatch):
        calls = []
        real_recv = socket.socket.recv

        def counting_recv(sock, *args, **kwargs):
            if sock.family == socket.AF_INET:  # socket readers, not local pairs
                calls.append(1)
            return real_recv(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, "recv", counting_recv)
        return calls

    def test_tcp_endpoint_reader(self, monkeypatch):
        calls = self.count_recv(monkeypatch)
        with TCPTransport(["a", "b"], timeout=5.0) as transport:
            a, b = transport.endpoint("a"), transport.endpoint("b")
            for index in range(COMMANDS):
                a.send("b", index)
                if index % 100 == 99:
                    a.flush()
            assert [b.recv("a") for _ in range(COMMANDS)] == list(range(COMMANDS))
        assert calls == []

    def test_asyncio_endpoint_reader(self, monkeypatch):
        from repro.runtime.asyncio_tcp import AsyncioTCPTransport

        calls = self.count_recv(monkeypatch)
        with AsyncioTCPTransport(["a", "b"], timeout=5.0) as transport:
            a, b = transport.endpoint("a"), transport.endpoint("b")
            for index in range(COMMANDS):
                a.send("b", index)
                if index % 100 == 99:
                    a.flush()
            assert [b.recv("a") for _ in range(COMMANDS)] == list(range(COMMANDS))
        assert calls == []

    def test_gateway_command_reader(self, monkeypatch):
        burst = b"".join(b"PING %d\r\n" % n for n in range(COMMANDS))
        expected = b"".join(encode_reply(BulkReply(str(n))) for n in range(COMMANDS))
        calls = self.count_recv(monkeypatch)
        with ClusterClient(shards=1, replication=1, backend="local") as kvs:
            with GatewayServer(kvs) as server:
                with socket.create_connection(server.address, timeout=20.0) as sock:
                    sock.sendall(burst)
                    received = bytearray()
                    chunk = bytearray(65536)
                    while len(received) < len(expected):
                        count = sock.recv_into(chunk)
                        assert count, "gateway hung up mid-burst"
                        received += chunk[:count]
        assert bytes(received) == expected
        assert calls == []

    def test_gateway_client_reply_reader(self, monkeypatch):
        calls = self.count_recv(monkeypatch)
        with ClusterClient(shards=1, replication=1, backend="local") as kvs:
            with GatewayServer(kvs) as server:
                with GatewayClient(*server.address, timeout=20.0) as client:
                    for n in range(COMMANDS):
                        client.send("PING", str(n))
                    assert client.drain(COMMANDS) == [
                        BulkReply(str(n)) for n in range(COMMANDS)]
                    assert client.put("k", "v") is None
                    assert client.get("k") == "v"
        assert calls == []
