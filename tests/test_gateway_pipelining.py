"""The gateway reader walks each received chunk once.

A pipelining client can land thousands of small commands in one ``recv``;
the reader must hand the parser one buffer per chunk and advance a cursor,
not re-copy the whole receive buffer for every command it finds in it.
"""

from __future__ import annotations

import socket

from repro import ClusterClient
from repro.gateway import BulkReply, GatewayServer, parse_reply
from repro.gateway import server as gateway_server

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
