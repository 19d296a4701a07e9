"""The network front door: a TCP gateway over the sharded cluster.

Everything below this package sits *in process*: choreographies, warm
engines, the sharded :class:`~repro.cluster.ClusterEngine`, the
:class:`~repro.cluster.ClusterClient` facade.  This package puts a wire on
the front:

* :mod:`~repro.gateway.protocol` — a RESP-like framing (array-of-bulk
  requests, typed replies, single-line JSON error frames with stable
  ``code``/``message``/``detail`` schema) with incremental parsers;
* :class:`~repro.gateway.settings.GatewaySettings` — the operational
  knobs in one frozen dataclass (bind address, caps, high-water marks);
* :class:`~repro.gateway.server.GatewayServer` — one selector thread for
  every connection, with per-connection **backpressure** (a budget of held
  replies enforced via TCP flow control) and cluster-wide **admission control** (retryable
  ``BUSY`` shedding past the ``pending`` high-water mark, sticky until
  load falls back to the low-water mark), plus graceful drain-then-close;
* :class:`~repro.gateway.client.GatewayClient` — the blocking/pipelined
  client the tests and ``benchmarks/e2e/`` drive load through,
  with opt-in ``retries=`` backoff on retryable error frames.

Cross-shard transactions ride the same wire: ``MULTI (PUT k v | DEL k)+
EXEC`` arrives as one frame, maps onto one
:meth:`~repro.cluster.ClusterEngine.submit_txn` two-phase commit, and
answers either the transaction id or a retryable ``ABORTED`` error frame
(nothing was applied; resubmitting is safe).

See ``docs/gateway.md`` for the wire grammar, the error-code table, and a
saturation walkthrough.
"""

from .client import GatewayClient, GatewayError
from .protocol import (
    ERR_ABORTED,
    ERR_BADREQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_FAILED,
    ERR_FAILOVER,
    ERR_INTERNAL,
    ERR_MAXCONN,
    ERR_REBALANCING,
    ERR_TIMEOUT,
    ERR_TOOBIG,
    ERR_UNAVAILABLE,
    RETRYABLE_CODES,
    ArrayReply,
    BulkReply,
    Command,
    CommandError,
    ErrorReply,
    ProtocolError,
    Reply,
    SimpleReply,
    command_from_args,
    encode_command,
    encode_reply,
    error_reply,
    parse_command,
    parse_reply,
    reply_for_exception,
    reply_for_response,
)
from .server import GatewayServer
from .settings import GatewaySettings

__all__ = [
    "ERR_ABORTED",
    "ERR_BADREQUEST",
    "ERR_BUSY",
    "ERR_DRAINING",
    "ERR_FAILED",
    "ERR_FAILOVER",
    "ERR_INTERNAL",
    "ERR_MAXCONN",
    "ERR_REBALANCING",
    "ERR_TIMEOUT",
    "ERR_TOOBIG",
    "ERR_UNAVAILABLE",
    "RETRYABLE_CODES",
    "ArrayReply",
    "BulkReply",
    "Command",
    "CommandError",
    "ErrorReply",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "GatewaySettings",
    "ProtocolError",
    "Reply",
    "SimpleReply",
    "command_from_args",
    "encode_command",
    "encode_reply",
    "error_reply",
    "parse_command",
    "parse_reply",
    "reply_for_exception",
    "reply_for_response",
]
