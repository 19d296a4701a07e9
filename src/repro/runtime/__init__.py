"""Execution substrates: persistent engine sessions, transports, and the
centralized reference semantics."""

from .asyncio_tcp import AsyncioTCPTransport
from .central import CentralBackend, CentralOp, localize_return, run_centralized
from .engine import CLOSE_DEADLINE_CAP, ChoreoEngine, ChoreographyResult
from .local import LocalTransport
from .simulated import SimulatedNetworkTransport
from .stats import ChannelStats
from .tcp import TCPTransport
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint, deserialize, serialize


__all__ = [
    "AsyncioTCPTransport",
    "CLOSE_DEADLINE_CAP",
    "CentralBackend",
    "CentralOp",
    "ChannelStats",
    "ChoreoEngine",
    "ChoreographyResult",
    "DEFAULT_TIMEOUT",
    "LocalTransport",
    "SimulatedNetworkTransport",
    "TCPTransport",
    "Transport",
    "TransportEndpoint",
    "deserialize",
    "localize_return",
    "run_centralized",
    "serialize",
]
