"""The old name of the one TCP transport, kept for importers.

The ``"asyncio"`` backend name and :class:`~repro.runtime.tcp.TCPTransport`
read every socket of a census on one selector thread; there is one read path
and no event loop.  ``AsyncioTCPTransport`` is that class under the name
existing callers import from here.
"""

from .tcp import TCPTransport

AsyncioTCPTransport = TCPTransport
