"""One-shot execution of a projected choreography (compatibility surface).

``run_choreography`` is the "main method" every case study in the paper ships:
project to every location, run all endpoint programs concurrently, gather the
return values.  Since the engine redesign it is a thin wrapper over a
throwaway :class:`~repro.runtime.engine.ChoreoEngine` — one warm session,
used for exactly one instance, then closed.  Long-running services should
hold a ``ChoreoEngine`` open instead and call ``engine.run`` /
``engine.submit`` so transport setup and worker spawn are paid once, not per
instance (see ``benchmarks/bench_engine_throughput.py`` for the difference).

Transports coalesce sends into per-receiver write buffers (see
:class:`~repro.runtime.transport.TransportEndpoint` for the deferred-flush
contract); running through this function — or any engine — needs no extra
care, because endpoints flush before blocking in a receive and the engine's
workers flush at every instance boundary.  Only code driving raw endpoints
by hand must call ``endpoint.flush()`` after its final send.

:class:`ChoreographyResult`, historically imported from this module, is
re-exported here.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Union

from ..core.locations import Location, LocationsLike
from ..core.ops import Choreography
from .engine import ChoreoEngine, ChoreographyResult
from .transport import DEFAULT_TIMEOUT, Transport

__all__ = ["ChoreographyResult", "run_choreography"]


def run_choreography(
    choreography: Choreography,
    census: LocationsLike,
    args: Sequence[Any] = (),
    kwargs: Optional[Mapping[str, Any]] = None,
    *,
    location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
    transport: Union[str, Transport, None] = "local",
    timeout: float = DEFAULT_TIMEOUT,
) -> ChoreographyResult:
    """Project ``choreography`` to every census member and run them concurrently.

    Parameters
    ----------
    choreography:
        A callable ``chor(op, *args, **kwargs)``.
    census:
        The locations participating in the top-level choreography.
    args, kwargs:
        Arguments passed identically to every endpoint (the usual case: the
        choreography's own operators decide who does what with them).
    location_args:
        Optional per-location extra positional arguments, appended after
        ``args``; used when endpoints genuinely start from different local
        inputs (e.g. each party's secret in an MPC protocol).
    transport:
        A backend name from the registry (``"local"``, ``"tcp"``,
        ``"simulated"``, ``"central"``, …) or a pre-built
        :class:`~repro.runtime.transport.Transport`, which is borrowed and
        left open.  ``None`` means ``"local"``.
    timeout:
        Seconds an endpoint waits on a receive before declaring failure.

    Returns
    -------
    ChoreographyResult
        Per-location return values plus this run's message statistics.
    """
    backend = "local" if transport is None else transport
    with ChoreoEngine(census, backend=backend, timeout=timeout) as engine:
        return engine.run(choreography, args, kwargs, location_args=location_args)
