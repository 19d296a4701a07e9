"""Typed, discoverable registry of execution backends (and friends).

The paper's case studies each ship their own "main method"; this repository
unifies them behind one seam: :class:`~repro.runtime.engine.ChoreoEngine`
resolves a backend here, so registering one once makes it reachable from
every session.

Injection is **Protocol-keyed**, not string-keyed: the registry is a table
from a :class:`typing.Protocol` (the *injection point*) to named
implementations of it.  One injection point ships with the runtime:
:class:`TransportBackend`, a factory ``factory(census, timeout=...,
**options)`` returning a :class:`~repro.runtime.transport.Transport` or a
:class:`~repro.runtime.central.CentralBackend`.  Implementations:
``"local"``, ``"tcp"``, ``"asyncio"``, ``"simulated"``, ``"central"``.

Registering is one decorator — ``@impl(TransportBackend, name="mine")`` on
the factory — or one :func:`register_impl` call for a class defined
elsewhere.  :func:`implementations` lists a protocol's table, so tooling
(and tests) can enumerate what plugs in where without grepping for magic
strings.

Engines take a backend by string name: :func:`create_backend` resolves it
in the :class:`TransportBackend` table and forwards extra factory keyword
options verbatim (e.g. ``latency=`` / ``bandwidth=`` for ``"simulated"``,
``faults=`` — a :class:`repro.faults.FaultPlan` — for ``"simulated"``,
``"tcp"``, and ``"asyncio"``; see ``docs/testing.md``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol, Union, runtime_checkable

from ..core.locations import LocationsLike
from .central import CentralBackend
from .local import LocalTransport
from .simulated import SimulatedNetworkTransport
from .tcp import TCPTransport
from .transport import DEFAULT_TIMEOUT, Transport

#: Anything a backend factory may produce.
Backend = Union[Transport, CentralBackend]


# ------------------------------------------------------------ injection points --


@runtime_checkable
class TransportBackend(Protocol):
    """The injection point for execution backends.

    An implementation is any callable ``factory(census, timeout=...,
    **options)`` returning a :class:`~repro.runtime.transport.Transport`
    (projected, concurrent execution) or a
    :class:`~repro.runtime.central.CentralBackend` (the single-threaded
    reference semantics).  The transport classes themselves implement it —
    a class whose ``__init__`` has the factory signature *is* the factory.
    """

    def __call__(
        self, census: LocationsLike, *, timeout: float = DEFAULT_TIMEOUT, **options: Any
    ) -> Backend: ...


# ------------------------------------------------------------------- the table --

#: Protocol → (name → implementation).  Mutate through :func:`register_impl`
#: so duplicate names are caught and discoverability stays consistent.
_IMPLEMENTATIONS: Dict[type, Dict[str, Any]] = {}


def register_impl(
    protocol: type, implementation: Any, *, name: str, replace: bool = False
) -> None:
    """Register ``implementation`` under ``name`` for ``protocol``.

    Args:
        protocol: The injection point (a ``Protocol`` class such as
            :class:`TransportBackend`).
        implementation: The factory/object to register.
        name: The lookup name (kept for configs, CLIs, and compatibility).
        replace: Allow overwriting an existing name (tests, instrumented
            doubles).

    Raises:
        ValueError: For an empty name, or a taken name without ``replace``.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"implementation name must be a non-empty string, got {name!r}")
    table = _IMPLEMENTATIONS.setdefault(protocol, {})
    if name in table and not replace:
        raise ValueError(
            f"{protocol.__name__} implementation {name!r} is already registered; "
            "pass replace=True to override"
        )
    table[name] = implementation


def unregister_impl(protocol: type, name: str) -> None:
    """Remove a registered implementation (no-op when absent)."""
    _IMPLEMENTATIONS.get(protocol, {}).pop(name, None)


def impl(
    protocol: type, *protocols: type, name: Optional[str] = None, replace: bool = False
) -> Callable[[Any], Any]:
    """Decorator form of :func:`register_impl` (multi-protocol capable).

    ``@impl(TransportBackend, name="mine")`` registers the decorated factory
    and returns it unchanged; with several protocols the factory is
    registered under the same name at each injection point.  ``name``
    defaults to the factory's ``__name__``.
    """

    def register(factory: Any) -> Any:
        label = name if name is not None else getattr(factory, "__name__", None)
        for point in (protocol, *protocols):
            register_impl(point, factory, name=str(label), replace=replace)
        return factory

    return register


def implementations(protocol: type) -> Dict[str, Any]:
    """A copy of ``protocol``'s name → implementation table."""
    return dict(_IMPLEMENTATIONS.get(protocol, {}))


def resolve_impl(protocol: type, name: str) -> Any:
    """The implementation registered under ``name`` for ``protocol``.

    Raises:
        ValueError: For an unknown name, listing what is registered.
    """
    try:
        return _IMPLEMENTATIONS.get(protocol, {})[name]
    except KeyError:
        known = sorted(_IMPLEMENTATIONS.get(protocol, {}))
        raise ValueError(
            f"unknown {protocol.__name__} implementation {name!r}; choose from {known}"
        ) from None


def create_backend(
    name: str,
    census: LocationsLike,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    **options: object,
) -> Backend:
    """Instantiate the backend registered under ``name`` for ``census``."""
    try:
        factory = resolve_impl(TransportBackend, name)
    except ValueError:
        raise ValueError(
            f"unknown transport/backend {name!r}; "
            f"choose from {sorted(implementations(TransportBackend))}"
        ) from None
    return factory(census, timeout=timeout, **options)


# -------------------------------------------------------- built-in registrations --

register_impl(TransportBackend, LocalTransport, name="local")
register_impl(TransportBackend, TCPTransport, name="tcp")
register_impl(TransportBackend, SimulatedNetworkTransport, name="simulated")
register_impl(TransportBackend, CentralBackend, name="central")


@impl(TransportBackend, name="asyncio")
def _asyncio_backend(census: LocationsLike, **options: Any) -> Transport:
    # Imported on first use: asyncio (with ssl, selectors, ...) is ~3 MiB that
    # threaded and in-process sessions would carry without ever running a loop.
    from .asyncio_tcp import AsyncioTCPTransport

    return AsyncioTCPTransport(census, **options)
