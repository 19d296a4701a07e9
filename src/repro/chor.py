"""First-class choreography objects: the ``@choreography`` decorator.

A choreography in this library is any callable ``chor(op, *args, **kwargs)``
(EPP-as-DI, paper §5.2); the decorator keeps that shape — a decorated
choreography still composes under ``op.conclave`` and still projects with
:func:`~repro.core.epp.project` — while attaching the things a *deployable*
protocol wants to carry around:

* a ``name`` (defaulting to the function name) for logs and registries;
* an optional **census contract**: the minimum set of locations the
  choreography expects, validated against whatever census it is run with;
* conveniences ``.run()``, ``.check()``, and ``.cost()`` delegating to the
  engine (:class:`~repro.runtime.engine.ChoreoEngine`) and to
  :mod:`repro.analysis`, so quick scripts need no extra imports.

Example::

    @choreography(census=["buyer", "seller"])
    def bookstore(op, title):
        ...

    bookstore.check(args=("TAPL",))          # pre-run census/ownership check
    bookstore.cost("TAPL")                   # predicted message counts
    bookstore.run(args=("TAPL",))            # throwaway local engine
    engine.run(bookstore, args=("TAPL",))    # or any persistent engine
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Mapping, Optional, Sequence

from .core.locations import Census, Location, LocationsLike, as_census
from .core.ops import Choreography


class ChoreographyDef:
    """A named, first-class choreography wrapping a plain ``chor(op, …)``."""

    def __init__(
        self,
        fn: Choreography,
        *,
        name: Optional[str] = None,
        census: Optional[LocationsLike] = None,
    ):
        functools.update_wrapper(self, fn)
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "choreography")
        self.census: Optional[Census] = (
            None if census is None else as_census(census).require_nonempty()
        )

    def __call__(self, op: Any, *args: Any, **kwargs: Any) -> Any:
        return self.fn(op, *args, **kwargs)

    def __repr__(self) -> str:
        contract = list(self.census) if self.census is not None else "any"
        return f"<choreography {self.name!r} census={contract}>"

    def _resolve_census(self, census: Optional[LocationsLike]) -> Census:
        if census is None:
            if self.census is None:
                raise ValueError(
                    f"choreography {self.name!r} declares no census contract; "
                    "pass census=[...] explicitly"
                )
            return self.census
        full = as_census(census).require_nonempty()
        if self.census is not None:
            # The contract names the minimum participants; the actual census
            # may add more (census polymorphism), never drop one.
            full.require_subset(self.census)
        return full

    def bind(
        self,
        *args: Any,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> "ChoreographyDef":
        """Pre-apply leading arguments, returning a new first-class choreography.

        The bound arguments are inserted right after ``op``; arguments given
        at call/run time follow them.  The census contract carries over.  This
        is how a census-polymorphic protocol is *instantiated* for one
        concrete deployment — e.g. the cluster layer binds
        ``kvs_catchup`` to one shard's (client, primary, rejoiner, state) and
        runs it with no further arguments.

        Args:
            *args: Positional arguments bound immediately after ``op``.
            name: Name for the bound choreography; defaults to the original
                name (useful to distinguish per-shard instantiations in logs).
            **kwargs: Keyword arguments bound now; call-time keywords with
                the same name override them.

        Returns:
            A new :class:`ChoreographyDef`; the original is unchanged.
        """
        bound_args = tuple(args)
        bound_kwargs = dict(kwargs)
        fn = self.fn

        def bound(op: Any, *more: Any, **overrides: Any) -> Any:
            return fn(op, *bound_args, *more, **{**bound_kwargs, **overrides})

        bound.__name__ = name or self.name
        return ChoreographyDef(bound, name=name or self.name, census=self.census)

    # ------------------------------------------------------------ conveniences --

    def run(
        self,
        census: Optional[LocationsLike] = None,
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
        backend: Any = "local",
        timeout: Optional[float] = None,
        **backend_options: Any,
    ):
        """Run once on a throwaway :class:`~repro.runtime.engine.ChoreoEngine`.

        For sustained traffic build a persistent engine instead and pass this
        object to ``engine.run`` — a ``ChoreographyDef`` *is* a choreography.
        """
        from .runtime.engine import ChoreoEngine
        from .runtime.transport import DEFAULT_TIMEOUT

        engine = ChoreoEngine(
            self._resolve_census(census),
            backend=backend,
            timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
            **backend_options,
        )
        with engine:
            return engine.run(self, args, kwargs, location_args=location_args)

    def check(
        self,
        census: Optional[LocationsLike] = None,
        args: Sequence[Any] = (),
        kwargs: Optional[Mapping[str, Any]] = None,
        *,
        location_args: Optional[Mapping[Location, Sequence[Any]]] = None,
    ):
        """Pre-run census/ownership check (:func:`repro.analysis.check_choreography`)."""
        from .analysis import check_choreography

        return check_choreography(
            self, self._resolve_census(census), args=args, kwargs=kwargs,
            location_args=location_args,
        )

    def cost(
        self,
        census: Optional[LocationsLike] = None,
        *args: Any,
        **kwargs: Any,
    ):
        """Predicted communication cost (:func:`repro.analysis.communication_cost`)."""
        from .analysis import communication_cost

        return communication_cost(self, self._resolve_census(census), *args, **kwargs)


def choreography(
    fn: Optional[Choreography] = None,
    *,
    name: Optional[str] = None,
    census: Optional[LocationsLike] = None,
) -> Any:
    """Decorator turning ``chor(op, …)`` into a :class:`ChoreographyDef`.

    Usable bare (``@choreography``) or with options
    (``@choreography(census=[...], name="...")``).
    """

    def wrap(target: Choreography) -> ChoreographyDef:
        return ChoreographyDef(target, name=name, census=census)

    return wrap if fn is None else wrap(fn)
