"""The local process language λL (paper Appendix D.6, Figures 19–21).

λL is the untyped target of endpoint projection: it looks like λC with the
ownership annotations erased, plus ``recv``/``send``/``send*`` operators and
the placeholder ``⊥`` standing for "somebody else's problem".  The
⊥-normalizing ``floor`` function (Figure 20) keeps expressions tidy so that the
semantics never has to evaluate things like ``Pair ⊥ ⊥`` or ``⊥ ()``.

The redex-finding machinery at the bottom of the module drives the network
semantics in :mod:`repro.formal.network`: it locates the next reducible
position under the same evaluation order as λC (function position first, then
argument), classifying it as a purely local step, a send, or a receive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Tuple

Party = str


class LExpr:
    """Base class for λL expressions ``B``."""

    __slots__ = ()


class LValue(LExpr):
    """Base class for λL values ``L``."""

    __slots__ = ()


@dataclass(frozen=True)
class LVar(LValue):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class LUnit(LValue):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class LBottom(LValue):
    """The placeholder ``⊥``: not an error, just "not my part of the program"."""

    def __str__(self) -> str:
        return "⊥"


@dataclass(frozen=True)
class LLam(LValue):
    param: str
    body: LExpr

    def __str__(self) -> str:
        return f"(λ{self.param}. {self.body})"


@dataclass(frozen=True)
class LInl(LValue):
    value: LValue

    def __str__(self) -> str:
        return f"Inl {self.value}"


@dataclass(frozen=True)
class LInr(LValue):
    value: LValue

    def __str__(self) -> str:
        return f"Inr {self.value}"


@dataclass(frozen=True)
class LPair(LValue):
    first: LValue
    second: LValue

    def __str__(self) -> str:
        return f"Pair {self.first} {self.second}"


@dataclass(frozen=True)
class LVec(LValue):
    items: Tuple[LValue, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(item) for item in self.items) + ")"


@dataclass(frozen=True)
class LFst(LValue):
    def __str__(self) -> str:
        return "fst"


@dataclass(frozen=True)
class LSnd(LValue):
    def __str__(self) -> str:
        return "snd"


@dataclass(frozen=True)
class LLookup(LValue):
    index: int

    def __str__(self) -> str:
        return f"lookup^{self.index}"


@dataclass(frozen=True)
class LRecv(LValue):
    """Expect a message from ``sender``; the argument it is applied to is ignored."""

    sender: Party

    def __str__(self) -> str:
        return f"recv[{self.sender}]"


@dataclass(frozen=True)
class LSend(LValue):
    """Send the argument to every party in ``recipients``.

    ``keep_self`` distinguishes ``send*`` (evaluates to the sent value, used
    when the sender is itself among the choreographic recipients) from plain
    ``send`` (evaluates to ⊥).
    """

    recipients: FrozenSet[Party]
    keep_self: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "recipients", frozenset(self.recipients))

    def __str__(self) -> str:
        star = "*" if self.keep_self else ""
        return f"send{star}[{','.join(sorted(self.recipients))}]"


@dataclass(frozen=True)
class LApp(LExpr):
    function: LExpr
    argument: LExpr

    def __str__(self) -> str:
        return f"({self.function} {self.argument})"


@dataclass(frozen=True)
class LCase(LExpr):
    scrutinee: LExpr
    left_var: str
    left_body: LExpr
    right_var: str
    right_body: LExpr

    def __str__(self) -> str:
        return (
            f"case {self.scrutinee} of Inl {self.left_var} ⇒ {self.left_body}; "
            f"Inr {self.right_var} ⇒ {self.right_body}"
        )


def is_local_value(expr: LExpr) -> bool:
    """True when ``expr`` is a λL value."""
    return isinstance(expr, LValue)


BOTTOM = LBottom()


# ========================================================================== floor --


def floor(expr: LExpr) -> LExpr:
    """The ⊥-normalizing function ⌊·⌋ of Figure 20 (idempotent)."""
    if isinstance(expr, LApp):
        function = floor(expr.function)
        argument = floor(expr.argument)
        if isinstance(function, LBottom) and is_local_value(argument):
            return BOTTOM
        if isinstance(argument, LBottom) and isinstance(function, (LFst, LSnd, LLookup)):
            return BOTTOM  # a tuple this party owns no item of is ⊥, and so is its item
        return LApp(function, argument)
    if isinstance(expr, LCase):
        scrutinee = floor(expr.scrutinee)
        if isinstance(scrutinee, LBottom):
            return BOTTOM
        return LCase(
            scrutinee,
            expr.left_var,
            floor(expr.left_body),
            expr.right_var,
            floor(expr.right_body),
        )
    if isinstance(expr, LLam):
        return LLam(expr.param, floor(expr.body))
    if isinstance(expr, LInl):
        inner = floor(expr.value)
        if isinstance(inner, LBottom):
            return BOTTOM
        return LInl(inner)
    if isinstance(expr, LInr):
        inner = floor(expr.value)
        if isinstance(inner, LBottom):
            return BOTTOM
        return LInr(inner)
    if isinstance(expr, LPair):
        first = floor(expr.first)
        second = floor(expr.second)
        if isinstance(first, LBottom) and isinstance(second, LBottom):
            return BOTTOM
        return LPair(first, second)
    if isinstance(expr, LVec):
        items = tuple(floor(item) for item in expr.items)
        if items and all(isinstance(item, LBottom) for item in items):
            return BOTTOM
        return LVec(items)
    return expr


# ==================================================================== substitution --


def substitute_local(expr: LExpr, name: str, value: LExpr) -> LExpr:
    """Capture-naive substitution ``B[x := L]`` (λL is untyped and first-order enough)."""
    if isinstance(expr, LVar):
        return value if expr.name == name else expr
    if isinstance(expr, LApp):
        return LApp(
            substitute_local(expr.function, name, value),
            substitute_local(expr.argument, name, value),
        )
    if isinstance(expr, LCase):
        left_body = expr.left_body if expr.left_var == name else substitute_local(
            expr.left_body, name, value
        )
        right_body = expr.right_body if expr.right_var == name else substitute_local(
            expr.right_body, name, value
        )
        return LCase(
            substitute_local(expr.scrutinee, name, value),
            expr.left_var,
            left_body,
            expr.right_var,
            right_body,
        )
    if isinstance(expr, LLam):
        if expr.param == name:
            return expr
        return LLam(expr.param, substitute_local(expr.body, name, value))
    if isinstance(expr, LInl):
        return LInl(substitute_local(expr.value, name, value))
    if isinstance(expr, LInr):
        return LInr(substitute_local(expr.value, name, value))
    if isinstance(expr, LPair):
        return LPair(
            substitute_local(expr.first, name, value),
            substitute_local(expr.second, name, value),
        )
    if isinstance(expr, LVec):
        return LVec(tuple(substitute_local(item, name, value) for item in expr.items))
    return expr


# ================================================================= redex discovery --


@dataclass
class Redex:
    """The next reducible position of a λL expression.

    ``kind`` is one of ``"local"`` (β, case, projection — no communication),
    ``"send"`` (a ``send``/``send*`` applied to a value), or ``"recv"`` (a
    ``recv`` applied to a value).  ``plug`` rebuilds the whole expression from
    a replacement for the redex; for sends, ``payload`` is the value being sent
    and ``recipients``/``keep_self`` describe the operator; for receives,
    ``sender`` names the expected peer.
    """

    kind: str
    plug: Callable[[LExpr], LExpr]
    reduce_local: Optional[Callable[[], LExpr]] = None
    payload: Optional[LExpr] = None
    recipients: Optional[FrozenSet[Party]] = None
    keep_self: bool = False
    sender: Optional[Party] = None


class LocalStuckError(RuntimeError):
    """A λL expression that is neither a value nor reducible (ill-projected)."""


def find_redex(expr: LExpr) -> Optional[Redex]:
    """Locate the next redex under λC-compatible evaluation order, or ``None`` for values."""
    if is_local_value(expr):
        return None

    if isinstance(expr, LApp):
        if not is_local_value(expr.function):
            inner = find_redex(expr.function)
            if inner is None:
                raise LocalStuckError(f"function position cannot step: {expr.function}")
            return _wrap(inner, lambda hole: LApp(hole, expr.argument))
        if not is_local_value(expr.argument):
            inner = find_redex(expr.argument)
            if inner is None:
                raise LocalStuckError(f"argument position cannot step: {expr.argument}")
            return _wrap(inner, lambda hole: LApp(expr.function, hole))
        return _application_redex(expr)

    if isinstance(expr, LCase):
        if not is_local_value(expr.scrutinee):
            inner = find_redex(expr.scrutinee)
            if inner is None:
                raise LocalStuckError(f"scrutinee cannot step: {expr.scrutinee}")
            return _wrap(
                inner,
                lambda hole: LCase(
                    hole, expr.left_var, expr.left_body, expr.right_var, expr.right_body
                ),
            )
        scrutinee = expr.scrutinee
        if isinstance(scrutinee, LInl):
            return Redex(
                "local",
                plug=lambda replacement: replacement,
                reduce_local=lambda: floor(
                    substitute_local(expr.left_body, expr.left_var, scrutinee.value)
                ),
            )
        if isinstance(scrutinee, LInr):
            return Redex(
                "local",
                plug=lambda replacement: replacement,
                reduce_local=lambda: floor(
                    substitute_local(expr.right_body, expr.right_var, scrutinee.value)
                ),
            )
        raise LocalStuckError(f"case scrutinee is not an injection: {scrutinee}")

    raise LocalStuckError(f"unknown λL expression {expr!r}")


def _wrap(inner: Redex, context: Callable[[LExpr], LExpr]) -> Redex:
    previous_plug = inner.plug
    inner.plug = lambda replacement: floor(context(previous_plug(replacement)))
    return inner


def _application_redex(expr: LApp) -> Redex:
    function = expr.function
    argument = expr.argument

    if isinstance(function, LLam):
        return Redex(
            "local",
            plug=lambda replacement: replacement,
            reduce_local=lambda: floor(substitute_local(function.body, function.param, argument)),
        )
    if isinstance(function, LFst):
        if not isinstance(argument, LPair):
            raise LocalStuckError(f"fst applied to non-pair {argument}")
        return Redex("local", plug=lambda r: r, reduce_local=lambda: argument.first)
    if isinstance(function, LSnd):
        if not isinstance(argument, LPair):
            raise LocalStuckError(f"snd applied to non-pair {argument}")
        return Redex("local", plug=lambda r: r, reduce_local=lambda: argument.second)
    if isinstance(function, LLookup):
        if not isinstance(argument, LVec) or not 0 <= function.index < len(argument.items):
            raise LocalStuckError(f"lookup^{function.index} applied to {argument}")
        return Redex(
            "local", plug=lambda r: r, reduce_local=lambda: argument.items[function.index]
        )
    if isinstance(function, LSend):
        return Redex(
            "send",
            plug=lambda replacement: replacement,
            payload=argument,
            recipients=function.recipients,
            keep_self=function.keep_self,
        )
    if isinstance(function, LRecv):
        return Redex(
            "recv",
            plug=lambda replacement: replacement,
            sender=function.sender,
        )
    raise LocalStuckError(f"cannot apply {function}")
