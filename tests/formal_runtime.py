"""Run the paper's λC programs on the runtime, and record what each endpoint did.

:func:`choreography` translates a closed, well-typed λC expression
(:mod:`repro.formal.syntax`) into a ``chor(op)`` over :class:`ChoreoOp`, part
by part:

========================  ================================================
λC                        runtime
========================  ================================================
data literal              ``op.congruently(owners, …)``
``App(Com(s, R), M)``     ``op.multicast(s, R, ⟦M⟧)``
``Case``                  ``op.conclave_to(owners, result_owners, body)``;
                          the body ``naked``-unwraps the restricted scrutinee
``App(Lam, M)``           ``conclave_to`` over the lambda's owners, after
                          restricting the argument (item by item for a
                          tuple; a function passes as it is)
``Lam`` as a value        a :class:`Closure`, applied like ``App(Lam, M)``
``Fst``/``Snd``/``Lookup``  ``congruently`` at the projector's owners
``Vec``                   a tuple of located values
========================  ================================================

:func:`repro.formal.typecheck.type_of` supplies each conclave's result
owners, which parties outside it cannot compute.  A data value travels as
its :func:`canonical` form, so a run's value at a party compares with the
formal value masked to that party (:func:`masked_at`).

:class:`RecordingTransport` is a :class:`~repro.runtime.local.LocalTransport`
whose endpoints log each ``_send_frame`` as ``("send", receivers)`` and each
``_recv_frame`` as ``("recv", sender)``; :func:`formal_actions` derives the
same per-party sequences from a λN run of the projected network.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.formal.mask import mask_value
from repro.formal.network import run_network
from repro.formal.projection import project_network
from repro.formal.syntax import (
    App, Case, Com, Expr, Fst, Inl, Inr, Lam, Lookup, Pair, Snd, TData, TFun, TVec, Type, Unit,
    Value, Var, Vec,
)
from repro.formal.typecheck import type_of
from repro.runtime.local import LocalTransport

Action = Tuple[str, Any]  # ("send", frozenset of receivers) or ("recv", sender)


def canonical(value: Value) -> Any:
    """A λC data value as a plain, comparable Python value."""
    if isinstance(value, Unit):
        return ()
    if isinstance(value, Inl):
        return ("inl", canonical(value.value))
    if isinstance(value, Inr):
        return ("inr", canonical(value.value))
    if isinstance(value, Pair):
        return ("pair", canonical(value.first), canonical(value.second))
    raise TypeError(f"not a data value: {value}")


def masked_at(value: Value, party: str) -> Optional[Any]:
    """What ``party`` holds of a λC value: its masked canonical form, or ``None``."""
    masked = mask_value(value, frozenset({party}))
    return None if masked is None else canonical(masked)


class Closure(NamedTuple):
    """A λC function value: the lambda and the environments it was made in."""

    lam: Lam
    env: Dict[str, Any]
    tenv: Dict[str, Any]


def restricted(op, value: Any, param_type: Type) -> Any:
    """``value`` as a parameter of type ``param_type`` sees it: each located
    datum restricted to its owners there, a function unchanged."""
    if isinstance(param_type, TVec):
        return tuple(restricted(op, item, item_type)
                     for item, item_type in zip(value, param_type.items))
    if isinstance(param_type, TFun):
        return value
    return op.restrict(value, sorted(param_type.owners))


def choreography(census: FrozenSet[str], expr: Expr):
    """``chor(op)`` running ``expr``, closed and well-typed in ``census``."""
    return lambda op: interpret(op, frozenset(census), {}, {}, expr)


def interpret(op, census: FrozenSet[str], env: Dict[str, Any], tenv: Dict[str, Any],
              expr: Expr) -> Any:
    """``⟦expr⟧`` at ``op``: a located value (a tuple of them for a ``Vec``)."""
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Lam):
        return Closure(expr, env, tenv)
    if isinstance(expr, Vec):
        return tuple(interpret(op, census, env, tenv, item) for item in expr.items)
    if isinstance(expr, (Unit, Inl, Inr, Pair)):
        literal = canonical(expr)
        return op.congruently(sorted(type_of(census, tenv, expr).owners), lambda _un: literal)
    if not isinstance(expr, (Case, App)):
        raise TypeError(f"no translation for {expr}")
    result_owners = sorted(type_of(census, tenv, expr).owners)
    if isinstance(expr, Case):
        owners = expr.owners
        scrutinee = interpret(op, census, env, tenv, expr.scrutinee)
        sum_data = type_of(census, tenv, expr.scrutinee).data

        def branch(sub, shared):
            tag, payload = sub.naked(shared)
            var, body, data = ((expr.left_var, expr.left_body, sum_data.left) if tag == "inl"
                               else (expr.right_var, expr.right_body, sum_data.right))
            bound = sub.congruently(sorted(owners), lambda _un: payload)
            return interpret(sub, owners, {**env, var: bound},
                             {**tenv, var: TData(data, owners)}, body)

        return op.conclave_to(sorted(owners), result_owners, branch,
                              op.restrict(scrutinee, sorted(owners)))
    function, argument = expr.function, interpret(op, census, env, tenv, expr.argument)
    if isinstance(function, Com):
        return op.multicast(function.sender, sorted(function.receivers), argument)
    if isinstance(function, (Lam, Var)):
        lam, lam_env, lam_tenv = interpret(op, census, env, tenv, function)

        def body(sub, shared):
            return interpret(sub, lam.owners, {**lam_env, lam.param: shared},
                             {**lam_tenv, lam.param: lam.param_type}, lam.body)

        return op.conclave_to(sorted(lam.owners), result_owners, body,
                              restricted(op, argument, lam.param_type))
    if isinstance(function, Lookup):
        item = argument[function.index]
        return op.congruently(result_owners, lambda un: un(item))
    if isinstance(function, (Fst, Snd)):
        index = 1 if isinstance(function, Fst) else 2
        return op.congruently(result_owners, lambda un: un(argument)[index])
    raise TypeError(f"no translation for {expr}")


def formal_actions(expr: Expr) -> Dict[str, List[Action]]:
    """Each role's ordered sends and receives in a λN run of ``⟦expr⟧``
    (a send to nobody, a ``send*`` to the sender alone, is no action)."""
    run = run_network(project_network(expr))
    assert run.completed, run.status
    actions: Dict[str, List[Action]] = {party: [] for party in run.network}
    for step in run.steps:
        if step.kind == "comm" and step.receivers:
            actions[step.actor].append(("send", frozenset(step.receivers)))
            for receiver in step.receivers:
                actions[receiver].append(("recv", step.actor))
    return actions


class RecordingTransport(LocalTransport):
    """A local transport whose endpoints record their ordered frame actions."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.actions: Dict[str, List[Action]] = {party: [] for party in self.census}

    def _make_endpoint(self, location):
        endpoint = super()._make_endpoint(location)
        send_frame, recv_frame, log = endpoint._send_frame, endpoint._recv_frame, self.actions

        def recording_send(receivers, data, instance):
            log[location].append(("send", frozenset(receivers)))
            send_frame(receivers, data, instance)

        def recording_recv(sender):
            log[location].append(("recv", sender))
            return recv_frame(sender)

        endpoint._send_frame, endpoint._recv_frame = recording_send, recording_recv
        return endpoint

    def clear(self) -> None:
        """Forget what was recorded so far."""
        for actions in self.actions.values():
            actions.clear()
