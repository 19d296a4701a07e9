"""Executable checkers for the paper's metatheory (§4.1, Appendices F–I).

The paper proves progress, preservation, and soundness/completeness of
endpoint projection for λC, from which deadlock freedom (Corollary 1) follows.
Those proofs cannot be re-run mechanically here, but each theorem has a
*falsifiable executable counterpart* that the test suite and the formal
benchmarks exercise over hand-written and randomly generated well-typed
programs:

* :func:`check_preservation` — every reduct of a well-typed program has the
  same type (Theorem 2 is stated for exactly-preserved monomorphic types).
* :func:`check_progress` — reduction never gets stuck before reaching a value
  (Theorem 3).
* :func:`check_projection` — the projected network runs to completion and
  every endpoint ends holding the projection of the centralized result
  (Theorems 4 and 5 combined: the network can neither do less nor "more" than
  the choreography), under deterministic and randomized schedulers.
* :func:`check_deadlock_freedom` — the network never reaches a state that is
  neither terminal-with-values nor able to step (Corollary 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .local_lang import LExpr, is_local_value
from .network import NetworkRun, run_network
from .projection import project, project_network
from .semantics import StuckError, evaluate, trace
from .syntax import Expr, PartySet, Type, roles
from .typecheck import FormalTypeError, typecheck


@dataclass
class PropertyReport:
    """Outcome of checking one property on one program."""

    holds: bool
    details: str = ""
    extra: Dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def check_preservation(census: PartySet, expr: Expr, max_steps: int = 10_000) -> PropertyReport:
    """Every intermediate expression of the reduction sequence has the original type."""
    try:
        expected = typecheck(census, expr)
    except FormalTypeError as exc:
        return PropertyReport(False, f"initial expression does not typecheck: {exc}")
    try:
        states = trace(expr, max_steps=max_steps)
    except StuckError as exc:
        return PropertyReport(False, f"evaluation got stuck: {exc}")
    for index, state in enumerate(states):
        try:
            observed = typecheck(census, state)
        except FormalTypeError as exc:
            return PropertyReport(
                False, f"step {index} no longer typechecks: {exc}", {"state": state}
            )
        if observed != expected:
            return PropertyReport(
                False,
                f"step {index} has type {observed}, expected {expected}",
                {"state": state},
            )
    return PropertyReport(True, f"type {expected} preserved across {len(states) - 1} steps")


def check_progress(census: PartySet, expr: Expr, max_steps: int = 10_000) -> PropertyReport:
    """A well-typed program reduces to a value without ever getting stuck."""
    try:
        typecheck(census, expr)
    except FormalTypeError as exc:
        return PropertyReport(False, f"initial expression does not typecheck: {exc}")
    try:
        value = evaluate(expr, max_steps=max_steps)
    except StuckError as exc:
        return PropertyReport(False, f"evaluation got stuck: {exc}")
    return PropertyReport(True, f"evaluated to {value}")


def check_projection(
    census: PartySet,
    expr: Expr,
    *,
    schedules: int = 3,
    seed: int = 0,
    max_steps: int = 100_000,
) -> PropertyReport:
    """The projected network terminates and agrees with the centralized result.

    Runs the network once with the deterministic scheduler and ``schedules``
    more times with randomized schedulers; every run must finish with each
    endpoint holding exactly the projection of the centralized value.
    """
    try:
        typecheck(census, expr)
    except FormalTypeError as exc:
        return PropertyReport(False, f"initial expression does not typecheck: {exc}")
    try:
        central_value = evaluate(expr)
    except StuckError as exc:
        return PropertyReport(False, f"centralized evaluation got stuck: {exc}")

    participants = roles(expr)
    expected: Dict[str, LExpr] = {
        party: project(central_value, party) for party in participants
    }

    schedulers: List[Optional[random.Random]] = [None]
    schedulers.extend(random.Random(seed + index) for index in range(schedules))
    message_counts = []
    for index, rng in enumerate(schedulers):
        run = run_network(project_network(expr), max_steps=max_steps, rng=rng)
        if not run.completed:
            return PropertyReport(
                False,
                f"schedule {index}: network ended with status {run.status!r}",
                {"network": run.network},
            )
        for party in participants:
            if run.network[party] != expected[party]:
                return PropertyReport(
                    False,
                    f"schedule {index}: endpoint {party!r} finished with "
                    f"{run.network[party]} but the projection of the centralized value "
                    f"is {expected[party]}",
                    {"network": run.network},
                )
        message_counts.append(run.message_count)
    return PropertyReport(
        True,
        f"{len(schedulers)} schedules agree with the centralized value",
        {"message_counts": message_counts, "central_value": central_value},
    )


def check_deadlock_freedom(
    census: PartySet, expr: Expr, *, schedules: int = 3, seed: int = 0
) -> PropertyReport:
    """Corollary 1: projected well-typed programs never deadlock.

    Every scheduler run must end with status ``done`` and every role holding a
    λL value.
    """
    try:
        typecheck(census, expr)
    except FormalTypeError as exc:
        return PropertyReport(False, f"initial expression does not typecheck: {exc}")

    schedulers: List[Optional[random.Random]] = [None]
    schedulers.extend(random.Random(seed + index) for index in range(schedules))
    for index, rng in enumerate(schedulers):
        run = run_network(project_network(expr), rng=rng)
        if run.status == "deadlock":
            return PropertyReport(
                False, f"schedule {index} deadlocked", {"network": run.network}
            )
        if run.status != "done":
            return PropertyReport(
                False, f"schedule {index} did not terminate ({run.status})",
                {"network": run.network},
            )
        if not all(is_local_value(program) for program in run.network.values()):
            return PropertyReport(
                False, f"schedule {index} finished with a non-value endpoint",
                {"network": run.network},
            )
    return PropertyReport(True, f"no deadlock across {len(schedulers)} schedules")


def check_all(census: PartySet, expr: Expr, *, seed: int = 0) -> Dict[str, PropertyReport]:
    """Run every checker on one program (used by the corpus tests)."""
    return {
        "preservation": check_preservation(census, expr),
        "progress": check_progress(census, expr),
        "projection": check_projection(census, expr, seed=seed),
        "deadlock_freedom": check_deadlock_freedom(census, expr, seed=seed),
    }
