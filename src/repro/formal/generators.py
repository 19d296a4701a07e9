"""Random well-typed λC programs.

The metatheory checkers in :mod:`repro.formal.properties` are only as
convincing as the programs they are run on.  This module generates closed,
well-typed λC expressions *by construction* from a plain
:class:`random.Random` seeded per program, so a benchmark corpus and a
property-based test (which draws the seed) share one generator.  Generated
programs exercise every syntactic form: multiply-located data, multicast
communication, conclaved case expressions, lambda application, pairs, tuples
and projections.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .syntax import (
    App,
    Case,
    Com,
    Data,
    Expr,
    Fst,
    Inl,
    Inr,
    Lam,
    Lookup,
    Pair,
    PartySet,
    ProdData,
    Snd,
    SumData,
    TData,
    UnitData,
    Unit,
    Value,
    Var,
    Vec,
)

#: A generated program together with the census it is meant to be typed in.
GeneratedProgram = Tuple[PartySet, Expr]


def _nonempty_subset(rng: random.Random, pool: Sequence[str]) -> PartySet:
    size = rng.randint(1, len(pool))
    return frozenset(rng.sample(list(pool), size))


def _superset_within(rng: random.Random, base: PartySet, pool: Sequence[str]) -> PartySet:
    extras = [party for party in pool if party not in base]
    if extras and rng.random() < 0.5:
        picked = rng.sample(extras, rng.randint(1, len(extras)))
        return base | frozenset(picked)
    return base


def random_data(rng: random.Random, depth: int) -> Data:
    """A random communicable data type of bounded depth."""
    if depth <= 0 or rng.random() < 0.4:
        return UnitData()
    if rng.random() < 0.5:
        return SumData(random_data(rng, depth - 1), random_data(rng, depth - 1))
    return ProdData(random_data(rng, depth - 1), random_data(rng, depth - 1))


def value_of(data: Data, owners: PartySet, rng: Optional[random.Random] = None) -> Value:
    """A canonical λC value of type ``data @ owners``."""
    rng = rng or random.Random(0)
    if isinstance(data, UnitData):
        return Unit(owners)
    if isinstance(data, SumData):
        if rng.random() < 0.5:
            return Inl(value_of(data.left, owners, rng), data.right)
        return Inr(value_of(data.right, owners, rng), data.left)
    if isinstance(data, ProdData):
        return Pair(value_of(data.left, owners, rng), value_of(data.right, owners, rng))
    raise TypeError(f"unknown data type {data!r}")


def random_data_expression(
    rng: random.Random, census: Sequence[str], depth: int
) -> Tuple[Expr, TData]:
    """A random well-typed expression of data type, together with its type.

    The expression is closed and well-typed in ``census`` by construction.
    """
    owners = _nonempty_subset(rng, census)
    if depth <= 0:
        data = random_data(rng, 1)
        return value_of(data, owners, rng), TData(data, owners)

    shape = rng.choice(["value", "com", "case", "lambda", "pair_proj", "vec_proj"])

    if shape == "value":
        data = random_data(rng, 2)
        return value_of(data, owners, rng), TData(data, owners)

    if shape == "com":
        # A multicast from one owner of the payload to a fresh recipient set.
        payload, payload_type = random_data_expression(rng, census, depth - 1)
        sender = rng.choice(sorted(payload_type.owners))
        receivers = _nonempty_subset(rng, census)
        return App(Com(sender, receivers), payload), TData(payload_type.data, receivers)

    if shape == "case":
        # Branch (inside a conclave) on a sum scrutineed by every branch owner.
        branch_owners = _nonempty_subset(rng, census)
        scrutinee_owners = _superset_within(rng, branch_owners, census)
        left_data = random_data(rng, 1)
        right_data = random_data(rng, 1)
        if rng.random() < 0.5:
            scrutinee: Expr = Inl(value_of(left_data, scrutinee_owners, rng), right_data)
        else:
            scrutinee = Inr(value_of(right_data, scrutinee_owners, rng), left_data)
        left_body, result_type = random_data_expression(
            rng, sorted(branch_owners), depth - 1
        )
        right_body = value_of(result_type.data, result_type.owners, rng)
        variable = f"x{rng.randrange(1000)}"
        return (
            Case(branch_owners, scrutinee, variable, left_body, variable, right_body),
            result_type,
        )

    if shape == "lambda":
        # Apply a located function to an argument it can see.
        argument, argument_type = random_data_expression(rng, census, depth - 1)
        lam_owners = _nonempty_subset(rng, sorted(argument_type.owners))
        param_type = TData(argument_type.data, lam_owners)
        variable = f"x{rng.randrange(1000)}"
        if rng.random() < 0.5:
            body: Expr = Var(variable)
            result_type = param_type
        else:
            body, result_type = random_data_expression(rng, sorted(lam_owners), depth - 1)
        lam = Lam(variable, param_type, body, lam_owners)
        return App(lam, argument), result_type

    if shape == "pair_proj":
        left_data = random_data(rng, 1)
        right_data = random_data(rng, 1)
        pair = Pair(value_of(left_data, owners, rng), value_of(right_data, owners, rng))
        projector_owners = _nonempty_subset(rng, sorted(owners))
        if rng.random() < 0.5:
            return App(Fst(projector_owners), pair), TData(left_data, projector_owners)
        return App(Snd(projector_owners), pair), TData(right_data, projector_owners)

    # vec_proj: build a heterogeneous tuple of data values and look one up.
    width = rng.randint(1, 3)
    items = []
    item_types = []
    for _ in range(width):
        data = random_data(rng, 1)
        items.append(value_of(data, owners, rng))
        item_types.append(TData(data, owners))
    index = rng.randrange(width)
    projector_owners = _nonempty_subset(rng, sorted(owners))
    chosen = item_types[index]
    return (
        App(Lookup(index, projector_owners), Vec(tuple(items))),
        TData(chosen.data, projector_owners),
    )


def random_program(
    seed: int, parties: Sequence[str] = ("alice", "bob", "carol"), depth: int = 3
) -> GeneratedProgram:
    """A deterministic well-typed program for the given seed (benchmark corpus)."""
    rng = random.Random(seed)
    census = frozenset(parties)
    expr, _ = random_data_expression(rng, list(parties), depth)
    return census, expr


def program_corpus(
    count: int, parties: Sequence[str] = ("alice", "bob", "carol"), depth: int = 3
) -> List[GeneratedProgram]:
    """A reproducible corpus of ``count`` generated programs."""
    return [random_program(seed, parties, depth) for seed in range(count)]
