"""Random well-typed λC programs.

The metatheory checkers in :mod:`repro.formal.properties` are only as
convincing as the programs they are run on.  This module generates closed,
well-typed λC expressions *by construction* from a plain
:class:`random.Random` seeded per program, so a benchmark corpus and a
property-based test (which draws the seed) share one generator.  Generated
programs exercise every syntactic form: multiply-located data (including
pairs whose parts have different owners), multicast communication, conclaved
case expressions, lambda application, functions passed as arguments, tuples
passed to lambdas, pairs and projections.  Communication is weighted so that
most programs send something: ``com`` is the likeliest shape, and a case's
scrutinee, a lambda's argument, a projected pair and a looked-up item are
each sent first half the time.
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
    TFun,
    TVec,
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


def value_of(
    data: Data, owners: PartySet, rng: Optional[random.Random] = None,
    spread: Sequence[str] = (),
) -> Value:
    """A canonical λC value of type ``data @ owners``.

    Each party of ``spread`` outside ``owners`` may also own one part of a
    pair (never both, so the pair's owners stay exactly ``owners``).
    """
    rng = rng or random.Random(0)
    if isinstance(data, UnitData):
        return Unit(owners)
    if isinstance(data, SumData):
        if rng.random() < 0.5:
            return Inl(value_of(data.left, owners, rng, spread), data.right)
        return Inr(value_of(data.right, owners, rng, spread), data.left)
    if isinstance(data, ProdData):
        sides = [rng.randrange(3) for _ in spread]
        left = owners | {party for party, side in zip(spread, sides) if side == 1}
        right = owners | {party for party, side in zip(spread, sides) if side == 2}
        return Pair(value_of(data.left, left, rng), value_of(data.right, right, rng))
    raise TypeError(f"unknown data type {data!r}")


#: Shapes of a data expression, ``com`` weighted up so most programs send.
_SHAPES = ("value", "com", "com", "com", "com", "case", "lambda", "higher_order",
           "vec_arg", "pair_proj", "vec_proj")


def _maybe_sent(
    rng: random.Random, value: Expr, owners: PartySet, receivers: PartySet
) -> Tuple[Expr, PartySet]:
    """``value`` (owned by ``owners``), half the time first sent from one
    owner to ``receivers``: the expression and who then owns it."""
    if rng.random() < 0.5:
        return value, owners
    sender = rng.choice(sorted(owners))
    return App(Com(sender, receivers), value), receivers


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

    shape = rng.choice(_SHAPES)

    if shape == "value":
        data = random_data(rng, 2)
        return value_of(data, owners, rng, spread=census), TData(data, owners)

    if shape == "com":
        # A multicast from one owner of the payload to a fresh recipient set.
        payload, payload_type = random_data_expression(rng, census, depth - 1)
        sender = rng.choice(sorted(payload_type.owners))
        receivers = _nonempty_subset(rng, census)
        return App(Com(sender, receivers), payload), TData(payload_type.data, receivers)

    if shape == "case":
        # Branch (inside a conclave) on a sum scrutineed by every branch owner,
        # often after one party tells them which branch it is.
        branch_owners = _nonempty_subset(rng, census)
        scrutinee_owners = _superset_within(rng, branch_owners, census)
        left_data = random_data(rng, 1)
        right_data = random_data(rng, 1)
        sum_data = SumData(left_data, right_data)
        if rng.random() < 0.5:
            scrutinee: Expr = value_of(sum_data, scrutinee_owners, rng)
        else:
            source = _nonempty_subset(rng, census)
            scrutinee = App(Com(rng.choice(sorted(source)), scrutinee_owners),
                            value_of(sum_data, source, rng))
        left_body, result_type = random_data_expression(
            rng, sorted(branch_owners), depth - 1
        )
        right_body = value_of(result_type.data, result_type.owners, rng)
        variable = f"x{rng.randrange(1000)}"
        if rng.random() < 0.5:
            left_body, right_body = right_body, left_body
        return (
            Case(branch_owners, scrutinee, variable, left_body, variable, right_body),
            result_type,
        )

    if shape in ("lambda", "higher_order"):
        # Apply a located function to an argument it can see; "higher_order"
        # passes the function to another lambda, which applies it.
        outer = _nonempty_subset(rng, census) if shape == "higher_order" else None
        pool = sorted(outer) if outer else census
        argument, argument_type = random_data_expression(rng, pool, depth - 1)
        argument, argument_owners = _maybe_sent(
            rng, argument, argument_type.owners, _nonempty_subset(rng, pool))
        lam_owners = _nonempty_subset(rng, sorted(argument_owners))
        param_type = TData(argument_type.data, lam_owners)
        variable = f"x{rng.randrange(1000)}"
        if rng.random() < 0.5:
            body: Expr = Var(variable)
            result_type = param_type
        else:
            body, result_type = random_data_expression(rng, sorted(lam_owners), depth - 1)
        lam = Lam(variable, param_type, body, lam_owners)
        if outer is None:
            return App(lam, argument), result_type
        function = f"f{rng.randrange(1000)}"
        function_type = TFun(param_type, result_type, lam_owners)
        applier = Lam(function, function_type, App(Var(function), argument), outer)
        return App(applier, lam), result_type

    if shape == "vec_arg":
        # A tuple passed to a lambda, which looks one item up (and may send it).
        lam_owners = _nonempty_subset(rng, census)
        pivot = rng.choice(sorted(lam_owners))
        items: List[Value] = []
        item_types: List[TData] = []
        for _ in range(rng.randint(1, 3)):
            data = random_data(rng, 1)
            item_owners = _superset_within(rng, frozenset({pivot}), sorted(lam_owners))
            items.append(value_of(data, item_owners, rng))
            item_types.append(TData(data, item_owners))
        index = rng.randrange(len(items))
        projector_owners = _superset_within(rng, frozenset({pivot}), sorted(lam_owners))
        chosen = item_types[index]
        variable = f"v{rng.randrange(1000)}"
        body, result_owners = _maybe_sent(
            rng, App(Lookup(index, projector_owners), Var(variable)),
            chosen.owners & projector_owners, _nonempty_subset(rng, sorted(lam_owners)))
        lam = Lam(variable, TVec(tuple(item_types)), body, lam_owners)
        return App(lam, Vec(tuple(items))), TData(chosen.data, result_owners)

    if shape == "pair_proj":
        left_data = random_data(rng, 1)
        right_data = random_data(rng, 1)
        pair_data = ProdData(left_data, right_data)
        pair, pair_owners = _maybe_sent(
            rng, value_of(pair_data, owners, rng, spread=census), owners,
            _nonempty_subset(rng, census))
        projector_owners = _nonempty_subset(rng, sorted(pair_owners))
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
