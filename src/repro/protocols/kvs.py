"""Replicated key-value store choreographies.

Two variants are provided, matching the paper's two presentations of the case
study:

* :func:`kvs_request` / :func:`kvs_serve` — the MultiChor version of Fig. 2:
  a client talks to a *primary* server, the primary multicasts the request to
  all the servers, the servers handle it inside a conclave (so the client is
  not bothered with their Knowledge-of-Choice traffic), writes can silently
  corrupt a replica, and a second conclave — re-using the *same* multiply-
  located request for KoC, with no additional messages — compares state hashes
  and resynchronises if needed.

* :func:`kvs_with_backups` — the ChoRus version of Appendix B: a single server
  with a parametric list of backups; Puts are replicated to the backups, whose
  acknowledgements are gathered before the server answers the client.

Both choreographies are census polymorphic: the number of servers/backups is
whatever the caller passes (``kvs_with_backups`` degrades gracefully to a
single unreplicated server when the backup list is empty).

The sharded cluster layer (:mod:`repro.cluster`) runs one replica group per
shard, and everything it serves is built from **one replicated round for
writes, one primary round for reads, one fence**:

* :func:`replicated` is the write round — the client's payload travels to
  the server, is broadcast inside the server+backups conclave (so it is
  multiply located there: Knowledge of Choice for free, and the client pays
  two messages whatever the replication factor), every backup applies it
  and acknowledges, the server applies it *last* (ack-before-apply) and
  answers.  It is census polymorphic down to an empty backup list.  Its
  instantiations supply only plain local step functions:
  :func:`kvs_with_backups` (one request; writes replicate, reads do not),
  :func:`kvs_delete` (a bare key), :func:`kvs_serve_batch` (group commit: a
  whole batch in one round), and :func:`kvs_txn` — the participant half of
  cross-shard two-phase commit, whose coordinator lives in the cluster
  layer (``ClusterEngine.submit_txn``): one round lands the decides the
  shard is owed (commit the parked writes atomically, or roll the intent
  back), then prepares at most one transaction, parking its write set as a
  per-key **intent** on every replica and voting.
* :func:`primary_read` is the read round — payload to the server, answer
  back, no backup involved.  The cluster knows a request's kind before it
  instantiates anything, so it *chooses* this round at dispatch and has no
  choice left to communicate.  Its instantiations: :func:`kvs_get` (a bare
  key), :func:`kvs_read_batch` (Gets only) and :func:`kvs_scan` (a prefix).
* :func:`fenced` is the split-brain fence of primary failover, expressed
  once as a combinator: it captures the shard's epoch from the live
  :class:`ShardEpoch` cell when a binding is made, and the wrapped
  choreography raises the typed :class:`StaleEpoch` at every participant,
  before any message moves, once a promotion has advanced the cell — so a
  binding that still routes through a deposed primary can neither serve a
  read nor acknowledge a write.

Three choreographies have a different shape and stand on their own:

* :func:`kvs_quorum_get` — read the key at *every* replica, gather the votes
  at the primary, answer with the majority, and (optionally) trigger a
  :func:`resynch` read-repair when the replicas disagree;
* :func:`kvs_ping` — a two-message liveness probe; a silent replica surfaces
  as a typed receive timeout, the raw signal behind the cluster's failure
  detector and its backup-demotion failover path;
* :func:`kvs_catchup` — bring a restarted replica back to state parity with
  the primary before it re-enters the replica group: the rejoiner reports the
  high-water mark its WAL replay reached, the primary streams either the
  delta since that mark or (when the delta was compacted away, or on a hash
  mismatch) its full store, and the transfer is verified with
  :func:`hash_state` before the re-join is allowed to proceed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ChoreographyError
from ..core.located import Faceted, Located
from ..core.locations import Census, Location, LocationsLike, as_census
from ..core.ops import ChoreoOp, Choreography
from ..storage import TXN_INTENT_TTL, apply_catchup, delta_since, high_water_of, txns_of
from . import crypto


class RequestKind(enum.Enum):
    """The request forms: the paper's three (Fig. 2, line 1) plus ``DELETE``.

    ``DELETE`` is a service-layer extension — a real KVS front door must be
    able to unbind a key, and the deletion is a *write*, so it replicates
    through the backups and write-ahead-logs like a Put (the WAL already
    speaks ``("del", key)`` records for ``resynch`` and shard migration).
    """

    PUT = "put"
    GET = "get"
    DELETE = "delete"
    STOP = "stop"


#: The request kinds that mutate replica state (and therefore replicate).
WRITE_KINDS = (RequestKind.PUT, RequestKind.DELETE)


@dataclass(frozen=True)
class Request:
    """A client request against the replicated store."""

    kind: RequestKind
    key: Optional[str] = None
    value: Optional[str] = None

    @staticmethod
    def put(key: str, value: str) -> "Request":
        return Request(RequestKind.PUT, key, value)

    @staticmethod
    def get(key: str) -> "Request":
        return Request(RequestKind.GET, key)

    @staticmethod
    def delete(key: str) -> "Request":
        return Request(RequestKind.DELETE, key)

    @staticmethod
    def stop() -> "Request":
        return Request(RequestKind.STOP)


class ResponseKind(enum.Enum):
    """The response forms: a found value, a miss, or the shutdown acknowledgement."""

    FOUND = "found"
    NOT_FOUND = "not_found"
    STOPPED = "stopped"


@dataclass(frozen=True)
class Response:
    """The server's answer to a request."""

    kind: ResponseKind
    value: Optional[str] = None

    @staticmethod
    def found(value: str) -> "Response":
        return Response(ResponseKind.FOUND, value)

    @staticmethod
    def not_found() -> "Response":
        return Response(ResponseKind.NOT_FOUND)

    @staticmethod
    def stopped() -> "Response":
        return Response(ResponseKind.STOPPED)


# -- epoch fencing (primary failover) ------------------------------------------------


class StaleEpoch(ChoreographyError):
    """A choreography bound under an old shard epoch tried to run after failover.

    The split-brain fence of primary failover: every promotion bumps the
    shard's epoch, and every data-plane choreography binding carries the
    epoch it was created under.  A binding from before the promotion — in
    the worst case one still routing traffic through the deposed primary —
    fails with this typed error *before any message is sent*, so a zombie
    old head can never serve a read or acknowledge a write.  The cluster
    layer treats it as a replayable condition: the in-flight submit is
    re-dispatched against the current-epoch binding.
    """

    def __init__(self, bound_epoch: int, current_epoch: int):
        self.bound_epoch = bound_epoch
        self.current_epoch = current_epoch
        super().__init__(
            f"stale shard epoch {bound_epoch}: the shard is at epoch {current_epoch}"
        )


class ShardEpoch:
    """The live epoch cell one shard's bindings are fenced against.

    Shared global knowledge: every replica session of a shard holds the
    *same* cell, bindings capture the epoch *value* current when they were
    made, and :meth:`require` compares the two at run time.  The comparison
    is a pure function of (binding epoch, cell value), identical at every
    location, so a stale binding fails deterministically at *all* endpoints
    at once — no timeouts, no partial executions.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = int(value)

    def advance(self, epoch: int) -> None:
        """Move the fence forward (promotions only ever raise the epoch)."""
        self.value = max(self.value, int(epoch))

    def require(self, epoch: Optional[int]) -> None:
        """Fail with :class:`StaleEpoch` unless ``epoch`` is current."""
        if epoch is not None and epoch != self.value:
            raise StaleEpoch(epoch, self.value)


def fenced(chor: Choreography, fence: ShardEpoch) -> Choreography:
    """``chor``, fenced against promotions that happen after this call.

    The epoch is captured from ``fence`` now, at binding time; the returned
    choreography checks it against the live cell before delegating.  Every
    participant runs that check first, so a stale binding fails with
    :class:`StaleEpoch` at each of them at once and nothing is sent.
    """
    epoch = fence.value

    def run(op: ChoreoOp, *args: Any, **kwargs: Any) -> Any:
        fence.require(epoch)
        return chor(op, *args, **kwargs)

    return run


# -- local (non-choreographic) state handling ----------------------------------------

State = Dict[str, str]


def update_state(
    state: State, key: str, value: str, *, fault_rate: float = 0.0, rng=None
) -> Response:
    """Store ``value`` under ``key`` and return the previous binding.

    With probability ``fault_rate`` the wrong value is silently written — the
    paper's deliberately unreliable ``updateState`` that makes the hash-check /
    resynch phase meaningful.
    """
    previous = state.get(key)
    written = value
    if fault_rate > 0.0 and rng is not None and rng.random() < fault_rate:
        written = value + "#corrupted"
    state[key] = written
    if previous is None:
        return Response.not_found()
    return Response.found(previous)


def lookup_state(state: State, key: str) -> Response:
    """Read ``key`` from the store."""
    value = state.get(key)
    if value is None:
        return Response.not_found()
    return Response.found(value)


def delete_state(state: State, key: str) -> Response:
    """Unbind ``key`` and return the previous binding.

    The mutation goes through the store's ordinary ``pop``, so a
    :class:`~repro.storage.DurableState` replica write-ahead-logs the
    deletion (a ``("del", key)`` record) before dropping it from memory —
    deletes survive crash-restart replay exactly like puts.

    Returns:
        ``Response.found(previous)`` when the key was bound,
        ``Response.not_found()`` otherwise (deleting an absent key logs
        nothing).
    """
    if key not in state:
        return Response.not_found()
    return Response.found(state.pop(key))


def apply_write(state: State, request: Request) -> Response:
    """Apply one write request (Put or Delete) through the store's mutators."""
    if request.kind is RequestKind.PUT:
        return update_state(state, request.key, request.value)
    if request.kind is RequestKind.DELETE:
        return delete_state(state, request.key)
    raise ValueError(f"not a write request: {request.kind!r}")


def serve_request(state: State, request: Request) -> Response:
    """Answer one request from one store: apply a write, look up a Get."""
    if request.kind in WRITE_KINDS:
        return apply_write(state, request)
    if request.kind is RequestKind.GET:
        return lookup_state(state, request.key)
    return Response.stopped()


def scan_state(state: State, prefix: str = "") -> List[Tuple[str, str]]:
    """All ``(key, value)`` bindings whose key starts with ``prefix``, sorted.

    Args:
        state: One replica's store.
        prefix: Key prefix to match; the empty string matches everything.

    Returns:
        The matching items in ascending key order (a deterministic order, so
        per-shard scan results merge cleanly across a cluster).
    """
    return sorted(item for item in state.items() if item[0].startswith(prefix))


def hash_state(state: State) -> int:
    """A deterministic digest of a replica's contents, used to detect divergence."""
    return hash(tuple(sorted(state.items())))


# -- two-phase commit: per-replica state transitions ----------------------------------
#
# A transaction's *write set* is ``{key: value}`` with ``None`` meaning
# delete.  Prepare/decide below are pure functions of (store contents,
# intent table, arguments), so every replica of a shard — holding identical
# stores by the ack-before-apply invariant — computes the same vote
# independently; divergence (a rejoiner with a truncated intent table, an
# expired intent) can only turn a grant into a refusal, never two replicas
# into different commits, because commits are coordinator-decided and the
# decide record carries its writes.

Writes = Dict[str, Optional[str]]
#: One verdict a shard is owed: ``(txn_id, "commit" | "abort", writes)``.
Decide = Tuple[str, str, Writes]


def txn_conflicts(
    state: State, txn_id: str, writes: Writes, expects: Optional[Writes]
) -> List[str]:
    """The keys blocking ``txn_id``'s prepare at this replica, sorted.

    A key blocks when another *live* prepared transaction holds a write
    intent on it (write-write conflict), or when an ``expects`` guard —
    the optimistic-concurrency check of a read-modify-write transaction —
    no longer matches the committed value (``None`` expects the key to be
    unbound).  Intents older than :data:`~repro.storage.TXN_INTENT_TTL`
    prepare attempts are presumed aborted and do not block; the same
    horizon drops them from the table when this attempt is logged.
    """
    table = txns_of(state)
    horizon = getattr(state, "txn_tick", 0) + 1 - TXN_INTENT_TTL
    blocked = set()
    for other_id, entry in table.items():
        if other_id == txn_id or entry["tick"] <= horizon:
            continue
        blocked.update(key for key in writes if key in entry["writes"])
    for key, expected in (expects or {}).items():
        if state.get(key) != expected:
            blocked.add(key)
    return sorted(blocked)


def txn_prepare_state(
    state: State, txn_id: str, writes: Writes, expects: Optional[Writes]
) -> List[str]:
    """Phase one at one replica: vote, and park the intent when granted.

    Returns the blocking keys — empty means the vote is *yes* and the write
    set is parked as this replica's intent for ``txn_id``.  Re-preparing an
    already-parked transaction (a replayed submit after failover) is
    idempotent: still granted, nothing re-logged.  Both outcomes otherwise
    log a prepare record (grants park the intent, refusals just advance the
    intent clock), WAL-first on durable replicas.
    """
    if str(txn_id) in txns_of(state):
        return []
    blocked = txn_conflicts(state, txn_id, writes, expects)
    log = getattr(state, "log_txn_prepare", None)
    if log is not None:
        log(txn_id, writes, granted=not blocked)
    return blocked


def txn_decide_state(
    state: State, txn_id: str, verdict: str, writes: Writes
) -> Response:
    """Phase two at one replica: commit the parked writes, or roll back.

    Commit applies ``writes`` atomically through the store's decide record
    (one WAL record for the whole set on durable replicas) and answers
    ``found(txn_id)``; abort drops the intent and answers ``not_found``.
    Idempotent both ways: values are absolute, and deciding an unknown
    transaction is harmless — a commit still lands its (self-carried)
    writes, an abort is a no-op.
    """
    log = getattr(state, "log_txn_decide", None)
    if log is not None:
        log(txn_id, verdict, writes)
    elif verdict == "commit":
        for key, value in dict(writes or {}).items():
            if value is None:
                state.pop(key, None)
            else:
                state[key] = value
    if verdict == "commit":
        return Response.found(txn_id)
    return Response.not_found()


def make_replica_states(op: ChoreoOp, servers: LocationsLike) -> Faceted[State]:
    """Create one empty, private store per server (the ``Faceted`` stateRefs of Fig. 2)."""
    return op.parallel(as_census(servers), lambda _server, _un: {})


# -- the Fig. 2 choreography ---------------------------------------------------------


def kvs_request(
    op: ChoreoOp,
    client: Location,
    primary: Location,
    servers: LocationsLike,
    state_refs: Faceted[State],
    request: Located[Request],
    *,
    fault_rate: float = 0.0,
    seed: int = 0,
) -> Located[Response]:
    """Serve one request against the replicated store (the ``kvs`` choreography of Fig. 2).

    The census of ``op`` must contain the client, the primary, and every
    server; the primary must be one of the servers.  Returns the response
    located at the client.
    """
    server_census = as_census(servers)
    op.census.require_member(client)
    op.census.require_subset(server_census)
    server_census.require_member(primary)

    # Client sends the request to the primary, which forwards it to all servers.
    request_at_primary = op.comm(client, primary, request)
    request_shared = op.multicast(primary, server_census, request_at_primary)

    # Phase 1 (conclave of the servers): handle the request.  The client is not
    # in this conclave, so the servers' branching costs it no messages.
    def handle(sub: ChoreoOp) -> Located[Response]:
        incoming = sub.naked(request_shared)
        if incoming.kind is RequestKind.PUT:

            def apply_put(server: Location, un) -> Response:
                rng = crypto.party_rng(seed, server, f"put|{incoming.key}")
                return update_state(
                    un(state_refs), incoming.key, incoming.value,
                    fault_rate=fault_rate, rng=rng,
                )

            responses = sub.parallel(server_census, apply_put)
            # The primary waits for an acknowledgement from every server before
            # answering the client (Fig. 2 line 28).
            sub.fanin(
                server_census,
                [primary],
                lambda server: sub.comm(
                    server, primary, sub.locally(server, lambda _un: True)
                ),
            )
            return responses.localize(primary)
        if incoming.kind is RequestKind.GET:
            return sub.locally(primary, lambda un: lookup_state(un(state_refs), incoming.key))
        return sub.locally(primary, lambda _un: Response.stopped())

    response_at_primary = op.conclave_to(server_census, [primary], handle)
    response = op.comm(primary, client, response_at_primary)

    # Phase 2 (second conclave): after the client already has its answer, the
    # servers check replica hashes and resynchronise if necessary.  Branching
    # re-uses the multiply-located request — no new KoC communication.
    def verify(sub: ChoreoOp) -> bool:
        incoming = sub.naked(request_shared)
        if incoming.kind is not RequestKind.PUT:
            return False
        digests_faceted = sub.parallel(
            server_census, lambda _server, un: hash_state(un(state_refs))
        )
        digests = sub.gather(server_census, [primary], digests_faceted)
        needs_resynch = sub.locally(
            primary, lambda un: len(set(un(digests).values())) > 1
        )
        if sub.broadcast(primary, needs_resynch):
            resynch(sub, primary, server_census, state_refs)
            return True
        return False

    op.conclave(server_census, verify)
    return response


def resynch(
    op: ChoreoOp,
    primary: Location,
    servers: LocationsLike,
    state_refs: Faceted[State],
) -> None:
    """Restore replica agreement by copying the primary's store to every server."""
    server_census = as_census(servers)
    authoritative = op.locally(primary, lambda un: dict(un(state_refs)))
    shared = op.multicast(primary, server_census, authoritative)

    def overwrite(_server: Location, un) -> None:
        replica = un(state_refs)
        replica.clear()
        replica.update(un(shared))

    op.parallel(server_census, overwrite)


def kvs_serve(
    op: ChoreoOp,
    client: Location,
    primary: Location,
    servers: LocationsLike,
    requests: Sequence[Request],
    *,
    fault_rate: float = 0.0,
    seed: int = 0,
) -> List[Response]:
    """Serve a whole session of requests, returning the client's responses.

    The request list is client data; the choreography stops early when it
    serves a ``Stop`` request.  The responses are returned as plain values at
    the client (and placeholders elsewhere).
    """
    server_census = as_census(servers)
    state_refs = make_replica_states(op, server_census)
    responses: List[Response] = []
    for index, request in enumerate(requests):
        located_request = op.locally(client, lambda _un, _r=request: _r)
        answer = kvs_request(
            op, client, primary, server_census, state_refs, located_request,
            fault_rate=fault_rate, seed=seed + index,
        )
        if answer.is_present():
            responses.append(answer.peek())
        if request.kind is RequestKind.STOP:
            break
    return responses


# -- the Appendix B (ChoRus) variant --------------------------------------------------


def replicated(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    payload: Located[Any],
    *,
    replicates: Callable[[Any], bool],
    at_backup: Callable[[State, Any], Any],
    at_server: Callable[[State, Any, Tuple[Any, ...]], Any],
) -> Located[Any]:
    """One primary–backup round: the shape every replica-group op shares.

    The payload travels client → server and is broadcast inside the
    server+backups conclave, so it is multiply located there — every replica
    can branch on it with no further Knowledge-of-Choice traffic, and the
    client, outside the conclave, pays exactly two messages whatever the
    replication factor.  When ``replicates(payload)`` holds, every backup
    runs ``at_backup`` on its own store and the results are gathered at the
    server; the server's ``at_server`` runs strictly after that gather
    (ack-before-apply: an answer the client sees implies every surviving
    backup already applied the payload), and its result travels back.  A
    silent or crashed backup surfaces as a typed failure out of the gather,
    never as an acknowledgement value.

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The requesting location.
        server: The primary replica, which answers the client.
        backups: Zero or more backup replicas.  With an empty list the
            conclave degenerates to the server alone — census polymorphism
            down to replication factor one, with no protocol change for the
            client.
        state_refs: The replicas' stores (one facet per replica).
        payload: What the round is about, located at the client.
        replicates: Whether this payload must reach the backups' stores
            (a pure function of the payload, so every replica agrees).
        at_backup: ``(store, payload) -> ack``, run once at each backup.
        at_server: ``(store, payload, acks) -> answer``, run at the server;
            ``acks`` are the backups' results in census order, empty when
            nothing was replicated.

    Returns:
        The server's answer, located at the client.
    """
    backup_census = as_census(backups)
    op.census.require_member(client)
    op.census.require_member(server)
    op.census.require_subset(backup_census)
    cluster = as_census([server]).union(backup_census)

    payload_at_server = op.comm(client, server, payload)

    def handle(sub: ChoreoOp) -> Located[Any]:
        incoming = sub.broadcast(server, payload_at_server)
        gathered = None
        if len(backup_census) > 0 and replicates(incoming):
            outcomes = sub.parallel(
                backup_census, lambda _backup, un: at_backup(un(state_refs), incoming)
            )
            gathered = sub.gather(backup_census, [server], outcomes)

        def finish(un) -> Any:
            acks = un(gathered).values() if gathered is not None else ()
            return at_server(un(state_refs), incoming, acks)

        return sub.locally(server, finish)

    answer_at_server = op.conclave_to(cluster, [server], handle)
    return op.comm(server, client, answer_at_server)


class NotARead(ChoreographyError):
    """A Put or Delete reached :func:`primary_read`: writes must take
    :func:`replicated`, so every backup applies them before the primary."""


def primary_read(
    op: ChoreoOp,
    client: Location,
    server: Location,
    state_refs: Faceted[State],
    payload: Located[Any],
    *,
    answer: Callable[[State, Any], Any],
) -> Located[Any]:
    """One primary round: the payload travels client → server, the server
    runs ``answer(store, payload)`` on its own facet, the answer travels back.

    Two messages at any replication factor, none to or from a backup, and
    no branch, so no Knowledge of Choice: the caller picked this round over
    :func:`replicated` from what it already knew.  A payload that is (or
    lists) a Put or Delete raises :class:`NotARead` at the server before any
    store is touched, so a write can never skip ack-before-apply.
    """
    payload_at_server = op.comm(client, server, payload)

    def serve(un) -> Any:
        incoming = un(payload_at_server)
        batch = incoming if isinstance(incoming, list) else (incoming,)
        if any(isinstance(r, Request) and r.kind in WRITE_KINDS for r in batch):
            raise NotARead(f"writes must take the replicated round: {incoming!r}")
        return answer(un(state_refs), incoming)

    return op.comm(server, client, op.locally(server, serve))


def _always(_payload: Any) -> bool:
    return True


def kvs_with_backups(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    request: Located[Request],
) -> Located[Response]:
    """A client request against a server with a parametric list of backups.

    Mirrors Appendix B as one :func:`replicated` round: writes — Puts and
    Deletes — are applied at every backup and acknowledged before the server
    applies them itself; Gets and Stops are answered by the server alone
    (the backups still learn the request from the conclave broadcast, which
    is what lets them skip the round without being told to).

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The requesting location.
        server: The primary replica that answers the client.
        backups: Zero or more backup replicas (see :func:`replicated`).
        state_refs: The replicas' stores (a facet per replica; the server's
            facet must be included).
        request: The request, located at the client.

    Returns:
        The server's :class:`Response`, located at the client.
    """
    return replicated(
        op, client, server, backups, state_refs, request,
        replicates=lambda incoming: incoming.kind in WRITE_KINDS,
        at_backup=apply_write,
        at_server=lambda state, incoming, _acks: serve_request(state, incoming),
    )


def kvs_delete(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    key: Located[str],
) -> Located[Response]:
    """Unbind ``key`` across the whole replica group; answer the previous value.

    The dedicated deletion choreography of the service layer: a
    :func:`replicated` round whose payload is the bare key (smaller on the
    wire than a ``Request.delete``), with the same ack-before-apply
    discipline as a Put, so a response the client sees implies every
    surviving replica already dropped the key.

    On durable replicas the deletion is write-ahead logged
    (:func:`delete_state` goes through the store's ``pop``), so it survives
    crash-restart replay and travels in catch-up deltas like any put.

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The requesting location.
        server: The primary replica, which answers the client.
        backups: Zero or more backup replicas (see :func:`replicated`).
        state_refs: The replicas' stores (one facet per replica).
        key: The key to unbind, located at the client.

    Returns:
        ``Response.found(previous)`` / ``Response.not_found()`` (the
        *server's* previous binding), located at the client.
    """
    return replicated(
        op, client, server, backups, state_refs, key,
        replicates=_always,
        at_backup=delete_state,
        at_server=lambda state, wanted, _acks: delete_state(state, wanted),
    )


# -- cluster-serving choreographies (batches, quorum reads, scans) --------------------


def kvs_serve_batch(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    requests: Located[Sequence[Request]],
) -> Located[List[Response]]:
    """Serve a whole batch of requests in one replica-group round (group commit).

    Per-request serving pays the full protocol — request comm, KoC
    multicast, per-backup replication, acknowledgement gather, response comm
    — for every key touched.  A service under load can do much better: the
    client ships the *batch*, the server multicasts the batch once (Knowledge
    of Choice for every request in it), each backup applies all the batch's
    writes and acknowledges once, and the response list travels back in one
    message.  For a batch of B requests over b backups that is
    ``2 + 2·b`` messages instead of ``B·(2 + 2·b)`` — the protocol-level
    analogue of the transports' coalescing, and the mechanism behind the
    cluster benchmark's throughput numbers.

    Replica consistency matches :func:`kvs_with_backups`: backups apply the
    batch's writes — Puts *and* Deletes, in batch order — before the server
    applies them and answers (a cluster reads through :func:`kvs_read_batch`).

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The requesting location.
        server: The primary replica.
        backups: Zero or more backup replicas (see :func:`replicated`).
        state_refs: The replicas' stores (one facet per replica).
        requests: The request batch, located at the client.  ``STOP``
            requests are answered ``stopped`` but do not interrupt the batch.

    Returns:
        One :class:`Response` per request, in batch order, located at the
        client.
    """
    return replicated(
        op, client, server, backups, state_refs, requests,
        replicates=lambda batch: any(r.kind in WRITE_KINDS for r in batch),
        at_backup=lambda state, batch: [
            apply_write(state, r) for r in batch if r.kind in WRITE_KINDS
        ],
        at_server=lambda state, batch, _acks: [serve_request(state, r) for r in batch],
    )


def kvs_txn(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    payload: Located[Tuple[List[Decide], Optional[Tuple[str, Writes, Writes]]]],
) -> Located[Optional[Response]]:
    """Cross-shard two-phase commit at one participant shard: one round.

    A :func:`replicated` round over the coordinator's payload ``(decides,
    prepare)``.  ``decides`` are the verdicts the shard is owed, in decision
    order, each ``(txn_id, verdict, writes)``: :func:`txn_decide_state`
    lands a commit's write set atomically (one WAL record, carrying the
    writes, so a replica whose intent is missing still lands it) or rolls
    an abort's intent back.  ``prepare`` is ``None`` or ``(txn_id, writes,
    expects)``: :func:`txn_prepare_state` votes (conflict detection plus the
    ``expects`` guards) and parks the intent when granting.  Every backup
    applies both and acknowledges, and the server applies them *last*
    (ack-before-apply), so an answer implies every surviving replica holds
    the decides and the intent.  Idempotent end to end (a re-prepare of a
    parked id re-grants, decides are absolute), so replay is safe.

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The coordinator's location.
        server: The primary replica, which answers with the shard's vote.
        backups: Zero or more backup replicas (see :func:`replicated`).
        state_refs: The replicas' stores (one facet per replica).
        payload: ``(decides, prepare)`` located at the client.

    Returns:
        ``None`` for a decide-only round.  Otherwise the prepare's vote, the
        conjunction over replicas: ``Response.found(txn_id)`` when every
        replica granted, or a ``not_found`` response whose ``value`` lists
        the blocking keys (comma-separated), located at the client.
    """

    def at_replica(state: State, incoming) -> Optional[List[str]]:
        decides, prepare = incoming
        for decide in decides:
            txn_decide_state(state, *decide)
        return None if prepare is None else txn_prepare_state(state, *prepare)

    def shard_vote(state: State, incoming, backup_votes) -> Optional[Response]:
        blocked = at_replica(state, incoming)
        if blocked is None:
            return None
        blocked = set(blocked).union(*backup_votes)
        if blocked:
            return Response(ResponseKind.NOT_FOUND, ",".join(sorted(blocked)))
        return Response.found(incoming[1][0])

    return replicated(
        op, client, server, backups, state_refs, payload,
        replicates=_always, at_backup=at_replica, at_server=shard_vote,
    )


def kvs_quorum_get(
    op: ChoreoOp,
    client: Location,
    server: Location,
    backups: LocationsLike,
    state_refs: Faceted[State],
    key: Located[str],
    *,
    read_repair: bool = True,
) -> Located[Response]:
    """Answer a Get from a *majority of replicas* instead of the primary alone.

    The key travels client → server; inside the replica conclave the server
    re-uses the multiply-located key for Knowledge of Choice, every replica
    (server included) looks the key up in its own store, and the votes are
    gathered at the server, which answers with the majority response.  When
    the votes diverge — a replica missed a write or silently corrupted one —
    the divergence is broadcast *inside the conclave only* and, with
    ``read_repair``, the primary's store is re-propagated via
    :func:`resynch`.  The client pays exactly two messages either way; repair
    traffic never reaches it.

    Args:
        op: The operator record; census must contain client, server, backups.
        client: The requesting location.
        server: The primary replica (tie-breaking authority for repair).
        backups: The non-primary replicas voting in the quorum.
        state_refs: The replicas' stores (one facet per replica).
        key: The key to read, located at the client.
        read_repair: When True (the default), a divergent vote triggers
            :func:`resynch` from the primary before the response is returned.

    Returns:
        The majority :class:`Response` (ties broken by census order), located
        at the client.
    """
    backup_census = as_census(backups)
    op.census.require_member(client)
    op.census.require_member(server)
    op.census.require_subset(backup_census)
    cluster = as_census([server]).union(backup_census)

    key_at_server = op.comm(client, server, key)

    def read(sub: ChoreoOp) -> Located[Response]:
        wanted = sub.broadcast(server, key_at_server)
        votes_faceted = sub.parallel(
            cluster, lambda _replica, un: lookup_state(un(state_refs), wanted)
        )
        votes = sub.gather(cluster, [server], votes_faceted)

        def tally(un) -> Tuple[Response, bool]:
            ballots = [vote for _replica, vote in un(votes)]
            counts: Dict[Response, int] = {}
            for ballot in ballots:
                counts[ballot] = counts.get(ballot, 0) + 1
            # max() keeps the first maximal entry, and dict order is insertion
            # order, so ties resolve to the earliest vote in census order —
            # deterministic across replicas and processes.
            winner = max(counts, key=counts.get)
            return winner, len(counts) > 1

        tallied = sub.locally(server, tally)
        diverged = sub.broadcast(server, sub.locally(server, lambda un: un(tallied)[1]))
        if diverged and read_repair:
            resynch(sub, server, cluster, state_refs)
        return sub.locally(server, lambda un: un(tallied)[0])

    response_at_server = op.conclave_to(cluster, [server], read)
    return op.comm(server, client, response_at_server)


def kvs_ping(
    op: ChoreoOp,
    client: Location,
    replica: Location,
    token: Located[str],
) -> Located[str]:
    """Liveness probe: the client's token travels to ``replica`` and back.

    Two messages, no state touched.  A replica that answers is alive and
    reachable; one that does not shows up as a
    :class:`~repro.core.errors.ChoreoTimeout` at the client, which is exactly
    the signal :meth:`repro.cluster.ClusterEngine.probe` uses to mark a
    backup down and re-bind the shard's choreographies through the
    zero-backup degradation path of :func:`kvs_with_backups`.

    Args:
        op: The operator record; census must contain client and replica.
        client: The probing location.
        replica: The replica whose liveness is being checked.
        token: The probe token, located at the client; it is echoed verbatim
            so the caller can tell a fresh answer from a stale one.

    Returns:
        The echoed token, located at the client.
    """
    at_replica = op.comm(client, replica, token)
    echo = op.locally(replica, lambda un: un(at_replica))
    return op.comm(replica, client, echo)


def kvs_scan(op: ChoreoOp, client: Location, server: Location,
             state_refs: Faceted[State], prefix: Located[str],
             ) -> Located[List[Tuple[str, str]]]:
    """The sorted ``(key, value)`` items under ``prefix``, at the client.

    A :func:`primary_read` running :func:`scan_state`.  A cluster issues one
    scan per shard and merges the sorted per-shard results.
    """
    return primary_read(op, client, server, state_refs, prefix, answer=scan_state)


def kvs_get(op: ChoreoOp, client: Location, server: Location,
            state_refs: Faceted[State], key: Located[str]) -> Located[Response]:
    """Read ``key`` at the primary: a :func:`primary_read` of the bare key
    (like :func:`kvs_delete`'s payload; the cluster's non-quorum Get)."""
    return primary_read(op, client, server, state_refs, key, answer=lookup_state)


def kvs_read_batch(op: ChoreoOp, client: Location, server: Location,
                   state_refs: Faceted[State], requests: Located[Sequence[Request]],
                   ) -> Located[List[Response]]:
    """A batch of Gets (and Stops) answered in one :func:`primary_read`; a
    batch with any write in it is refused whole with :class:`NotARead`."""
    return primary_read(
        op, client, server, state_refs, requests,
        answer=lambda state, batch: [serve_request(state, r) for r in batch],
    )


# -- replica re-join: the catch-up transfer -------------------------------------------


@dataclass(frozen=True)
class CatchupReport:
    """The rejoiner's account of one :func:`kvs_catchup` transfer."""

    #: ``"delta"`` (WAL suffix) or ``"full"`` (complete store).
    mode: str
    #: Whether the rejoiner's post-transfer :func:`hash_state` matched the
    #: primary's.  ``False`` means even the full-transfer fallback diverged —
    #: the caller must not re-admit the replica.
    verified: bool
    #: Records (delta) or entries (full) applied by the transfer that stuck.
    applied: int
    #: The primary's high-water mark the rejoiner was sealed to (0 for
    #: ephemeral stores).
    target_seq: int
    #: True when a delta transfer failed verification and the full-transfer
    #: fallback ran.
    fell_back: bool


def kvs_catchup(
    op: ChoreoOp,
    client: Location,
    server: Location,
    rejoiner: Location,
    state_refs: Faceted[State],
) -> Located[CatchupReport]:
    """Bring ``rejoiner``'s store back to parity with ``server``'s.

    The re-join protocol of the durable cluster (``docs/durability.md``): a
    crashed replica restarts, replays its WAL to a *recovered* state, and
    must close the gap to the primary before re-entering the replica group.
    The transfer runs in a two-member conclave — the rest of the census
    (client included) pays no Knowledge-of-Choice traffic — and goes:

    1. the rejoiner reports its replayed high-water mark to the primary;
    2. the primary answers with either the WAL **delta** since that mark or,
       when its own log has compacted past it (or the store is ephemeral and
       has no log at all), its **full** store — plus the target sequence
       number and a :func:`hash_state` digest;
    3. the rejoiner applies the transfer and checks the digest.  A delta can
       legitimately fail here: replay-at-failure-time means the primary's
       mutation stream since the crash need not extend the crashed replica's
       (a replayed write lands *behind* later traffic), so matching sequence
       numbers do not imply matching stores.  The hash check is what makes
       the delta path safe to attempt at all;
    4. on a mismatch the verdict is broadcast inside the conclave and the
       primary falls back to a full transfer, which is re-verified.

    Args:
        op: The operator record; census must contain all three locations.
        client: Where the report is delivered (the cluster control plane).
        server: The shard primary, the authoritative store.
        rejoiner: The restarted replica being brought back.
        state_refs: The replicas' stores; the server's and rejoiner's facets
            are used (durable or plain — plain stores always take the full
            path).

    Returns:
        The :class:`CatchupReport`, located at the client.
    """
    op.census.require_member(client)
    op.census.require_member(server)
    op.census.require_member(rejoiner)
    pair = as_census([server, rejoiner])

    def transfer(sub: ChoreoOp) -> Located[CatchupReport]:
        mark_at_rejoiner = sub.locally(
            rejoiner, lambda un: high_water_of(un(state_refs))
        )
        mark = sub.comm(rejoiner, server, mark_at_rejoiner)

        def build(un) -> Tuple[str, Any, int, int]:
            state = un(state_refs)
            target = high_water_of(state)
            digest = hash_state(state)
            delta = delta_since(state, un(mark))
            if delta is None:
                return ("full", dict(state), target, digest)
            return ("delta", delta, target, digest)

        package = sub.comm(server, rejoiner, sub.locally(server, build))

        def apply_package(un) -> Tuple[str, int, int, bool]:
            mode, data, target, digest = un(package)
            state = un(state_refs)
            applied = apply_catchup(state, mode, data, target)
            return (mode, applied, target, hash_state(state) == digest)

        first = sub.locally(rejoiner, apply_package)
        verified = sub.broadcast(
            rejoiner, sub.locally(rejoiner, lambda un: un(first)[3])
        )
        if verified:
            return sub.locally(
                rejoiner,
                lambda un: CatchupReport(
                    mode=un(first)[0], verified=True, applied=un(first)[1],
                    target_seq=un(first)[2], fell_back=False,
                ),
            )

        # Delta replay produced a divergent store (or the full transfer hit
        # bit-rot): re-send the whole store and re-verify.
        fallback = sub.comm(
            server,
            rejoiner,
            sub.locally(
                server,
                lambda un: (
                    dict(un(state_refs)),
                    high_water_of(un(state_refs)),
                    hash_state(un(state_refs)),
                ),
            ),
        )

        def apply_fallback(un) -> CatchupReport:
            contents, target, digest = un(fallback)
            state = un(state_refs)
            applied = apply_catchup(state, "full", contents, target)
            return CatchupReport(
                mode="full", verified=hash_state(state) == digest,
                applied=applied, target_seq=target, fell_back=True,
            )

        return sub.locally(rejoiner, apply_fallback)

    report_at_rejoiner = op.conclave_to(pair, [rejoiner], transfer)
    return op.comm(rejoiner, client, report_at_rejoiner)
