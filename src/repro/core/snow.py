"""Checkers for the N, O and W properties of SNOW (Definitions 2.1-2.3).

These checkers work on the *trace* of a finished simulation plus its
transaction history, so they apply uniformly to every protocol in
:mod:`repro.protocols` (including the blocking / multi-round baselines, which
is how the latency comparison benchmarks quantify exactly which property each
baseline gives up).

Conventions the protocol implementations follow (and the checkers rely on):

* every message that belongs to a transaction carries a ``txn`` payload field
  with the transaction id;
* every server reply to a read request carries a ``num_versions`` payload
  field stating how many versions of the object value the reply contains
  (1 for algorithms A and B, up to ``|Vals|`` for algorithm C).

The S property has its own module (:mod:`repro.core.serializability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..ioa.actions import Action, ActionKind, Message
from ..ioa.simulation import Simulation, TransactionRecord
from ..ioa.trace import Trace
from ..txn.history import History, HistoryEntry
from ..txn.transactions import ReadTransaction, WriteTransaction
from .serializability import SerializabilityResult, check_strict_serializability


# ----------------------------------------------------------------------
# Per-read-transaction report
# ----------------------------------------------------------------------
@dataclass
class ReadTransactionReport:
    """SNOW-relevant measurements of a single READ transaction."""

    txn_id: str
    reader: str
    non_blocking: bool
    blocking_servers: Tuple[str, ...]
    rounds: int
    round_trips_per_server: Dict[str, int] = field(default_factory=dict)
    max_versions_in_reply: int = 1
    replies_seen: int = 0
    completed: bool = True

    @property
    def one_round(self) -> bool:
        """O's one-round half: each read is a single client↔server round trip."""
        return self.rounds <= 1 and all(count <= 1 for count in self.round_trips_per_server.values())

    @property
    def one_version(self) -> bool:
        """O's one-version half: every reply carries exactly one version."""
        return self.max_versions_in_reply <= 1

    @property
    def satisfies_o(self) -> bool:
        return self.one_round and self.one_version

    def describe(self) -> str:
        return (
            f"{self.txn_id}: non_blocking={self.non_blocking} rounds={self.rounds} "
            f"max_versions={self.max_versions_in_reply} one_round={self.one_round} "
            f"one_version={self.one_version}"
        )


@dataclass
class SnowReport:
    """Aggregate SNOW verdict for one execution of one protocol."""

    strict_serializable: bool
    non_blocking: bool
    one_round: bool
    one_version: bool
    writes_complete: bool
    conflicting_writes_present: bool
    read_reports: Tuple[ReadTransactionReport, ...] = ()
    serializability: Optional[SerializabilityResult] = None
    notes: Tuple[str, ...] = ()

    @property
    def satisfies_s(self) -> bool:
        return self.strict_serializable

    @property
    def satisfies_n(self) -> bool:
        return self.non_blocking

    @property
    def satisfies_o(self) -> bool:
        return self.one_round and self.one_version

    @property
    def satisfies_w(self) -> bool:
        return self.writes_complete

    @property
    def satisfies_snow(self) -> bool:
        return self.satisfies_s and self.satisfies_n and self.satisfies_o and self.satisfies_w

    @property
    def satisfies_snw(self) -> bool:
        """S + N + W (the bounded-latency family of Sections 8-9)."""
        return self.satisfies_s and self.satisfies_n and self.satisfies_w

    def max_rounds(self) -> int:
        return max((r.rounds for r in self.read_reports), default=0)

    def max_versions(self) -> int:
        return max((r.max_versions_in_reply for r in self.read_reports), default=1)

    def property_string(self) -> str:
        """Compact ``SNOW``-style string, lowercase for missing properties."""
        return "".join(
            [
                "S" if self.satisfies_s else "s",
                "N" if self.satisfies_n else "n",
                "O" if self.satisfies_o else "o",
                "W" if self.satisfies_w else "w",
            ]
        )

    def describe(self) -> str:
        lines = [
            f"SNOW report: {self.property_string()} "
            f"(rounds<= {self.max_rounds()}, versions<= {self.max_versions()})"
        ]
        for report in self.read_reports:
            lines.append("  " + report.describe())
        for note in self.notes:
            lines.append("  note: " + note)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# N property
# ----------------------------------------------------------------------
def blocking_servers_for(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
    consensus_group: Sequence[str] = (),
) -> Tuple[str, ...]:
    """Servers that violated non-blocking for the given READ transaction.

    For each server we locate every receipt of a request from ``reader``
    tagged with ``txn`` and the server's next reply back to ``reader`` with
    the same tag; if any *input* action (another message receipt) occurs at
    the server strictly between the two, the server blocked — it needed
    external input before it could answer (Definition 2.1 requires the
    response to be enabled with no intervening input action).

    Both lookups come from the trace's message index, so a READ costs
    O(its own messages), not a pass over the trace: the request and the
    reply are the transaction's own ``RECV``/``SEND`` actions at the server
    (:meth:`~repro.ioa.trace.Trace.txn_messages`), and "an input in between"
    is a bisect into the server's sorted ``RECV`` indices
    (:meth:`~repro.ioa.trace.Trace.recvs_between`).

    A request that never gets a reply also counts as blocking (the server is
    waiting for something) unless the transaction never completed at all, in
    which case the caller decides how to treat it.

    Read-repair installs (payload ``repair=True``) are maintenance traffic a
    finished quorum round emits toward stale replicas — fire-and-forget by
    design, not part of the read algorithm's request/reply protocol — so
    they neither open a reply obligation here nor count as round trips in
    :func:`round_trips_per_server`.

    **Replicated coordinator extension.**  When the system replicates its
    coordinator (``consensus_group`` non-empty), the group is one *logical*
    metadata server: clients broadcast each request to every member, only the
    leader answers (after a consensus round among the members), and the
    intra-group replication traffic is internal to the service rather than
    input the read waits on.  Definition 2.1's per-activation test therefore
    cannot be applied member-by-member — followers legitimately never reply,
    and the leader's reply necessarily spans activations.  The group-level
    reading of non-blocking is the one the paper's property is about: the
    read never waits on *other transactions* — the consensus round is a
    bounded message exchange inside the service, like the quorum rounds of
    the placement layer.  The check for the group is accordingly: if the
    reader addressed the group, some member must have answered.
    """
    actions = trace.txn_messages(txn_id)
    group_set = frozenset(consensus_group)
    offenders = [
        server
        for server in servers
        if server not in group_set and _server_blocked(trace, actions, server, reader)
    ]
    if group_set:
        requested = replied = False
        for action in actions:
            if action.kind != ActionKind.SEND:
                continue
            message = action.message
            if message.src == reader and message.dst in group_set:
                requested = True
            elif message.src in group_set and message.dst == reader:
                replied = True
        if requested and not replied:
            offenders.extend(sorted(group_set))
    return tuple(offenders)


def _server_blocked(trace: Trace, actions: Sequence[Action], server: str, reader: str) -> bool:
    """Whether some request from ``reader`` among one transaction's
    ``actions`` went unanswered at ``server``, or saw a ``RECV`` there
    before the server's first reply after it."""
    for position, action in enumerate(actions):
        if action.kind != ActionKind.RECV or action.actor != server:
            continue
        message = action.message
        if message.src != reader or message.get("repair"):
            continue
        reply = next(
            (
                later
                for later in actions[position + 1 :]
                if later.kind == ActionKind.SEND and later.actor == server and later.message.dst == reader
            ),
            None,
        )
        if reply is None or trace.recvs_between(server, action.index, reply.index):
            return True
    return False


# ----------------------------------------------------------------------
# O property
# ----------------------------------------------------------------------
def round_trips_per_server(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Dict[str, int]:
    """Number of requests the reader sent to each server for this transaction."""
    counts: Dict[str, int] = {}
    for action in trace.txn_messages(txn_id):
        if action.kind != ActionKind.SEND:
            continue
        message = action.message
        if message.src != reader or message.dst not in servers or message.get("repair"):
            continue
        counts[message.dst] = counts.get(message.dst, 0) + 1
    return counts


def versions_in_replies(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Tuple[int, int]:
    """``(max_versions, replies_seen)`` over server replies for this transaction."""
    max_versions = 0
    replies = 0
    for action in trace.txn_messages(txn_id):
        if action.kind != ActionKind.SEND:
            continue
        message = action.message
        if message.src not in servers or message.dst != reader:
            continue
        replies += 1
        max_versions = max(max_versions, int(message.get("num_versions", 1)))
    return (max_versions if replies else 1), replies


# ----------------------------------------------------------------------
# Aggregate check
# ----------------------------------------------------------------------
def analyze_read_transaction(
    simulation: Simulation,
    record: TransactionRecord,
) -> ReadTransactionReport:
    """Build the per-READ report for one transaction record."""
    servers = simulation.servers()
    trace = simulation.trace
    reader = record.client
    txn_id = str(record.txn_id)
    consensus_group = getattr(simulation.topology, "consensus_group", lambda: ())()
    offenders = blocking_servers_for(trace, txn_id, reader, servers, consensus_group)
    trips = round_trips_per_server(trace, txn_id, reader, servers)
    max_versions, replies = versions_in_replies(trace, txn_id, reader, servers)
    return ReadTransactionReport(
        txn_id=txn_id,
        reader=reader,
        non_blocking=not offenders,
        blocking_servers=offenders,
        rounds=record.rounds,
        round_trips_per_server=trips,
        max_versions_in_reply=max_versions,
        replies_seen=replies,
        completed=record.complete,
    )


def check_snow(
    simulation: Simulation,
    history: Optional[History] = None,
    objects: Optional[Sequence[str]] = None,
) -> SnowReport:
    """Run every SNOW property checker against a finished simulation.

    Needs a full-mode trace: the N and O checkers walk per-message
    ``SEND``/``RECV`` records, and a ``sampled``/``ring`` trace retains only
    some of them — the verdict would be *wrong* (phantom blocking servers,
    zero replies seen), not merely incomplete, so a partial record is
    refused loudly, mirroring :meth:`Trace.prefix`.
    """
    simulation.trace.require_full(
        "check_snow()",
        "the N/O checkers walk per-message records and a partial record "
        "would yield wrong verdicts, not just incomplete ones",
    )
    if history is None:
        history = History.from_simulation(simulation, objects=objects)

    notes: List[str] = []

    # S ------------------------------------------------------------------
    serializability = check_strict_serializability(history.restricted_to_complete())

    # W ------------------------------------------------------------------
    write_entries = history.writes()
    writes_complete = all(entry.complete for entry in write_entries)
    if not writes_complete:
        incomplete = [e.txn_id for e in write_entries if not e.complete]
        notes.append("incomplete WRITE transactions: " + ", ".join(incomplete))
    conflicting = False
    for read_entry in history.reads():
        for write_entry in write_entries:
            if not write_entry.complete or not read_entry.complete:
                continue
            if read_entry.overlaps(write_entry) and set(read_entry.txn.objects) & set(write_entry.txn.objects):
                conflicting = True
                break
        if conflicting:
            break

    # N and O --------------------------------------------------------------
    read_reports: List[ReadTransactionReport] = []
    for record in simulation.transaction_records():
        if isinstance(record.txn, ReadTransaction) and record.complete:
            read_reports.append(analyze_read_transaction(simulation, record))

    non_blocking = all(r.non_blocking for r in read_reports)
    one_round = all(r.one_round for r in read_reports)
    one_version = all(r.one_version for r in read_reports)

    return SnowReport(
        strict_serializable=serializability.ok,
        non_blocking=non_blocking,
        one_round=one_round,
        one_version=one_version,
        writes_complete=writes_complete,
        conflicting_writes_present=conflicting,
        read_reports=tuple(read_reports),
        serializability=serializability,
        notes=tuple(notes),
    )
