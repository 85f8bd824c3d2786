"""Reference oracles: the direct full-scan forms of the N/O helpers, of
the strict-serializability search and of Lemma 20's P1–P4.

The library answers these questions from a per-transaction trace index
(:meth:`repro.ioa.trace.Trace.txn_messages`), a real-time frontier search
and per-entry columns.  The functions here are the definitions written out
literally: each N/O helper walks the whole trace, the search precomputes
every transaction's real-time predecessor set, and P2–P4 compare pairs
through ``tag_precedes``.  The parity tests pin the fast forms to them on
real protocol runs and on random histories.  They are quadratic on purpose;
keep them out of anything that runs at benchmark size.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.serializability import SerializabilityResult, _observed_read_map, tag_precedes
from repro.ioa.actions import ActionKind
from repro.ioa.trace import Trace
from repro.txn.datatype import OTState, apply_transaction
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadTransaction, WriteTransaction


def blocking_servers_for(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
    consensus_group: Sequence[str] = (),
) -> Tuple[str, ...]:
    """Per server, scan its projection: a request from ``reader`` for
    ``txn_id`` must be followed by a reply with no ``RECV`` in between; a
    replicated coordinator group must answer if it was addressed."""
    offenders: List[str] = []
    group_set = frozenset(consensus_group)
    for server in servers:
        if server in group_set:
            continue
        projection = trace.project(server)
        for position, action in enumerate(projection):
            if action.kind != ActionKind.RECV or action.message is None:
                continue
            message = action.message
            if message.src != reader or message.get("txn") != txn_id:
                continue
            if message.get("repair"):
                continue
            reply_position: Optional[int] = None
            blocked = False
            for later_position in range(position + 1, len(projection)):
                later = projection[later_position]
                if (
                    later.kind == ActionKind.SEND
                    and later.message is not None
                    and later.message.dst == reader
                    and later.message.get("txn") == txn_id
                ):
                    reply_position = later_position
                    break
                if later.kind == ActionKind.RECV:
                    blocked = True
            if reply_position is None or blocked:
                offenders.append(server)
                break
    if group_set:
        requested = replied = False
        for action in trace:
            if action.kind != ActionKind.SEND or action.message is None:
                continue
            message = action.message
            if message.get("txn") != txn_id:
                continue
            if message.src == reader and message.dst in group_set:
                requested = True
            elif message.src in group_set and message.dst == reader:
                replied = True
        if requested and not replied:
            offenders.extend(sorted(group_set))
    return tuple(offenders)


def round_trips_per_server(
    trace: Trace,
    txn_id: str,
    reader: str,
    servers: Sequence[str],
) -> Dict[str, int]:
    """Requests the reader sent to each server for this transaction."""
    counts: Dict[str, int] = {}
    for action in trace:
        if action.kind != ActionKind.SEND or action.message is None:
            continue
        message = action.message
        if message.src != reader or message.dst not in servers:
            continue
        if message.get("txn") != txn_id or message.get("repair"):
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
    for action in trace:
        if action.kind != ActionKind.SEND or action.message is None:
            continue
        message = action.message
        if message.src not in servers or message.dst != reader:
            continue
        if message.get("txn") != txn_id:
            continue
        replies += 1
        max_versions = max(max_versions, int(message.get("num_versions", 1)))
    return (max_versions if replies else 1), replies


def check_strict_serializability(
    history: History,
    max_states: int = 2_000_000,
) -> SerializabilityResult:
    """The search over placed sets with an n² predecessor table: a
    transaction may go next once every real-time predecessor is placed.
    Candidates come in history order and are tried last-first."""
    entries = list(history.complete_entries())
    if not entries:
        return SerializabilityResult(ok=True, witness_order=(), explored_states=0)

    by_id: Dict[str, HistoryEntry] = {e.txn_id: e for e in entries}
    ids: List[str] = [e.txn_id for e in entries]
    predecessors: Dict[str, FrozenSet[str]] = {
        entry.txn_id: frozenset(
            other.txn_id for other in entries if other is not entry and other.precedes(entry)
        )
        for entry in entries
    }
    observed: Dict[str, Optional[Dict[str, Any]]] = {
        e.txn_id: _observed_read_map(e) if isinstance(e.txn, ReadTransaction) else None for e in entries
    }

    def candidates(placed: FrozenSet[str], state: OTState) -> List[str]:
        out = []
        for txn_id in ids:
            if txn_id in placed or not predecessors[txn_id] <= placed:
                continue
            entry = by_id[txn_id]
            if isinstance(entry.txn, ReadTransaction):
                expected, _ = apply_transaction(state, entry.txn)
                seen = observed[txn_id]
                if seen is not None and seen != expected.as_dict:
                    continue
            out.append(txn_id)
        return out

    initial_state = OTState.initial(history.objects, history.initial_value)
    placed0: FrozenSet[str] = frozenset()
    visited: Set[Tuple[FrozenSet[str], OTState]] = {(placed0, initial_state)}
    stack = [(placed0, initial_state, (), candidates(placed0, initial_state))]
    explored = 0
    while stack:
        placed, state, order, cands = stack[-1]
        if len(placed) == len(ids):
            return SerializabilityResult(ok=True, witness_order=order, explored_states=explored)
        if not cands:
            stack.pop()
            continue
        txn_id = cands.pop()
        _, next_state = apply_transaction(state, by_id[txn_id].txn)
        next_placed = placed | {txn_id}
        key = (next_placed, next_state)
        if key in visited:
            continue
        visited.add(key)
        explored += 1
        if explored > max_states:
            return SerializabilityResult(
                ok=False,
                violations=(f"search aborted after exploring {max_states} states",),
                explored_states=explored,
            )
        stack.append((next_placed, next_state, order + (txn_id,), candidates(next_placed, next_state)))
    return SerializabilityResult(ok=False, explored_states=explored)


def lemma20_violations(history: History, tags: Mapping[str, Any]) -> Tuple[str, ...]:
    """The violation list of ``check_lemma20`` (no cross-check), pair by pair."""
    entries = list(history.complete_entries())
    missing = [e.txn_id for e in entries if e.txn_id not in tags]
    if missing:
        return (f"missing tags for: {', '.join(missing)}",)

    def is_write(entry: HistoryEntry) -> bool:
        return isinstance(entry.txn, WriteTransaction)

    def precedes(a: HistoryEntry, b: HistoryEntry) -> bool:
        return tag_precedes(tags[a.txn_id], is_write(a), tags[b.txn_id], is_write(b))

    violations: List[str] = []
    for entry in entries:
        tag = tags[entry.txn_id]
        if not isinstance(tag, (int, float)) or isinstance(tag, bool):
            violations.append(f"P1: tag of {entry.txn_id} is not numeric ({tag!r})")
    if violations:
        return tuple(violations)
    for a in entries:
        for b in entries:
            if a is not b and a.precedes(b) and precedes(b, a):
                violations.append(
                    f"P2: {a.txn_id} responds before {b.txn_id} is invoked, yet {b.txn_id} ≺ {a.txn_id} "
                    f"(tags {tags[b.txn_id]!r} vs {tags[a.txn_id]!r})"
                )
    for a in entries:
        if not is_write(a):
            continue
        for b in entries:
            if a is not b and not precedes(a, b) and not precedes(b, a):
                violations.append(
                    f"P3: WRITE {a.txn_id} is not ordered against {b.txn_id} "
                    f"(tags {tags[a.txn_id]!r} vs {tags[b.txn_id]!r})"
                )
    for read_entry in entries:
        if is_write(read_entry):
            continue
        observed = _observed_read_map(read_entry)
        if observed is None:
            continue
        for obj, value in observed.items():
            prior_writes = [
                w for w in entries if is_write(w) and obj in w.txn.objects and precedes(w, read_entry)
            ]
            if prior_writes:
                latest = max(prior_writes, key=lambda w: tags[w.txn_id])
                expected = dict(latest.txn.updates)[obj]
                if value != expected:
                    violations.append(
                        f"P4: {read_entry.txn_id} returned {obj}={value!r} but the ≺-latest preceding "
                        f"write {latest.txn_id} wrote {obj}={expected!r}"
                    )
            elif value != history.initial_value:
                violations.append(
                    f"P4: {read_entry.txn_id} returned {obj}={value!r} with no preceding write "
                    f"(expected initial value {history.initial_value!r})"
                )
    return tuple(violations)
