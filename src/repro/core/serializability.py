"""Strict-serializability checkers.

Two complementary checkers are provided:

* :func:`check_strict_serializability` — the *semantic* checker.  Given a
  :class:`~repro.txn.history.History` it searches for a total order of the
  complete transactions that (a) respects real-time precedence and (b) makes
  every READ transaction's observed result equal to what the sequential data
  type ``OT`` would return at that point.  It returns a witness serial order
  when one exists and a diagnosis when none does.  This is the checker used
  to *verify* protocol executions and to *expose* the Eiger anomaly of
  Figure 5.

* :func:`check_lemma20` — the *proof-technique* checker.  Lemma 20 of the
  paper gives four conditions ``P1–P4`` on an irreflexive partial order ``≺``
  (derived from per-transaction tags) that together imply strict
  serializability; this is exactly how Theorems 3, 4 and 5 prove algorithms
  A, B and C correct.  The checker takes the tags reported by a protocol and
  verifies ``P1–P4`` mechanically, then (as a sanity cross-check) confirms
  that the tag order is accepted by the semantic checker.

Both checkers operate only on complete transactions, matching the paper's
reduction (via Lynch's Lemma 13.10) from arbitrary well-formed executions to
transaction-complete ones.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..txn.datatype import OTState, apply_transaction
from ..txn.history import History, HistoryEntry
from ..txn.transactions import ReadResult, ReadTransaction, WriteTransaction


@dataclass
class SerializabilityResult:
    """Outcome of a strict-serializability check."""

    ok: bool
    witness_order: Tuple[str, ...] = ()
    violations: Tuple[str, ...] = ()
    explored_states: int = 0

    def describe(self) -> str:
        if self.ok:
            order = " < ".join(self.witness_order)
            return f"strictly serializable (witness order: {order}; {self.explored_states} states explored)"
        return "NOT strictly serializable: " + "; ".join(self.violations)


def _observed_read_map(entry: HistoryEntry) -> Optional[Dict[str, Any]]:
    """Normalise the observed result of a READ into an object→value dict."""
    result = entry.result
    if result is None:
        return None
    if isinstance(result, ReadResult):
        return result.as_dict
    if isinstance(result, Mapping):
        return dict(result)
    if isinstance(result, (list, tuple)):
        # positional: align with the transaction's object list
        return dict(zip(entry.txn.objects, result))
    return None


def check_strict_serializability(
    history: History,
    max_states: int = 2_000_000,
) -> SerializabilityResult:
    """Search for a legal strict serialization of ``history``.

    The search walks the DAG of "sets of already-serialized transactions":
    from a frontier state it may serialize next any transaction that no
    other unplaced transaction real-time precedes, provided a READ's
    observed values match the current abstract state.  Memoisation is on
    the pair ``(set of placed transactions, abstract state)`` — two
    different orders of the same writes that produce the same state are
    explored once.

    Real-time order enters through the *minimal-response frontier* of
    linearizability checking (Wing & Gong, JPDC 1993; Lowe, CCPE 2017):
    ``t`` may go next iff ``t.invoke_index`` is at most the smallest
    ``respond_index`` among the *other* unplaced transactions.  Each search
    frame carries two low-water marks — the first unplaced transaction in
    invoke order and in respond order — so a step reads its candidates off
    the invoke order between the first mark and that smallest response (the
    concurrency window), and no pairwise predecessor table is built.  The
    placed set is keyed as ``(invoke mark, placed transactions above it)``,
    which names the same set in O(window) space.  Candidates are tried in
    history order, last first.  A step costs O(window) plus the READ checks,
    so a history that is serial up to a bounded concurrency is searched in
    near-linear time.

    The worst case is exponential in the number of *concurrent* transactions,
    which is small in all experiments (the checkers are applied to bounded
    histories); ``max_states`` bounds the work defensively.
    """
    entries = list(history.complete_entries())
    if not entries:
        return SerializabilityResult(ok=True, witness_order=(), explored_states=0)

    # Transactions are named by their position in history order from here on.
    count = len(entries)
    txns = [e.txn for e in entries]
    invoke = [e.invoke_index for e in entries]
    respond = [e.respond_index for e in entries]
    by_invoke = sorted(range(count), key=invoke.__getitem__)
    by_respond = sorted(range(count), key=respond.__getitem__)
    rank = [0] * count
    for position, k in enumerate(by_invoke):
        rank[k] = position
    observed: List[Optional[Dict[str, Any]]] = [
        _observed_read_map(e) if isinstance(e.txn, ReadTransaction) else None for e in entries
    ]

    def candidates(low: int, above: FrozenSet[int], first: int, state: OTState) -> List[int]:
        """Placeable transactions whose READ values match ``state``, in
        history order; ``low``/``first`` are the invoke/respond marks."""
        if low == count:
            return []
        m = by_respond[first]
        bound = respond[m]
        window = []
        for j in range(low, count):
            k = by_invoke[j]
            if invoke[k] > bound:
                break
            if j == low or k not in above:
                window.append(k)
        if invoke[m] > bound:
            # ``m`` responded before it was invoked (a hand-written history):
            # its own bound is the smallest response among the others.
            rest = (
                by_respond[j]
                for j in range(first + 1, count)
                if rank[by_respond[j]] >= low and by_respond[j] not in above
            )
            other = next(rest, None)
            if other is None or invoke[m] <= respond[other]:
                window.append(m)
        window.sort()
        out = []
        for k in window:
            seen = observed[k]
            if seen is not None and seen != apply_transaction(state, txns[k])[0].as_dict:
                continue
            out.append(k)
        return out

    initial_state = OTState.initial(history.objects, history.initial_value)
    nothing: FrozenSet[int] = frozenset()
    visited: Set[Tuple[int, FrozenSet[int], OTState]] = {(0, nothing, initial_state)}
    explored = 0

    # Iterative depth-first search with an explicit stack so deep histories
    # cannot blow the Python recursion limit.  A frame is (invoke mark,
    # placed above it, respond mark, state, candidates, transaction placed
    # to reach it); the stack is the current path, so it is the witness.
    stack: List[Tuple[int, FrozenSet[int], int, OTState, List[int], int]] = [
        (0, nothing, 0, initial_state, candidates(0, nothing, 0, initial_state), -1)
    ]
    while stack:
        low, above, first, state, cands, _ = stack[-1]
        if low == count:
            order = tuple(entries[frame[5]].txn_id for frame in stack[1:])
            return SerializabilityResult(ok=True, witness_order=order, explored_states=explored)
        if not cands:
            stack.pop()
            continue
        k = cands.pop()
        _, next_state = apply_transaction(state, txns[k])
        if rank[k] == low:
            low += 1
            while low < count and by_invoke[low] in above:
                low += 1
            if above:
                above = frozenset(x for x in above if rank[x] > low)
        else:
            above = above | {k}
        while first < count and (rank[by_respond[first]] < low or by_respond[first] in above):
            first += 1
        key = (low, above, next_state)
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
        stack.append((low, above, first, next_state, candidates(low, above, first, next_state), k))

    # Exhausted without serializing everything: diagnose why.
    violations = _diagnose(history)
    return SerializabilityResult(ok=False, violations=violations, explored_states=explored)


def _diagnose(history: History) -> Tuple[str, ...]:
    """Produce human-readable hints about why no serialization exists."""
    notes: List[str] = []
    reads = [e for e in history.complete_entries() if isinstance(e.txn, ReadTransaction)]
    writes = [e for e in history.complete_entries() if isinstance(e.txn, WriteTransaction)]
    for read_entry in reads:
        seen = _observed_read_map(read_entry)
        if seen is None:
            continue
        # Which write wrote each observed value?
        for obj, value in seen.items():
            sources = [w for w in writes if obj in w.txn.objects and dict(w.txn.updates).get(obj) == value]
            if not sources and value != history.initial_value:
                notes.append(
                    f"{read_entry.txn_id} observed {obj}={value!r} which no WRITE transaction produced"
                )
        # Mixed-version detection: values from writes that are real-time ordered
        # while an intermediate write to another read object is skipped.
        source_writes: List[HistoryEntry] = []
        for obj, value in seen.items():
            for w in writes:
                if obj in w.txn.objects and dict(w.txn.updates).get(obj) == value:
                    source_writes.append(w)
        for earlier in source_writes:
            for later in source_writes:
                if earlier is later:
                    continue
                if earlier.precedes(later):
                    # read saw `earlier`'s value for some object although it also
                    # saw a later write; check whether `later` (or something after
                    # `earlier`) overwrote that object.
                    for obj, value in seen.items():
                        if obj in earlier.txn.objects and dict(earlier.txn.updates).get(obj) == value:
                            overwriters = [
                                w
                                for w in writes
                                if w is not earlier
                                and obj in w.txn.objects
                                and (earlier.precedes(w) or w is later)
                                and (w.precedes(later) or w is later)
                            ]
                            if overwriters:
                                notes.append(
                                    f"{read_entry.txn_id} mixes versions: it saw {later.txn_id} "
                                    f"(which real-time follows {earlier.txn_id}) but still returned "
                                    f"{obj}={value!r} from {earlier.txn_id}, skipping "
                                    f"{', '.join(w.txn_id for w in overwriters)}"
                                )
    if not notes:
        notes.append("no total order consistent with real-time precedence reproduces the observed read values")
    return tuple(dict.fromkeys(notes))


# ----------------------------------------------------------------------
# Lemma 20: tag-based sufficient condition
# ----------------------------------------------------------------------
@dataclass
class Lemma20Result:
    """Outcome of the Lemma 20 (P1–P4) check."""

    ok: bool
    violations: Tuple[str, ...] = ()
    order: Tuple[str, ...] = ()
    cross_check: Optional[SerializabilityResult] = None

    def describe(self) -> str:
        if self.ok:
            return f"P1-P4 hold; induced order: {' < '.join(self.order)}"
        return "Lemma 20 violated: " + "; ".join(self.violations)


def tag_precedes(
    tag_a: Any, is_write_a: bool, tag_b: Any, is_write_b: bool
) -> bool:
    """The ``≺`` order used by Theorems 3-5: tag order, writes before reads on ties."""
    if tag_a < tag_b:
        return True
    if tag_a == tag_b and is_write_a and not is_write_b:
        return True
    return False


def check_lemma20(
    history: History,
    tags: Mapping[str, Any],
    cross_check: bool = True,
) -> Lemma20Result:
    """Verify the conditions ``P1``–``P4`` of Lemma 20 for a tagged history.

    ``tags`` maps each complete transaction id to the tag assigned by the
    protocol (for algorithms A/B/C this is the index derived from the
    reader's/coordinator's ``List``).  The induced relation is::

        φ ≺ π  iff  tag(φ) < tag(π), or tag(φ) == tag(π) and φ is a WRITE and π is a READ

    Checks performed:

    * **P1** (finite past) — trivially true for finite histories, but we also
      reject non-numeric tags that would break well-foundedness.
    * **P2** (real-time consistency) — if π responds before φ is invoked then
      not ``φ ≺ π``.
    * **P3** (writes totally ordered) — any WRITE is ordered against every
      other transaction; with numeric tags this amounts to write tags being
      unique and comparable.
    * **P4** (reads see the latest preceding write) — for every READ and every
      object it returns, the value equals the one written by the ≺-latest
      WRITE to that object that precedes the READ, or the initial value if
      there is none.
    """
    entries = list(history.complete_entries())
    violations: List[str] = []

    missing = [e.txn_id for e in entries if e.txn_id not in tags]
    if missing:
        violations.append(f"missing tags for: {', '.join(missing)}")
        return Lemma20Result(ok=False, violations=tuple(violations))

    # P1 -----------------------------------------------------------------
    for entry in entries:
        tag = tags[entry.txn_id]
        if not isinstance(tag, (int, float)) or isinstance(tag, bool):
            violations.append(f"P1: tag of {entry.txn_id} is not numeric ({tag!r})")
    if violations:
        # Non-numeric tags make the ≺ relation ill-defined; stop before P2-P4.
        return Lemma20Result(ok=False, violations=tuple(violations))

    # Per-entry columns, read once: ``φ ≺ π`` below is :func:`tag_precedes`
    # written out inline over them.
    count = len(entries)
    ids = [e.txn_id for e in entries]
    tag_of = [tags[txn_id] for txn_id in ids]
    write = [isinstance(e.txn, WriteTransaction) for e in entries]

    # P2: b ≺ a for some b invoked after a responds.  Those b are a suffix of
    # the invoke order; the hits are reported in history order.
    invoke = [e.invoke_index for e in entries]
    by_invoke = sorted(range(count), key=invoke.__getitem__)
    invokes = [invoke[k] for k in by_invoke]
    for a, entry in enumerate(entries):
        ta, wa = tag_of[a], write[a]
        later = by_invoke[bisect_right(invokes, entry.respond_index):]
        hits = [b for b in later if tag_of[b] < ta or (tag_of[b] == ta and write[b] and not wa)]
        for b in sorted(hits):
            if b != a:
                violations.append(
                    f"P2: {ids[a]} responds before {ids[b]} is invoked, yet {ids[b]} ≺ {ids[a]} "
                    f"(tags {tag_of[b]!r} vs {ta!r})"
                )

    # P3: with ``a`` a WRITE, ``a ≺ b`` is ``ta < tb or (ta == tb and b is a
    # READ)`` and ``b ≺ a`` is ``tb < ta``.
    for a in range(count):
        if not write[a]:
            continue
        ta = tag_of[a]
        for b in range(count):
            tb = tag_of[b]
            if not (ta < tb or tb < ta or (ta == tb and not write[b])) and b != a:
                violations.append(
                    f"P3: WRITE {ids[a]} is not ordered against {ids[b]} "
                    f"(tags {ta!r} vs {tb!r})"
                )

    # P4: a WRITE ≺ a READ iff its tag is <= the READ's, so the preceding
    # writes of an object are a prefix of its writes sorted by tag (stable,
    # so ties keep history order and the first one is ``max``'s pick).
    # A NaN tag orders against nothing and is left out.
    writes_of: Dict[str, List[int]] = {}
    for k in sorted((k for k in range(count) if write[k] and tag_of[k] == tag_of[k]), key=tag_of.__getitem__):
        for obj in entries[k].txn.objects:
            writes_of.setdefault(obj, []).append(k)
    tags_of = {obj: [tag_of[k] for k in ks] for obj, ks in writes_of.items()}
    for r, read_entry in enumerate(entries):
        if write[r]:
            continue
        observed = _observed_read_map(read_entry)
        if observed is None:
            continue
        tr = tag_of[r]
        for obj, value in observed.items():
            obj_tags = tags_of.get(obj, [])
            prior = bisect_right(obj_tags, tr) if tr == tr else 0
            if prior:
                latest = entries[writes_of[obj][bisect_left(obj_tags, obj_tags[prior - 1])]]
                expected = dict(latest.txn.updates)[obj]
                if value != expected:
                    violations.append(
                        f"P4: {read_entry.txn_id} returned {obj}={value!r} but the ≺-latest preceding "
                        f"write {latest.txn_id} wrote {obj}={expected!r}"
                    )
            else:
                if value != history.initial_value:
                    violations.append(
                        f"P4: {read_entry.txn_id} returned {obj}={value!r} with no preceding write "
                        f"(expected initial value {history.initial_value!r})"
                    )

    ok = not violations
    order: Tuple[str, ...] = ()
    if ok:
        order = tuple(
            e.txn_id
            for e in sorted(entries, key=lambda e: (tags[e.txn_id], 0 if isinstance(e.txn, WriteTransaction) else 1, e.invoke_index))
        )

    result = Lemma20Result(ok=ok, violations=tuple(violations), order=order)
    if ok and cross_check:
        result.cross_check = check_strict_serializability(history)
        if not result.cross_check.ok:
            result.ok = False
            result.violations = (
                "internal inconsistency: P1-P4 hold but the semantic checker rejects the history",
            ) + result.cross_check.violations
    return result
