"""Execution traces, projections, fragments and indistinguishability.

The proofs in the paper manipulate *executions* of a composed I/O automaton:
they project executions onto individual automata, cut out *execution
fragments* (maximal runs of actions at one automaton, e.g. the non-blocking
fragments ``F_{i,j}``), check *indistinguishability* of two executions at an
automaton (Lemma 3), and *commute* adjacent fragments that occur at distinct
automata (Lemma 2).  This module provides those operations over the concrete
traces produced by the simulation kernel, so that the proof replays in
:mod:`repro.proofs` and the property checkers in :mod:`repro.core` share one
vocabulary with the simulator.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .actions import Action, ActionKind, Message
from .errors import TraceError


@dataclass(frozen=True)
class TraceMode:
    """How a :class:`Trace` retains action records.

    ``full`` (the default) keeps every action and is byte-identical to the
    pre-knob behaviour — every golden-pinned run records with it.  The other
    two modes exist for long throughput runs where the *record* is the cost
    (ROADMAP item 2: ``trace_append`` is the second-largest profiler bucket):

    * ``sampled(rate, seed)`` — ``SEND``/``RECV`` records are retained with
      probability ``rate`` by a dedicated deterministic RNG (same seed ⇒
      byte-identical sample); ``INVOKE``/``RESPOND``/``INTERNAL``/``START``
      are always retained, so transaction records, spans and reconfig/
      consensus markers survive intact;
    * ``ring(capacity)`` — every action is recorded but only the newest
      ``capacity`` records are kept (a flight recorder).

    In every mode the trace observer still sees **every** appended action, so
    metrics counters and the streaming invariant monitors stay exact; only
    the retained records change.  Retained actions always carry their true
    global index.
    """

    kind: str = "full"
    rate: float = 1.0
    seed: int = 0
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("full", "sampled", "ring"):
            raise ValueError(f"unknown trace mode {self.kind!r}")
        if self.kind == "sampled" and not (0.0 < self.rate <= 1.0):
            raise ValueError(f"sampled trace rate must be in (0, 1], got {self.rate}")
        if self.kind == "ring" and self.capacity < 1:
            raise ValueError(f"ring trace capacity must be >= 1, got {self.capacity}")

    @classmethod
    def full(cls) -> "TraceMode":
        return cls()

    @classmethod
    def sampled(cls, rate: float, seed: int = 0) -> "TraceMode":
        return cls(kind="sampled", rate=rate, seed=seed)

    @classmethod
    def ring(cls, capacity: int) -> "TraceMode":
        return cls(kind="ring", capacity=capacity)

    def describe(self) -> str:
        if self.kind == "sampled":
            return f"sampled(rate={self.rate}, seed={self.seed})"
        if self.kind == "ring":
            return f"ring(capacity={self.capacity})"
        return "full"


#: kinds eligible for dropping under ``sampled`` — the bulk of any trace.
#: Everything else is structural: the kernel reads the stamped index of
#: INVOKE/RESPOND back out of ``append``, and spans/monitors/reconfig
#: markers live on INTERNAL/START actions.
_SAMPLABLE_KINDS = (ActionKind.SEND, ActionKind.RECV)


class Trace:
    """An ordered sequence of :class:`~repro.ioa.actions.Action` records.

    The trace owns index assignment: appending an action stamps it with its
    position.  Traces support list-like read access, projection onto an
    automaton, slicing into fragments and a handful of queries used by the
    SNOW property checkers.

    ``mode`` selects the retention policy (see :class:`TraceMode`); the
    default ``full`` mode keeps every action, and all position-dependent
    queries (``between``, ``prefix``, …) rely on index == list position only
    in that mode — the non-full modes answer them by index scan or refuse
    loudly where a renumbered copy would lie.
    """

    def __init__(
        self,
        actions: Optional[Iterable[Action]] = None,
        mode: Optional[TraceMode] = None,
    ) -> None:
        self.mode: TraceMode = mode if mode is not None else TraceMode.full()
        if self.mode.kind == "ring":
            self._actions: List[Action] = deque(maxlen=self.mode.capacity)  # type: ignore[assignment]
        else:
            self._actions = []
        #: The sampler is a geometric-skip Bernoulli sampler: instead of one
        #: RNG draw per samplable action, one draw per *retained* sample
        #: yields the count of drops preceding it (inversion of the
        #: geometric CDF) — the drop path, taken for ~``1-rate`` of all
        #: send/recv records, is then a decrement-and-compare.  ``_skip`` is
        #: the drops left before the next keep; ``-1`` means "never drop"
        #: (full/ring modes, and ``rate == 1``), keeping the hot append path
        #: on one integer compare.
        self._sample_rng: Optional[random.Random] = None
        self._skip = -1
        if self.mode.kind == "sampled" and self.mode.rate < 1.0:
            self._sample_rng = random.Random(self.mode.seed)
            self._log_drop = math.log(1.0 - self.mode.rate)
            self._skip = self._draw_skip()
        #: total actions ever appended (== len(self) only in full mode)
        self._total = 0
        #: optional append observer (the observability plane's metrics hook);
        #: called with each appended action — including, under ``sampled``,
        #: the dropped ones (still carrying index ``-1``), so counters and
        #: streaming monitors stay exact in every mode.
        self._observer: Optional[Callable[[Action], None]] = None
        #: the per-transaction message index and the ``total_appended`` it
        #: was built at (see :meth:`_message_index`)
        self._index: Tuple[Dict[Any, List[Action]], Dict[str, List[int]]] = ({}, {})
        self._index_at = -1
        if actions is not None:
            for action in actions:
                self.append(action)

    def set_observer(self, observer: Optional[Callable[[Action], None]]) -> None:
        """Install (or clear) the append observer.  Observers must only
        *read*: appending from inside an observer would corrupt indices."""
        self._observer = observer

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def append(self, action: Action) -> Action:
        """Append ``action``, re-stamping its index; returns the stored copy.

        Freshly built actions (index ``-1``, never shared) are stamped in
        place instead of copied — the kernel appends one per trace action, so
        the copy was pure overhead.  Actions that already carry an index
        (fragment replays, trace copies) still get a fresh stamped copy.

        Under ``TraceMode.sampled`` a dropped ``SEND``/``RECV`` never reaches
        :meth:`_store` — it skips the stamp, the store *and* the profiler's
        ``trace_append`` bucket (that is the saving) — and is returned, and
        shown to the observer, still carrying index ``-1``.
        """
        skip = self._skip
        if skip >= 0 and action.kind in _SAMPLABLE_KINDS:
            if skip:
                self._skip = skip - 1
                self._total += 1
                if self._observer is not None:
                    self._observer(action)
                return action
            self._skip = self._draw_skip()
        return self._store(action)

    def _store(self, action: Action) -> Action:
        """The retained-record path: stamp, keep, notify.  This — not the
        sampling gate in :meth:`append` — is what the kernel profiler wraps
        as ``trace_append``, so the bucket measures record-keeping actually
        performed."""
        index = self._total
        self._total = index + 1
        if action.index == -1:
            object.__setattr__(action, "index", index)
            stamped = action
        else:
            stamped = action.with_index(index)
        self._actions.append(stamped)
        if self._observer is not None:
            self._observer(stamped)
        return stamped

    def extend(self, actions: Iterable[Action]) -> None:
        for action in actions:
            self.append(action)

    def __len__(self) -> int:
        return len(self._actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self._actions)

    def __getitem__(self, index):
        if isinstance(index, slice) and isinstance(self._actions, deque):
            return list(self._actions)[index]  # deques do not slice
        return self._actions[index]

    @property
    def actions(self) -> Tuple[Action, ...]:
        return tuple(self._actions)

    @property
    def total_appended(self) -> int:
        """Actions ever appended — equals ``len(self)`` only in full mode."""
        return self._total

    def _draw_skip(self) -> int:
        """Geometric draw: samplable records to drop before the next keep
        (``floor(ln U / ln(1-rate))``, the inversion-method geometric)."""
        return int(math.log(1.0 - self._sample_rng.random()) / self._log_drop)

    @property
    def sampled_out(self) -> int:
        """SEND/RECV records dropped by the ``sampled`` mode's sampler."""
        if self.mode.kind != "sampled":
            return 0
        return self._total - len(self._actions)

    @property
    def last_index(self) -> int:
        """Global index of the newest retained action (``-1`` when empty).

        In full mode this is ``len(self) - 1``; the non-full modes need it
        because retained indices are sparse (sampled) or windowed (ring).
        """
        return self._actions[-1].index if self._actions else -1

    def is_full(self) -> bool:
        return self.mode.kind == "full"

    def require_full(self, caller: str, reason: str) -> None:
        """Raise :class:`TraceError` unless every action was retained.

        For consumers whose answer would be *wrong*, not merely incomplete,
        on a ``sampled``/``ring`` record; ``reason`` says why.
        """
        if not self.is_full():
            raise TraceError(
                f"{caller} needs a full-mode trace (this one is "
                f"{self.mode.describe()}): {reason}"
            )

    # ------------------------------------------------------------------
    # Projections and filters
    # ------------------------------------------------------------------
    def project(self, actor: str) -> Tuple[Action, ...]:
        """Projection ``trace|actor``: the subsequence of actions at ``actor``."""
        return tuple(a for a in self._actions if a.actor == actor)

    def external(self) -> Tuple[Action, ...]:
        """The subsequence of external actions (the *trace* in I/O-automata terms)."""
        return tuple(a for a in self._actions if a.is_external())

    def filter(self, predicate: Callable[[Action], bool]) -> Tuple[Action, ...]:
        return tuple(a for a in self._actions if predicate(a))

    def of_kind(self, kind: ActionKind) -> Tuple[Action, ...]:
        return tuple(a for a in self._actions if a.kind == kind)

    def actors(self) -> Tuple[str, ...]:
        """All automata that take at least one action, in order of appearance."""
        seen: Dict[str, None] = {}
        for action in self._actions:
            seen.setdefault(action.actor, None)
        return tuple(seen)

    def signature(self) -> Tuple[Tuple[Any, ...], ...]:
        """A canonical, ``msg_id``-free projection of the whole trace.

        Message ids come from a process-global counter, so two *separate*
        simulations of the same system never produce equal :class:`Action`
        records even when they took exactly the same steps.  The signature
        keeps everything observable about each action except the ids —
        ``(kind, actor, msg_type, src, dst, payload, info)`` — which makes
        cross-run determinism and golden-trace assertions possible
        (e.g. "a run with ``FaultPlan.none()`` equals a run with no fault
        plane at all").
        """
        rows = []
        for action in self._actions:
            message = action.message
            rows.append(
                (
                    action.kind.value,
                    action.actor,
                    message.msg_type if message is not None else None,
                    message.src if message is not None else None,
                    message.dst if message is not None else None,
                    message.items if message is not None else None,
                    action.info,
                )
            )
        return tuple(rows)

    # ------------------------------------------------------------------
    # Queries used by the property checkers
    # ------------------------------------------------------------------
    def find(self, predicate: Callable[[Action], bool], start: int = 0) -> Optional[Action]:
        """First action at or after ``start`` satisfying ``predicate``.

        Iterates by index instead of slicing: the property checkers call
        this in inner loops, and ``self._actions[start:]`` copied the whole
        tail of the trace on every call.  ``start`` is a *global* trace
        index; in the non-full modes (sparse/windowed retention) the scan
        compares against each action's stamped index instead of assuming
        index == position.
        """
        actions = self._actions
        if not self.is_full():
            start = max(start, 0)
            for action in actions:
                if action.index >= start and predicate(action):
                    return action
            return None
        for position in range(max(start, 0), len(actions)):
            action = actions[position]
            if predicate(action):
                return action
        return None

    def find_send(self, message: Message) -> Optional[Action]:
        """The ``send`` action of ``message`` (matched by ``msg_id``)."""
        return self.find(
            lambda a: a.kind == ActionKind.SEND and a.message is not None and a.message.msg_id == message.msg_id
        )

    def find_recv(self, message: Message) -> Optional[Action]:
        """The ``recv`` action of ``message`` (matched by ``msg_id``)."""
        return self.find(
            lambda a: a.kind == ActionKind.RECV and a.message is not None and a.message.msg_id == message.msg_id
        )

    def _message_index(self) -> Tuple[Dict[Any, List[Action]], Dict[str, List[int]]]:
        """``(by_txn, recvs)``, rebuilt on the first query after any append
        (keyed on :attr:`total_appended`), so it never answers for a stale
        trace."""
        if self._index_at != self._total:
            self._index = self._build_message_index()
            self._index_at = self._total
        return self._index

    def _build_message_index(self) -> Tuple[Dict[Any, List[Action]], Dict[str, List[int]]]:
        """One pass over the retained actions.  ``by_txn`` maps each ``txn``
        payload value to the ``SEND``/``RECV`` actions whose message carries
        it, in trace order; ``recvs`` maps each actor to the sorted global
        indices of its ``RECV`` actions."""
        by_txn: Dict[Any, List[Action]] = {}
        recvs: Dict[str, List[int]] = {}
        for action in self._actions:
            kind = action.kind
            if kind is ActionKind.RECV:
                recvs.setdefault(action.actor, []).append(action.index)
            elif kind is not ActionKind.SEND:
                continue
            if action.message is None:
                continue
            txn = action.message.get("txn")
            if txn is not None:
                by_txn.setdefault(txn, []).append(action)
        return by_txn, recvs

    def txn_messages(self, txn: Any) -> Sequence[Action]:
        """The retained ``SEND``/``RECV`` actions whose message carries the
        payload field ``txn == txn``, in trace order (from the index)."""
        return self._message_index()[0].get(txn, ())

    def recvs_between(self, actor: str, start_index: int, end_index: int) -> int:
        """Retained ``RECV`` actions at ``actor`` strictly between two global
        indices: two bisects into the index."""
        recvs = self._message_index()[1].get(actor, ())
        return max(0, bisect_left(recvs, end_index) - bisect_right(recvs, start_index))

    def between(self, start_index: int, end_index: int) -> Tuple[Action, ...]:
        """Actions strictly between two trace indices.

        ``append`` stamps each action with its list position, so in full
        mode the window is a direct slice — O(window) instead of the
        full-trace scan this used to be.  Non-full modes (where retained
        indices are sparse or windowed) fall back to the index scan and
        return whatever was retained inside the window.
        """
        if start_index > end_index:
            raise TraceError(f"between({start_index}, {end_index}): start after end")
        if not self.is_full():
            return tuple(
                a for a in self._actions if start_index < a.index < end_index
            )
        low = max(start_index + 1, 0)
        high = max(end_index, low)
        return tuple(self._actions[low:high])

    def prefix(self, action: Action) -> "Trace":
        """``prefix(trace, a)``: the finite prefix ending with ``a`` (inclusive).

        Mirrors the paper's ``prefix(α, a)`` notation.
        """
        if not self.is_full():
            raise TraceError(
                f"prefix() needs a full-mode trace (this one is "
                f"{self.mode.describe()}); a renumbered partial prefix would "
                "not be the paper's prefix"
            )
        if action.index < 0 or action.index >= len(self._actions):
            raise TraceError("action is not part of this trace")
        if not self._actions[action.index].same_step(action):
            raise TraceError("action does not match the trace at its index")
        return Trace(self._actions[: action.index + 1])

    def suffix_after(self, action: Action) -> Tuple[Action, ...]:
        """All actions strictly after ``action``.

        A plain slice: the returned tuple is a copy by contract, and list
        slicing materialises the tail at memcpy speed (an ``islice`` variant
        measured ~100x slower — it must *iterate* to ``index`` first).
        Non-full modes scan by stamped index instead.
        """
        if not self.is_full():
            return tuple(a for a in self._actions if a.index > action.index)
        return tuple(self._actions[action.index + 1 :])

    # ------------------------------------------------------------------
    # Indistinguishability (Lemma 3 vocabulary)
    # ------------------------------------------------------------------
    def indistinguishable_at(self, other: "Trace", actor: str) -> bool:
        """``self ~_actor other``: identical projections at ``actor``.

        Two executions are indistinguishable at an automaton when the
        automaton goes through the same sequence of steps in both; with our
        action records this is projection equality modulo trace indices.
        """
        mine = self.project(actor)
        theirs = other.project(actor)
        if len(mine) != len(theirs):
            return False
        return all(a.same_step(b) for a, b in zip(mine, theirs))

    # ------------------------------------------------------------------
    # Well-formedness of the channel layer
    # ------------------------------------------------------------------
    def validate_channels(self) -> None:
        """Check that every ``recv`` is preceded by a matching ``send``.

        Reliable asynchronous channels deliver every message at most once and
        never invent messages; this validates exactly that over the trace and
        is used by the tests and by the commuting transformation to confirm
        that a transformed action sequence is still a plausible execution.
        """
        sent: Dict[int, int] = {}
        delivered: Dict[int, int] = {}
        for action in self._actions:
            if action.message is None:
                continue
            if action.kind == ActionKind.SEND:
                if action.message.msg_id in sent:
                    raise TraceError(f"message {action.message.describe()} sent twice")
                sent[action.message.msg_id] = action.index
            elif action.kind == ActionKind.RECV:
                mid = action.message.msg_id
                if mid not in sent:
                    raise TraceError(f"message {action.message.describe()} received before being sent")
                if mid in delivered:
                    raise TraceError(f"message {action.message.describe()} delivered twice")
                if sent[mid] >= action.index:
                    raise TraceError(f"message {action.message.describe()} received before its send action")
                delivered[mid] = action.index

    def undelivered_messages(self) -> Tuple[Message, ...]:
        """Messages that were sent but never received in this trace."""
        sent: Dict[int, Message] = {}
        for action in self._actions:
            if action.message is None:
                continue
            if action.kind == ActionKind.SEND:
                sent[action.message.msg_id] = action.message
            elif action.kind == ActionKind.RECV:
                sent.pop(action.message.msg_id, None)
        return tuple(sent.values())

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (used by examples and reports)."""
        lines = []
        retained = list(self._actions) if isinstance(self._actions, deque) else self._actions
        actions = retained if limit is None else retained[:limit]
        for action in actions:
            lines.append(f"{action.index:5d}  {action.describe()}")
        if limit is not None and len(self._actions) > limit:
            lines.append(f"  ... ({len(self._actions) - limit} more actions)")
        return "\n".join(lines)

    def copy(self) -> "Trace":
        return Trace(self._actions)


@dataclass(frozen=True)
class Fragment:
    """A contiguous slice of a trace, remembered with its origin indices.

    Fragments are the unit the proofs reason about: the invocation fragment
    ``I_i``, the non-blocking fragments ``F_{i,x}``/``F_{i,y}`` and the
    completion fragment ``E_i`` of a READ transaction are all fragments in
    this sense.  :mod:`repro.proofs.fragments` builds them from traces and
    implements the commuting lemma on them.
    """

    actions: Tuple[Action, ...]
    label: str = ""

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    @property
    def start_index(self) -> int:
        if not self.actions:
            raise TraceError(f"fragment {self.label!r} is empty")
        return self.actions[0].index

    @property
    def end_index(self) -> int:
        if not self.actions:
            raise TraceError(f"fragment {self.label!r} is empty")
        return self.actions[-1].index

    def actors(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for action in self.actions:
            seen.setdefault(action.actor, None)
        return tuple(seen)

    def single_actor(self) -> Optional[str]:
        """The unique automaton of this fragment, or ``None`` if mixed."""
        actors = self.actors()
        if len(actors) == 1:
            return actors[0]
        return None

    def has_input_actions(self) -> bool:
        return any(a.is_input() for a in self.actions)

    def has_external_actions(self) -> bool:
        return any(a.is_external() for a in self.actions)

    def kinds(self) -> Tuple[ActionKind, ...]:
        return tuple(a.kind for a in self.actions)

    def same_steps(self, other: "Fragment") -> bool:
        """Step-wise equality modulo indices (projection identity)."""
        if len(self.actions) != len(other.actions):
            return False
        return all(a.same_step(b) for a, b in zip(self.actions, other.actions))

    def relabel(self, label: str) -> "Fragment":
        return Fragment(actions=self.actions, label=label)

    def describe(self) -> str:
        actors = ",".join(self.actors())
        return f"Fragment({self.label or 'unnamed'}; {len(self.actions)} actions @ {actors})"


def concat_fragments(fragments: Sequence[Fragment]) -> Tuple[Action, ...]:
    """Concatenate fragments into a flat action sequence (indices untouched)."""
    out: List[Action] = []
    for fragment in fragments:
        out.extend(fragment.actions)
    return tuple(out)


def reindex(actions: Sequence[Action]) -> Tuple[Action, ...]:
    """Re-stamp a sequence of actions with consecutive indices from zero."""
    return tuple(action.with_index(i) for i, action in enumerate(actions))
