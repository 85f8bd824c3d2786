"""``ReplicatedCoordinator``: the consensus member automaton.

A group of these automata replaces the designated coordinator server of the
coordinator-dependent protocols (the ``List`` of algorithms B/C, OCC's
timestamp oracle) with a replicated state machine.  Clients *broadcast* each
coordinator request to every member — exactly the send-to-all discipline the
quorum rounds of the placement layer use — and the current leader replicates
the request through the log; once committed, it applies the request to the
state machine and sends the single reply.  Followers buffer the broadcast
copies they receive: if the leader dies before committing, the buffered
requests are what the next leader re-proposes, so no request is lost with the
crashed leader.

Exactly-once application
------------------------
A request may legally appear twice in the log (an old leader appended it, a
new leader re-proposed it from its buffer before learning of the append).
``request_id`` (``"<msg_type>/<txn>"``) dedups at apply time: the state
machine transition runs once, the reply is memoized, and later applications
of the same id just re-send the memoized reply.  Surplus replies are dropped
by the clients (their awaits match the first), so client-visible behaviour is
exactly the single-coordinator behaviour.

Every transition goes through one apply path.  ``_apply_request`` runs the
transition and memoizes its reply at most once per id: for an ordinary
entry, for each sub-request of a BATCH entry, for the ``cns-reconfig-done``
reply of a committed C_new, and for a lease-served local read.
``_apply_committed`` walks the committed suffix in index order and calls
it; the live walk announces each step (``apply`` record, buffer pop,
leader reply), and recovery from stable storage runs the same walk
silently.  Snapshots, whether recovered or leader-shipped, are adopted
through ``_adopt_snapshot``.

Compaction never runs mid-apply or while joint.  A checkpoint is taken only
at the end of the outermost apply walk: applying a committed joint entry
can re-enter the walk (the leader appends C_new and commits), and a
snapshot taken there would claim entries the outer walk has not applied
yet.  ``checkpoint`` also refuses while the newest configuration is joint,
so the joint entry stays addressable until C_new is proposed.

Elections
---------
Event-driven Raft: a member arms its (seeded, randomized) election timer only
while it holds buffered requests that have not been committed — an election
is only needed when progress is blocked — and a firing timer re-arms instead
of electing if the leader showed signs of life since it was armed.  This
keeps fault-free executions election-free and lets every run quiesce (no
heartbeat traffic, no timer churn after the workload drains), while a dead
leader is replaced within a bounded number of timeout windows (the
``leaderless window`` regression tests pin the bound).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ioa.actions import Message
from ..ioa.automaton import Context, ServerAutomaton
from ..ioa.errors import SimulationError
from .election import DEFAULT_TIMEOUT_RANGE, LeaderElection
from .lease import LeaderLeaseState, LeasePolicy
from .log import BATCH, CONFIG, NOOP, ConsensusLog, LogEntry
from .machines import CoordinatorStateMachine

#: Re-exported under the name the rest of the repository uses.
DEFAULT_ELECTION_TIMEOUT: Tuple[int, int] = DEFAULT_TIMEOUT_RANGE

#: Client-side message type asking the group to change its own membership.
RECONFIG = "cns-reconfig"


class _PendingRequest:
    """A buffered client request awaiting commitment."""

    __slots__ = ("msg_type", "payload", "client")

    def __init__(self, msg_type: str, payload: Tuple[Tuple[str, Any], ...], client: str) -> None:
        self.msg_type = msg_type
        self.payload = payload
        self.client = client


class ReplicatedCoordinator(ServerAutomaton):
    """One member of the replicated coordinator group."""

    #: When set (``BuildConfig.consensus_batching``), a leader with a commit
    #: round in flight buffers further client requests and packs everything
    #: buffered into **one** :data:`~repro.consensus.log.BATCH` entry when the
    #: round lands — one replication round commits the whole burst.  Sub-
    #: requests keep their own ``request_id``, so exactly-once application and
    #: reply memoization are unchanged.  Off by default: batching coalesces
    #: log entries and so perturbs seeded schedules (golden traces pin the
    #: unbatched shape).
    append_batching: bool = False

    #: When set (``BuildConfig.fanout_batching``), each replication fan-out
    #: (one append per peer) is emitted inside a kernel flight, so one
    #: scheduler event delivers the whole round instead of one per peer.
    batch_fanout: bool = False

    #: Stable storage (``BuildConfig.persistence``): when attached via
    #: :meth:`attach_store`, term/vote/log/commit write through before they
    #: take effect, and ``forget()`` recovers from the store instead of
    #: coming back blank — crash-with-amnesia degrades to ordinary
    #: crash-recovery, restoring Raft's persistence assumption.
    stable_store: Optional[Any] = None

    #: When set, checkpoint the state machine and compact the log every
    #: time the applied-but-uncompacted prefix reaches this many entries
    #: (``PersistencePolicy.compact_every``).
    compact_every: Optional[int] = None

    #: When set (``BuildConfig.leases``), the leader answers read-only
    #: requests (``machine.read_only_types``) locally from its applied state
    #: machine under a quorum-proven lease instead of committing a log entry
    #: — see :mod:`repro.consensus.lease`.  Off by default: the lease fast
    #: path adds messages, payload fields and trace actions, so golden
    #: traces pin the lease-free shape.
    lease_policy: Optional[LeasePolicy] = None

    def __init__(
        self,
        name: str,
        group: Sequence[str],
        machine: CoordinatorStateMachine,
        seed: int = 0,
        election_timeout: Tuple[int, int] = DEFAULT_ELECTION_TIMEOUT,
        bootstrap_leader: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        group = tuple(group)
        if name not in group:
            raise SimulationError(f"consensus member {name!r} is not in its group {group}")
        self.machine = machine
        self.seed = seed
        self.election_timeout = tuple(election_timeout)
        #: the configuration this member was constructed with; the live
        #: ``self.group`` is re-derived from the newest config entry in the
        #: log (``_refresh_config``) and falls back to this one.
        self._initial_group: Tuple[str, ...] = group
        #: a late-joining member names a *current* member as its bootstrap
        #: leader so it never believes itself leader of term 1
        self.bootstrap_leader = bootstrap_leader if bootstrap_leader is not None else group[0]
        #: times this member recovered from stable storage (stats)
        self.recoveries = 0
        #: checkpoints this member took (stats)
        self.checkpoints = 0
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        """The state a member starts with, and all that amnesia wipes."""
        self.group: Tuple[str, ...] = self._initial_group
        #: ``(old, new)`` while the newest config entry in the log is joint
        self.joint: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
        self.election = LeaderElection(
            member=self.name,
            index=self.group.index(self.name),
            group_size=len(self.group),
            initial_leader=self.bootstrap_leader,
            seed=self.seed,
            timeout_range=self.election_timeout,
        )
        self.log = ConsensusLog()
        #: known leader of the current term (None while electing)
        self.leader: Optional[str] = self.bootstrap_leader
        #: set when this leader committed a C_new that excludes it: hand off
        #: leadership once the commit has been broadcast
        self._handoff_pending = False
        #: buffered client requests not yet known committed (insertion order)
        self.pending: "OrderedDict[str, _PendingRequest]" = OrderedDict()
        #: leader-side batch buffer (``append_batching`` only): requests that
        #: arrived while a commit round was in flight, awaiting the flush
        self._batch: "OrderedDict[str, _PendingRequest]" = OrderedDict()
        #: request_id -> (client, reply_type, reply_payload) for every applied
        #: request — the RSM reply cache that makes re-application idempotent
        self.applied_replies: Dict[str, Tuple[str, str, Dict[str, Any]]] = {}
        # leader-side replication cursors
        self.next_index: Dict[str, int] = {}
        self.match_index: Dict[str, int] = {}
        # election-timer bookkeeping (at most one live timer per member)
        self._timer_live = False
        self._armed_at = 0
        self._last_heard = 0
        #: set when this member refused a vote to a candidate with an
        #: inferior log while no leader is known: the group needs a healthy
        #: member to campaign (and re-replicate) or the stale candidate
        #: disrupts forever — see ``_on_vote_request``
        self._repair = False
        #: the newest state-machine snapshot this member holds (its own
        #: checkpoint, a leader-installed one, or the recovered one); the
        #: log's compacted prefix is exactly what this covers
        self._snapshot: Optional[Dict[str, Any]] = None
        # Lease state (all inert unless ``lease_policy`` is installed):
        #: leader-side lease bookkeeping, created lazily on the first read
        self._lease: Optional[LeaderLeaseState] = None
        #: first log index of this member's current leadership term; local
        #: reads are refused until the commit index reaches it (the leader
        #: must know its applied state covers every earlier-term commit)
        self._term_start_index = 0
        #: follower-side promise: grant no votes to members other than
        #: ``_promise_holder`` while ``vtime < _promise_until`` — the other
        #: half of the lease proof (volatile, like term/vote without a
        #: stable store: amnesia resets it, the documented hazard)
        self._promise_until = 0
        self._promise_holder: Optional[str] = None
        #: set while ``_apply_committed`` walks the committed suffix (the
        #: walk re-enters itself when a committed joint entry makes the
        #: leader append and commit C_new)
        self._applying = False

    # ------------------------------------------------------------------
    @property
    def peers(self) -> Tuple[str, ...]:
        return tuple(m for m in self.group if m != self.name)

    def _broadcast(self, send: Callable[[str], None], ctx: Context) -> None:
        """``send(peer)`` to every peer, as one kernel flight when
        ``batch_fanout`` is set."""
        peers = self.peers
        with ctx.flight() if self.batch_fanout and len(peers) > 1 else nullcontext():
            for peer in peers:
                send(peer)

    # ------------------------------------------------------------------
    # Configuration (joint consensus)
    # ------------------------------------------------------------------
    def _quorum_ok(self, supporters) -> bool:
        """Whether ``supporters`` form a quorum of the *current* config.

        Under a joint configuration a quorum must hold in **both** the old
        and the new group (members in both count for both) — the rule that
        makes any quorum taken during the transition intersect any quorum of
        either epoch, so two leaders (or two commits) can never coexist
        across the change.
        """
        members = set(supporters)

        def majority_of(group: Tuple[str, ...]) -> bool:
            return len(members & set(group)) >= len(group) // 2 + 1

        if self.joint is not None:
            old, new = self.joint
            return majority_of(old) and majority_of(new)
        return majority_of(self.group)

    def _adopt_config(self, payload: Mapping[str, Any]) -> None:
        if payload.get("phase") == "new":
            self.group = tuple(payload["group"])
            self.joint = None
        else:
            old, new = tuple(payload["old"]), tuple(payload["new"])
            self.joint = (old, new)
            self.group = old + tuple(m for m in new if m not in old)

    def _config_at(self, through: int) -> Optional[Tuple[Tuple[str, Any], ...]]:
        """The configuration in force at index ``through``: the newest
        CONFIG payload at an index <= ``through``, falling back to the one
        the snapshot carries (None: the construction-time group)."""
        entry = self.log.newest_config(through)
        if entry is not None:
            return entry.payload
        return self._snapshot.get("config") if self._snapshot is not None else None

    def _refresh_config(self) -> None:
        """Adopt the newest configuration (Raft's rule: a configuration
        takes effect when it is appended, not committed)."""
        config = self._config_at(self.log.last_index)
        if config is None:
            self.group = self._initial_group
            self.joint = None
        else:
            self._adopt_config(dict(config))

    def _append_config_entry(
        self,
        request_id: str,
        phase: str,
        payload: Mapping[str, Any],
        client: str,
        ctx: Context,
    ) -> None:
        """Append one configuration entry and adopt it (no replication —
        shared by the leader proposal path and the post-election re-propose
        loop, which replicates once after all re-proposals)."""
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=request_id,
                msg_type=CONFIG,
                payload=tuple(sorted({"phase": phase, **payload}.items())),
                client=client,
                proposed_at=ctx.vtime,
            )
        )
        self._refresh_config()
        ctx.internal(
            consensus="config",
            phase=phase,
            term=self.election.term,
            member=self.name,
            group=",".join(self.joint[1] if self.joint else self.group),
        )

    def _append_joint(self, request_id: str, request: _PendingRequest, ctx: Context) -> None:
        """Enter a membership change into the log as its joint entry."""
        payload = dict(request.payload)
        self._append_config_entry(
            request_id,
            "joint",
            {"old": tuple(payload.get("old", ())), "new": tuple(payload.get("new", ()))},
            request.client,
            ctx,
        )

    def forget(self) -> None:
        """Crash-with-amnesia hook: lose *all* volatile state.

        Raft's safety argument assumes term/vote/log survive crashes; an
        amnesiac member can double-vote, so replicated-coordinator systems
        model crash-recovery with durable state.  Without a stable store
        this hook keeps the fault plane's contract honest (tests document
        the hazard); with one attached (``BuildConfig.persistence``) the
        volatile wipe is followed by :meth:`_recover`, and amnesia degrades
        to ordinary crash-recovery.
        """
        self._reset_volatile()
        if self.name == self.bootstrap_leader:
            # A blank bootstrap leader must not resume leading: it lost its log.
            self.election.step_down(self.election.term)
        self.leader = None
        self.machine.reset()
        if self.stable_store is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Stable storage (persistence plane)
    # ------------------------------------------------------------------
    def attach_store(self, store: Any, compact_every: Optional[int] = None) -> None:
        """Attach durable storage; all later term/vote/log mutations write
        through *before* they take effect.  An empty store is sealed with
        the current election state (so a crash before any mutation still
        recovers the bootstrap vote); a non-empty one — surviving storage a
        rebuilt system was pointed at — is recovered from immediately."""
        self.stable_store = store
        if compact_every is not None:
            self.compact_every = int(compact_every)
        if store.is_empty():
            store.save_meta(self.election.term, self.election.voted_for)
            self.election.attach_store(store)
            self.log.attach_store(store)
        else:
            self._recover()

    def _recover(self) -> None:
        """Reload term/vote/log from the stable store and re-apply the
        committed suffix past the snapshot, silently.  Trace-invisible: no
        sends, no internal actions, no checkpoint — recovery changes what
        the member *knows*, and only its later behaviour shows it (clients
        got their replies before the crash; a retransmitted request finds
        the memoized one)."""
        store = self.stable_store
        meta = store.load_meta()
        if meta is not None:
            self.election.restore(*meta)
        self.election.attach_store(store)
        self.leader = None
        snapshot = store.load_snapshot()
        base = (0, 0)
        if snapshot is not None:
            self._adopt_snapshot(snapshot, restore=True)
            base = (int(snapshot["index"]), int(snapshot["term"]))
        self.log.restore(*base, store.load_entries(), store.load_commit())
        self.log.attach_store(store)
        self._refresh_config()
        self._apply_committed(None)
        self.recoveries += 1

    def _adopt_snapshot(self, snapshot: Dict[str, Any], restore: bool) -> None:
        """Make ``snapshot`` this member's newest.  With ``restore`` the
        machine and reply cache are reset to the snapshot's; otherwise the
        live machine already applied past it and only absorbs the replies
        it never saw."""
        if restore:
            self.machine.restore(snapshot["machine"])
            self.applied_replies = dict(snapshot["replies"])
        else:
            for request_id, reply in dict(snapshot["replies"]).items():
                self.applied_replies.setdefault(request_id, reply)
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    # Checkpointing / log compaction
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot the applied state machine and compact the log through
        ``last_applied``; returns the number of entries discarded.

        Deliberately refused while the newest configuration is joint: the
        joint entry must stay addressable until C_new is proposed, or a
        post-election leader could never finish the membership change.
        Trace-invisible (no sends, no internal actions), so compaction is a
        pure space optimisation — verdict tests pin that it never changes
        committed state.
        """
        if self.joint is not None:
            return 0
        through = self.log.last_applied
        if through <= self.log.snapshot_index:
            return 0
        snapshot: Dict[str, Any] = {
            "index": through,
            "term": self.log.term_at(through),
            "machine": self.machine.snapshot(),
            "replies": dict(self.applied_replies),
            "config": self._config_at(through),
        }
        dropped = self.log.compact(snapshot)
        if dropped:
            self._snapshot = snapshot
            self.checkpoints += 1
        return dropped

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, message: Message, ctx: Context) -> None:
        msg_type = message.msg_type
        if msg_type in self.machine.request_types or msg_type == RECONFIG:
            self._on_client_request(message, ctx)
        elif msg_type == "cns-append":
            self._on_append(message, ctx)
        elif msg_type == "cns-snapshot":
            self._on_snapshot(message, ctx)
        elif msg_type == "cns-append-ack":
            self._on_append_ack(message, ctx)
        elif msg_type == "cns-vote-req":
            self._on_vote_request(message, ctx)
        elif msg_type == "cns-vote":
            self._on_vote(message, ctx)
        elif msg_type == "cns-lease":
            self._on_lease(message, ctx)
        elif msg_type == "cns-lease-ack":
            self._on_lease_ack(message, ctx)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def _proposed_or_served(self, request_id: str) -> bool:
        """Whether a leader must not propose ``request_id``: it was applied,
        sits in the log or waits in the batch buffer.  A membership change
        also counts as proposed while its C_new (``<id>/new``) is in the
        log: the joint entry may already be compacted away, and the reply
        is memoized only once C_new applies."""
        return (
            request_id in self.applied_replies
            or request_id in self._batch
            or self.log.contains_request(request_id)
            or self.log.contains_request(f"{request_id}/new")
        )

    def _on_client_request(self, message: Message, ctx: Context) -> None:
        ident = message.get("txn") if message.msg_type != RECONFIG else message.get("reconfig")
        request_id = f"{message.msg_type}/{ident}"
        if request_id in self.applied_replies:
            # Already served; only the leader re-sends (followers stay quiet
            # so the client sees at most a few copies, never a quorum storm).
            if self.election.is_leader:
                self._send_reply(request_id, ctx)
            return
        request = _PendingRequest(message.msg_type, message.items, message.src)
        if not self.election.is_leader:
            # Follower / candidate: buffer the broadcast copy and make sure
            # an election timer is running — if the leader never commits
            # this, the timer is what converts the buffered copy into a
            # re-proposal.
            self.pending.setdefault(request_id, request)
            self._ensure_timer(ctx)
            return
        if self._proposed_or_served(request_id):
            return
        if self.lease_policy is not None and message.msg_type in self.machine.read_only_types:
            self._on_read_request(request_id, request, ctx)
            return
        if message.msg_type == RECONFIG:
            if self.joint is not None:
                raise SimulationError(
                    "a second membership change arrived while C_old,new is "
                    "in flight: at most one configuration change at a time"
                )
            self._append_joint(request_id, request, ctx)
        elif self.append_batching:
            # Buffer while a commit round is in flight; the flush at the
            # end of that round packs the whole buffer into one entry.
            self._batch[request_id] = request
            if self.log.commit_index == self.log.last_index:
                self._flush_batch(ctx)
            return
        else:
            self._append_request(request_id, request, ctx)
        self._replicate(ctx)
        self._maybe_commit(ctx)

    # ------------------------------------------------------------------
    # Replication (leader side)
    # ------------------------------------------------------------------
    def _append_request(self, request_id: str, request: _PendingRequest, ctx: Context) -> None:
        """Append one client request as its own log entry."""
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=request_id,
                msg_type=request.msg_type,
                payload=request.payload,
                client=request.client,
                proposed_at=ctx.vtime,
            )
        )

    def _append_requests(
        self, requests: Sequence[Tuple[str, _PendingRequest]], ctx: Context
    ) -> None:
        """Append buffered ``(request_id, request)`` pairs: one ordinary
        entry for a single request, one BATCH entry otherwise."""
        if len(requests) == 1:
            self._append_request(*requests[0], ctx)
        elif requests:
            self.log.append(
                LogEntry(
                    term=self.election.term,
                    request_id=f"{BATCH}/{self.election.term}.{self.log.last_index + 1}",
                    msg_type=BATCH,
                    payload=(
                        (
                            "requests",
                            tuple((rid, r.msg_type, r.payload, r.client) for rid, r in requests),
                        ),
                    ),
                    proposed_at=ctx.vtime,
                )
            )

    def _flush_batch(self, ctx: Context) -> None:
        """Pack everything in the batch buffer into one log entry and start
        its replication round (leader, ``append_batching`` only)."""
        if not self._batch:
            return
        requests = tuple(self._batch.items())
        self._batch = OrderedDict()
        self._append_requests(requests, ctx)
        self._replicate(ctx)
        self._maybe_commit(ctx)

    def _replicate(self, ctx: Context) -> None:
        self._broadcast(lambda peer: self._send_append(peer, ctx), ctx)

    def _send_append(self, peer: str, ctx: Context) -> None:
        next_index = self.next_index.get(peer, self.log.last_index + 1)
        if next_index <= self.log.snapshot_index:
            # The entries this peer needs were compacted away: ship the
            # snapshot instead (Raft's InstallSnapshot); ordinary appends
            # resume from the snapshot index once the peer acks it.
            self._send_snapshot(peer, ctx)
            return
        prev_index = next_index - 1
        ctx.send(
            peer,
            "cns-append",
            {
                "term": self.election.term,
                "prev_index": prev_index,
                "prev_term": self.log.term_at(prev_index) if prev_index <= self.log.last_index else 0,
                "entries": self.log.entries_from(next_index),
                "commit": self.log.commit_index,
            },
            phase="consensus",
        )

    def _send_snapshot(self, peer: str, ctx: Context) -> None:
        if self._snapshot is None:
            raise SimulationError(
                f"{self.name} compacted its log without retaining a snapshot"
            )
        ctx.send(
            peer,
            "cns-snapshot",
            {"term": self.election.term, "snapshot": self._snapshot},
            phase="consensus",
        )

    def _maybe_commit(self, ctx: Context) -> None:
        """Advance the commit index to the highest current-term entry
        replicated on a majority (counting self), then apply.

        An advanced commit is immediately broadcast (an append carrying the
        new commit index, usually with no entries): followers apply and drop
        the request from their buffers, which is what lets their election
        timers quiesce — without it the *last* request of a burst would sit
        uncommitted at the followers forever and trigger a needless election
        at idle.
        """
        before = self.log.commit_index
        for index in range(self.log.last_index, self.log.commit_index, -1):
            if self.log.term_at(index) != self.election.term:
                break
            supporters = {self.name} | {
                p for p in self.peers if self.match_index.get(p, 0) >= index
            }
            if self._quorum_ok(supporters):
                self.log.advance_commit(index)
                break
        self._apply_committed(ctx)
        if self.log.commit_index > before:
            self._replicate(ctx)
        if (
            self._batch
            and self.election.is_leader
            and self.log.commit_index == self.log.last_index
        ):
            # The in-flight round landed: open the next one with everything
            # that queued up behind it, packed into a single entry.
            self._flush_batch(ctx)
        if self.lease_policy is not None and self.log.commit_index > before:
            # An advanced commit may satisfy the current-term guard that
            # parked reads were waiting on.
            self._lease_pump(ctx)
        if self._handoff_pending and self.election.is_leader:
            # This leader committed a C_new that excludes it: the commit has
            # been broadcast above, so abdicate — the remaining members hold
            # an election the next time progress needs a leader.
            self._handoff_pending = False
            ctx.internal(
                consensus="leader-handoff", term=self.election.term, member=self.name
            )
            self._step_down(self.election.term, leader=None, ctx=ctx)

    def _reply_in_term(self, message: Message, ctx: Context) -> bool:
        """Preamble of a reply to this member's own round (append ack,
        lease ack, vote): a newer term deposes it, and only a reply of its
        current term counts."""
        term = int(message.get("term", 0))
        if term > self.election.term:
            self._step_down(term, leader=None, ctx=ctx)
            return False
        return term == self.election.term

    def _on_append_ack(self, message: Message, ctx: Context) -> None:
        if not self._reply_in_term(message, ctx) or not self.election.is_leader:
            return
        peer = message.src
        if message.get("ok"):
            match = int(message.get("match", 0))
            self.match_index[peer] = max(self.match_index.get(peer, 0), match)
            self.next_index[peer] = self.match_index[peer] + 1
            self._maybe_commit(ctx)
        else:
            # Fast backtrack to the follower's committed prefix, which the
            # log-matching property guarantees agrees with ours.
            self.next_index[peer] = int(message.get("match", 0)) + 1
            self._send_append(peer, ctx)

    # ------------------------------------------------------------------
    # Leader leases (lease_policy only; see repro.consensus.lease)
    # ------------------------------------------------------------------
    def _lease_duration(self) -> int:
        return self.lease_policy.resolve(self.election_timeout)

    def _lease_state(self) -> LeaderLeaseState:
        if self._lease is None:
            self._lease = LeaderLeaseState(self._lease_duration())
        return self._lease

    def _on_read_request(self, request_id: str, request: _PendingRequest, ctx: Context) -> None:
        """Leader fast path for a read-only request: park it on the lease
        and pump — a live proven lease serves it immediately (latency 0),
        otherwise the extension round in flight proves the window for every
        read parked behind it in one evaluation."""
        lease = self._lease_state()
        if request_id in lease.reads:
            return
        if lease.expiry and not lease.live(ctx.vtime) and not lease.expired_logged:
            lease.expired_logged = True
            ctx.internal(
                consensus="lease-expired",
                term=self.election.term,
                member=self.name,
                until=lease.expiry,
                vtime=ctx.vtime,
            )
        lease.reads[request_id] = (request, ctx.vtime)
        self._lease_pump(ctx)

    def _serve_read_locally(
        self, request_id: str, request: _PendingRequest, arrived_at: int, ctx: Context
    ) -> None:
        """Answer a read from the applied state machine without a log entry.

        Read-only transitions are pure, so applying one touches no state;
        the reply is memoized like a committed one (retransmissions dedup)
        and the request id queues for the next ``cns-lease`` notify round so
        followers drop their broadcast copies and quiesce."""
        self._apply_request(request_id, request.msg_type, request.payload, request.client)
        self.pending.pop(request_id, None)
        lease = self._lease
        lease.notify.append(request_id)
        ctx.internal(
            consensus="local-read",
            term=self.election.term,
            member=self.name,
            request=request_id,
            until=lease.expiry,
            vtime=ctx.vtime,
            read_latency=max(0, ctx.vtime - arrived_at),
        )
        self._send_reply(request_id, ctx)

    def _lease_pump(self, ctx: Context) -> None:
        """Serve every parked read the proven window covers, then keep an
        extension round in flight while anything still needs one."""
        lease = self._lease
        if lease is None or not self.election.is_leader:
            return
        if (
            lease.reads
            and lease.live(ctx.vtime)
            and self.log.commit_index >= self._term_start_index
        ):
            parked = list(lease.reads.items())
            lease.reads = OrderedDict()
            for request_id, (request, arrived_at) in parked:
                if request_id in self.applied_replies:
                    self._send_reply(request_id, ctx)
                    continue
                self._serve_read_locally(request_id, request, arrived_at, ctx)
        self._maybe_start_lease_round(ctx)

    def _maybe_start_lease_round(self, ctx: Context) -> None:
        lease = self._lease
        if lease is None or lease.round_open or not self.election.is_leader:
            return
        if not lease.reads and not lease.notify:
            return
        lease.round_open = True
        lease.round_sent_at = ctx.vtime
        # The leader's own ack is implicit at send time (it holds its log).
        lease.record_ack(self.name, ctx.vtime)
        served = tuple(lease.notify)
        lease.notify = []
        payload = {"term": self.election.term, "at": lease.round_sent_at, "served": served}
        self._broadcast(lambda peer: ctx.send(peer, "cns-lease", payload, phase="consensus"), ctx)
        self._refresh_lease(ctx)  # single-member groups prove instantly

    def _refresh_lease(self, ctx: Context) -> None:
        """Recompute the proven lease window from the ack times and close
        the open round once a quorum has acknowledged it."""
        lease = self._lease
        start = lease.proven_start(self._quorum_ok)
        if start is not None:
            new_expiry = start + lease.duration
            if new_expiry > lease.expiry:
                kind = (
                    "lease-renewed"
                    if lease.expiry and lease.live(ctx.vtime)
                    else "lease-acquired"
                )
                lease.expiry = new_expiry
                lease.expired_logged = False
                ctx.internal(
                    consensus=kind,
                    term=self.election.term,
                    member=self.name,
                    start=start,
                    until=new_expiry,
                    vtime=ctx.vtime,
                )
        if lease.round_open and lease.expiry >= lease.round_sent_at + lease.duration:
            lease.round_open = False
            self._lease_pump(ctx)

    def _on_lease(self, message: Message, ctx: Context) -> None:
        """Follower side of a ``cns-lease`` round: promise not to elect
        anyone else for one lease duration from *local* receive time (the
        virtual clock is skew-free, so receive time >= send time and the
        promise provably covers the leader's window), drop the broadcast
        copies of locally-served reads, and acknowledge."""
        if self.lease_policy is None:
            return
        ok = self._follow(message, ctx)
        if ok:
            until = ctx.vtime + self._lease_duration()
            if until > self._promise_until:
                self._promise_until = until
            self._promise_holder = message.src
            for request_id in tuple(message.get("served", ())):
                self.pending.pop(request_id, None)
        ctx.send(
            message.src,
            "cns-lease-ack",
            {"term": self.election.term, "at": int(message.get("at", 0)), "ok": ok},
            phase="consensus",
        )

    def _on_lease_ack(self, message: Message, ctx: Context) -> None:
        if not self._reply_in_term(message, ctx) or not self.election.is_leader:
            return
        if self._lease is None or not message.get("ok"):
            return
        self._lease.record_ack(message.src, int(message.get("at", 0)))
        self._refresh_lease(ctx)

    # ------------------------------------------------------------------
    # Replication (follower side)
    # ------------------------------------------------------------------
    def _follow(self, message: Message, ctx: Context) -> bool:
        """Follower preamble of ``cns-append`` / ``cns-snapshot`` /
        ``cns-lease``: False for a stale term; otherwise follow the sender
        as this term's leader (a live leader is doing the re-replication,
        so no repair campaign is needed)."""
        term = int(message.get("term", 0))
        if term < self.election.term:
            return False
        if term > self.election.term or not self.election.is_follower:
            self._step_down(term, leader=message.src, ctx=ctx)
        self.leader = message.src
        self._last_heard = ctx.vtime
        self._repair = False
        return True

    def _ack_append(self, peer: str, ok: bool, match: int, ctx: Context) -> None:
        ctx.send(
            peer,
            "cns-append-ack",
            {"term": self.election.term, "ok": ok, "match": match},
            phase="consensus",
        )

    def _on_append(self, message: Message, ctx: Context) -> None:
        prev_index = int(message.get("prev_index", 0))
        if not self._follow(message, ctx) or not self.log.matches(
            prev_index, int(message.get("prev_term", 0))
        ):
            self._ack_append(message.src, False, self.log.commit_index, ctx)
            return
        entries = tuple(message.get("entries", ()))
        if entries:
            self.log.merge(prev_index, entries)
            # A merge may have installed *or truncated* a configuration
            # entry; re-derive the active config from the log.  Empty
            # appends (commit broadcasts) cannot change the log, so they
            # skip both.
            self._refresh_config()
        self.log.advance_commit(int(message.get("commit", 0)))
        self._apply_committed(ctx)
        # Acknowledge exactly the prefix this append established — a stale
        # longer suffix past it must not inflate the leader's match cursor.
        # Floor at the local snapshot index (a no-op without compaction):
        # entries below it were skipped as already-committed, and acking
        # less would walk the leader's next_index into the compacted prefix
        # forever.
        self._ack_append(
            message.src, True, max(prev_index + len(entries), self.log.snapshot_index), ctx
        )

    def _on_snapshot(self, message: Message, ctx: Context) -> None:
        """Install a leader-shipped snapshot (the compacted counterpart of
        :meth:`_on_append`): adopt machine state, reply cache and config as
        of the snapshot index, then ack so ordinary appends resume."""
        if not self._follow(message, ctx):
            self._ack_append(message.src, False, self.log.commit_index, ctx)
            return
        snapshot = dict(message.get("snapshot") or {})
        if int(snapshot.get("index", 0)) > self.log.snapshot_index:
            self._adopt_snapshot(snapshot, restore=self.log.install_snapshot(snapshot))
            self._refresh_config()
            for request_id in [r for r in self.pending if r in self.applied_replies]:
                self.pending.pop(request_id, None)
        self._ack_append(message.src, True, self.log.commit_index, ctx)

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------
    def _on_vote_request(self, message: Message, ctx: Context) -> None:
        term = int(message.get("term", 0))
        candidate = message.src
        was_leader = self.election.is_leader
        if term > self.election.term:
            self._step_down(term, leader=None, ctx=ctx)
        granted = (
            self.election.may_grant(candidate, term)
            and not self.election.is_leader
            and candidate in self.group  # elections are restricted to the current config
            and self.log.up_to_date(
                int(message.get("last_index", 0)), int(message.get("last_term", 0))
            )
            # Lease promise: while this member vouches for a lease holder it
            # elects nobody else — by quorum intersection no election can
            # complete inside a proven lease window, so the candidate waits
            # the old lease out.  (The holder itself may reclaim: a
            # same-member re-election cannot produce a stale read.)
            and not (
                self.lease_policy is not None
                and self._promise_until > ctx.vtime
                and candidate != self._promise_holder
            )
        )
        if granted:
            self.election.grant(candidate)
            self._last_heard = ctx.vtime  # a live candidacy counts as liveness
        ctx.send(
            candidate,
            "cns-vote",
            {"term": self.election.term, "granted": granted},
            phase="consensus",
        )
        if not granted and self.name in self.group and not self.election.is_leader:
            # A stale member (e.g. back from a healed partition, campaigning
            # on requests the group long committed) can depose a quiescent
            # leader it cannot replace: without heartbeats nobody would ever
            # re-replicate, so the stale candidate campaigns forever.  The
            # refusers hold better logs — a deposed leader reclaims
            # leadership immediately (asymmetric, so no duel), and refusing
            # followers arm their randomized repair timers; whichever
            # campaigns first wins, and the new term's replication catches
            # the stale member up, drains its buffer and restores quiescence.
            if was_leader:
                self._start_election(ctx)
            else:
                self._repair = True
                self._ensure_timer(ctx)

    def _on_vote(self, message: Message, ctx: Context) -> None:
        if not self._reply_in_term(message, ctx) or not self.election.is_candidate:
            return
        if message.get("granted"):
            self.election.record_vote(message.src)
            if self._quorum_ok(self.election.votes):
                self._become_leader(ctx)

    def _start_election(self, ctx: Context) -> None:
        term = self.election.start_candidacy()
        self.leader = None
        ctx.internal(consensus="candidacy", term=term, member=self.name)
        for peer in self.peers:
            ctx.send(
                peer,
                "cns-vote-req",
                {
                    "term": term,
                    "last_index": self.log.last_index,
                    "last_term": self.log.last_term,
                },
                phase="consensus",
            )
        self.election.record_vote(self.name)
        if self._quorum_ok(self.election.votes):  # single-survivor groups
            self._become_leader(ctx)

    def _become_leader(self, ctx: Context) -> None:
        self.election.become_leader()
        self.leader = self.name
        self._repair = False
        self.next_index = {p: self.log.last_index + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        # A fresh leader holds no lease and serves no local read until its
        # current-term no-op commits (its applied state must cover every
        # earlier-term commit before a local read can reflect them).
        self._lease = None
        self._term_start_index = self.log.last_index + 1
        ctx.internal(
            consensus="became-leader",
            term=self.election.term,
            member=self.name,
            vtime=ctx.vtime,
        )
        # A no-op of the new term commits every prior-term entry beneath it
        # (Raft §5.4.2), and the buffered requests the old leader never
        # committed are re-proposed behind it.
        self.log.append(
            LogEntry(
                term=self.election.term,
                request_id=f"{NOOP}/{self.election.term}/{self.name}",
                msg_type=NOOP,
                proposed_at=ctx.vtime,
            )
        )
        batchable: List[Tuple[str, _PendingRequest]] = []
        for request_id, request in self.pending.items():
            if self._proposed_or_served(request_id):
                continue
            if request.msg_type == RECONFIG:
                if self.joint is None:  # else another change is mid-flight; stays buffered
                    self._append_joint(request_id, request, ctx)
            elif self.append_batching:
                # Re-proposals ride in one packed entry too.
                batchable.append((request_id, request))
            else:
                self._append_request(request_id, request, ctx)
        self._append_requests(batchable, ctx)
        self._maybe_advance_config(ctx)
        self._replicate(ctx)
        self._maybe_commit(ctx)

    def _step_down(self, term: int, leader: Optional[str], ctx: Context) -> None:
        was_leader = self.election.is_leader
        self.election.step_down(term)
        self.leader = leader
        if self._batch:
            # A deposed leader's unflushed batch joins its follower buffer —
            # the requests were never appended, so if the new leader also
            # lacks them (clients broadcast, but copies can still be in
            # flight) they are re-proposed from here at the next election.
            for request_id, request in self._batch.items():
                self.pending.setdefault(request_id, request)
            self._batch = OrderedDict()
        if self._lease is not None:
            # Unserved parked reads survive a deposition the same way: they
            # join the follower buffer and are re-proposed (as ordinary
            # committed entries) if no other copy reaches the new leader.
            for request_id, (request, _arrived_at) in self._lease.reads.items():
                self.pending.setdefault(request_id, request)
            self._lease = None
        if was_leader:
            ctx.internal(consensus="stepped-down", term=term, member=self.name)

    # ------------------------------------------------------------------
    # Election timer
    # ------------------------------------------------------------------
    def _ensure_timer(self, ctx: Context) -> None:
        if self._timer_live or self.election.is_leader:
            return
        self._timer_live = True
        self._armed_at = ctx.vtime
        ctx.set_timeout(self.election.next_timeout(), kind="election")

    def on_timeout(self, info: Mapping[str, Any], ctx: Context) -> None:
        self._timer_live = False
        if self.election.is_leader or not (self.pending or self._repair):
            return  # nothing blocked on a leader: quiesce
        if self.name not in self.group:
            return  # removed from the config: never campaign, await retirement
        if (
            self.lease_policy is not None
            and self._promise_until > ctx.vtime
            and self._promise_holder != self.name
        ):
            # A live lease promise: campaigning now would be refused by the
            # promiser quorum anyway — wait the old lease out, then retry.
            self._ensure_timer(ctx)
            return
        if self.election.is_follower and self._last_heard >= self._armed_at:
            # The leader (or an election) showed signs of life during this
            # window — grant another full window before interfering.
            self._ensure_timer(ctx)
            return
        self._start_election(ctx)
        self._ensure_timer(ctx)

    # ------------------------------------------------------------------
    # Apply + reply
    # ------------------------------------------------------------------
    def _maybe_advance_config(self, ctx: Context) -> None:
        """Leader rule: once the joint entry C_old,new is committed, append
        C_new (also run at election time, in case the previous leader died
        between committing the joint entry and proposing C_new)."""
        if not self.election.is_leader or self.joint is None:
            return
        # checkpoint() never compacts while the newest config is joint, so
        # a joint entry is always in the retained suffix.
        entry = self.log.newest_config(self.log.last_index)
        if entry is None:
            return
        payload = dict(entry.payload)
        if payload.get("phase") != "joint":
            return  # newest config is already C_new
        if self.log.newest_config(self.log.commit_index) is not entry:
            return  # joint entry not committed yet
        self._append_config_entry(
            f"{entry.request_id}/new",
            "new",
            {"group": tuple(payload["new"]), "request": entry.request_id},
            entry.client,
            ctx,
        )
        self._replicate(ctx)
        self._maybe_commit(ctx)

    def _apply_request(
        self, request_id: str, msg_type: str, payload: Any, client: str
    ) -> None:
        """Run one request's transition and memoize its reply — once per
        ``request_id``; a later application of the same id is a no-op.  A
        membership change's transition is its ``cns-reconfig-done`` reply
        (``payload`` is then the committed C_new payload)."""
        if request_id in self.applied_replies:
            return
        if msg_type == RECONFIG:
            reply_type, reply_payload = "cns-reconfig-done", {
                "reconfig": int(request_id.rsplit("/", 1)[-1]),
                "group": tuple(dict(payload)["group"]),
            }
        else:
            reply_type, reply_payload = self.machine.apply(msg_type, dict(payload))
        self.applied_replies[request_id] = (client, reply_type, reply_payload)

    def _apply_config(self, entry: LogEntry, ctx: Optional[Context]) -> None:
        """Apply a committed configuration entry (both phases are config-
        only: the coordinator state machine never sees them)."""
        payload = dict(entry.payload)
        if payload.get("phase") == "joint":
            if ctx is not None:
                self._maybe_advance_config(ctx)
            return
        # C_new committed: answer the original cns-reconfig request exactly
        # once (the reply is memoized under the *request's* id, so a re-sent
        # request after failover gets the same done message back).
        request_id = payload["request"]
        self._apply_request(request_id, RECONFIG, payload, entry.client)
        if ctx is None:
            return
        self.pending.pop(request_id, None)
        if self.election.is_leader:
            self._send_reply(request_id, ctx)
            if self.name not in payload["group"]:
                self._handoff_pending = True

    def _record_apply(
        self, index: int, entry: LogEntry, request_id: str, msg_type: str, ctx: Context
    ) -> None:
        info = dict(
            consensus="apply",
            index=index,
            term=entry.term,
            request=request_id,
            commit_latency=max(0, ctx.vtime - entry.proposed_at),
        )
        if self.lease_policy is not None and msg_type in self.machine.read_only_types:
            info["read"] = True
        ctx.internal(**info)

    def _apply_committed(self, ctx: Optional[Context]) -> None:
        """Apply every committed, unapplied entry in index order — the one
        apply path.  ``ctx=None`` is recovery: the same transitions and
        memoized replies, but nothing is sent or recorded, no membership
        change advances and no checkpoint is taken."""
        outermost = not self._applying
        self._applying = True
        for index, entry in self.log.take_unapplied():
            if entry.msg_type == CONFIG:
                self._apply_config(entry, ctx)
                if ctx is not None:
                    self._record_apply(index, entry, entry.request_id, CONFIG, ctx)
                continue
            # An ordinary entry carries one request, a BATCH entry several:
            # each applies exactly as if it had its own entry.
            for request_id, msg_type, payload, client in entry.requests():
                self._apply_request(request_id, msg_type, payload, client)
                if ctx is None:
                    continue
                self.pending.pop(request_id, None)
                self._batch.pop(request_id, None)
                self._record_apply(index, entry, request_id, msg_type, ctx)
                if self.election.is_leader:
                    self._send_reply(request_id, ctx)
        if not outermost:
            # ``take_unapplied`` already moved ``last_applied`` past entries
            # the outer walk has yet to apply: a checkpoint here would claim
            # a machine state it does not hold.
            return
        self._applying = False
        if (
            ctx is not None
            and self.compact_every is not None
            and self.log.last_applied - self.log.snapshot_index >= self.compact_every
        ):
            self.checkpoint()

    def _send_reply(self, request_id: str, ctx: Context) -> None:
        client, reply_type, reply_payload = self.applied_replies[request_id]
        msg_type = request_id.split("/", 1)[0]
        phase = "reconfig" if msg_type == RECONFIG else self.machine.reply_phase(msg_type)
        ctx.send(client, reply_type, reply_payload, phase=phase)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.name}: {self.election.describe().split(': ', 1)[1]}, "
            f"{self.log.describe()}, pending={len(self.pending)}, {self.machine.describe()}"
        )


def consensus_members(
    group: Sequence[str],
    machine_factory,
    seed: int = 0,
    election_timeout: Tuple[int, int] = DEFAULT_ELECTION_TIMEOUT,
) -> List[ReplicatedCoordinator]:
    """Build one :class:`ReplicatedCoordinator` per name in ``group``.

    ``machine_factory`` is called once per member so every member applies its
    *own* copy of the state machine (shared state would fake agreement).
    """
    return [
        ReplicatedCoordinator(
            name=member,
            group=group,
            machine=machine_factory(),
            seed=seed,
            election_timeout=election_timeout,
        )
        for member in group
    ]
