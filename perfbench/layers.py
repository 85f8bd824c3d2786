"""The traced run: wrap one repetition's instances, then derive per-layer
metrics from the spans and from counters taken at the same boundaries.

Layers are named after the modules under ``src/repro``.  Every wrapped
entry point and the span name it records:

=====================================  =====================================
entry point (on the built instance)    span name
=====================================  =====================================
``SystemHandle.run``                   ``ioa.run`` (kernel; the root span)
``Scheduler.choose``                   ``ioa.choose``
``Trace.append``                       ``ioa.trace_append``
obs plane observer (``set_observer``)  ``obs.observer``
obs plane mailbox hooks                ``obs.on_enqueue`` / ``obs.on_dequeue``
``FaultInjector`` event hooks          ``faults.<hook>``
client ``on_message`` / ``on_timeout`` ``protocols.client.<method>``
client session (``run_transaction``)   ``protocols.client.session``
storage/coordinator server handlers    ``protocols.server.<method>``
``ReplicatedCoordinator`` handlers     ``consensus.member.<method>``
each member's ``StableStore`` methods  ``persist.<method>``
set-up and results-phase calls         ``protocols.build``, ``analysis.*``,
                                       ``txn.history``, ``core.*``
=====================================  =====================================

The injector's clock queries (``now``, ``advance_to``) are not wrapped: they
are reads called from inside other hooks and the scheduler, not events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List

from repro.consensus import ReplicatedCoordinator
from repro.ioa import ActionKind, ClientAutomaton

from spans import TracedSession, Tracer

#: injector event hooks -> index of the message argument (None = no message)
FAULT_HOOKS = {
    "before_step": None,
    "on_idle": None,
    "on_send": 0,
    "suppress_delivery": 0,
    "suppress_timeout": None,
    "on_remove": None,
}
STORE_METHODS = (
    "save_meta",
    "load_meta",
    "log_append",
    "log_truncate",
    "load_entries",
    "save_commit",
    "load_commit",
    "save_snapshot",
    "load_snapshot",
)


@dataclass
class Probe:
    """Counts taken at the wrapped boundaries (all deterministic per seed
    except the completion stamps)."""

    chooses: int = 0
    pending_total: int = 0
    protocol_msgs: int = 0
    consensus_msgs: int = 0
    read_replies: int = 0
    elections: int = 0
    leaders_at: List[int] = field(default_factory=list)
    commit_latencies: List[int] = field(default_factory=list)
    local_reads: int = 0
    read_applies: int = 0
    snapshot_bytes_max: int = 0
    retained_entries_max: int = 0
    #: wall-clock stamp of every RESPOND, in completion order
    completions: List[float] = field(default_factory=list)


def classify(automaton: Any) -> str:
    if isinstance(automaton, ReplicatedCoordinator):
        return "consensus.member"
    if isinstance(automaton, ClientAutomaton):
        return "protocols.client"
    return "protocols.server"


def instrument(rep: Any, probe: Probe) -> None:
    """Wrap every entry point of ``rep``'s built system (instances only)."""
    tracer: Tracer = rep.tracer
    handle = rep.handle
    sim = handle.simulation
    members = set(handle.consensus_group)
    storage = set(handle.servers)
    readers = set(handle.readers)

    # -- kernel: scheduler and trace --------------------------------------
    choose = sim.scheduler.choose
    choose_code = tracer.code("ioa.choose")

    def traced_choose(pending: Any, kernel: Any) -> int:
        probe.chooses += 1
        probe.pending_total += len(pending)
        tracer.open(choose_code)
        try:
            return choose(pending, kernel)
        finally:
            tracer.close()

    sim.scheduler.choose = traced_choose

    append = sim.trace.append
    append_code = tracer.code("ioa.trace_append")

    def traced_append(action: Any) -> Any:
        tracer.open(append_code, action)
        try:
            return append(action)
        finally:
            tracer.close()
            _observe_action(action, probe, readers, storage)

    sim.trace.append = traced_append

    # -- obs plane ---------------------------------------------------------
    plane = handle.obs
    if plane is not None:
        sim.trace.set_observer(tracer.wrap("obs.observer", plane.on_action, 0))
        plane.on_enqueue = tracer.wrap("obs.on_enqueue", plane.on_enqueue)
        plane.on_dequeue = tracer.wrap("obs.on_dequeue", plane.on_dequeue, 0)

    # -- fault plane --------------------------------------------------------
    injector = sim.fault_plane
    for hook, subject in FAULT_HOOKS.items():
        setattr(injector, hook, tracer.wrap(f"faults.{hook}", getattr(injector, hook), subject))
    on_send = injector.on_send

    def counted_send(message: Any, kernel: Any) -> None:
        if message.src in members:
            probe.consensus_msgs += 1
        else:
            probe.protocol_msgs += 1
        on_send(message, kernel)

    injector.on_send = counted_send

    # -- automata and their stores -------------------------------------------
    for automaton in sim.automata():
        layer = classify(automaton)
        automaton.on_message = tracer.wrap(f"{layer}.on_message", automaton.on_message, 0)
        automaton.on_timeout = tracer.wrap(f"{layer}.on_timeout", automaton.on_timeout)
        if layer == "protocols.client":
            automaton.run_transaction = _traced_sessions(tracer, automaton.run_transaction)
        store = getattr(automaton, "stable_store", None)
        if store is not None:
            _instrument_store(tracer, probe, automaton, store)


def _traced_sessions(tracer: Tracer, run_transaction: Any) -> Any:
    code = tracer.code("protocols.client.session")

    def traced(txn: Any, ctx: Any) -> TracedSession:
        return TracedSession(run_transaction(txn, ctx), tracer, code, txn)

    return traced


def _instrument_store(tracer: Tracer, probe: Probe, member: Any, store: Any) -> None:
    for method in STORE_METHODS:
        setattr(store, method, tracer.wrap(f"persist.{method}", getattr(store, method)))
    save_snapshot = store.save_snapshot
    log_append = store.log_append

    def sized_snapshot(snapshot: Any) -> None:
        save_snapshot(snapshot)
        with tracer.span("trace.probe"):
            probe.snapshot_bytes_max = max(probe.snapshot_bytes_max, len(repr(snapshot)))

    def retained_append(index: int, entry: Any) -> None:
        log_append(index, entry)
        probe.retained_entries_max = max(probe.retained_entries_max, len(member.log.entries))

    store.save_snapshot = sized_snapshot
    store.log_append = retained_append


def _observe_action(action: Any, probe: Probe, readers: set, storage: set) -> None:
    kind = action.kind
    if kind is ActionKind.RESPOND:
        probe.completions.append(perf_counter())
    elif kind is ActionKind.RECV:
        message = action.message
        if message.dst in readers and message.src in storage:
            probe.read_replies += 1
    elif kind is ActionKind.INTERNAL and action.info:
        info = dict(action.info)
        consensus = info.get("consensus")
        if consensus == "candidacy":
            probe.elections += 1
        elif consensus == "became-leader":
            probe.leaders_at.append(int(info.get("vtime", 0)))
        elif consensus == "apply":
            if "commit_latency" in info:
                probe.commit_latencies.append(int(info["commit_latency"]))
            if info.get("read"):
                probe.read_applies += 1
        elif consensus == "local-read":
            probe.local_reads += 1


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def bucket(name: str) -> str:
    """The self-time bucket of a span name."""
    if name == "ioa.run":
        return "ioa.self"
    parts = name.split(".")
    if parts[0] in ("protocols", "consensus") and len(parts) == 3:
        return ".".join(parts[:2])
    if parts[0] in ("faults", "persist", "obs"):
        return parts[0]
    return name


#: the self-time buckets of the run phase
RUN_BUCKETS = (
    "ioa.self",
    "ioa.choose",
    "ioa.trace_append",
    "protocols.client",
    "protocols.server",
    "consensus.member",
    "faults",
    "persist",
    "obs",
)


def calls_in(tracer: Tracer, name: str) -> int:
    """Spans recorded in one self-time bucket."""
    return sum(n for span, n in tracer.calls.items() if bucket(span) == name)


def self_times(tracer: Tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, seconds in tracer.self_time.items():
        key = bucket(name)
        out[key] = out.get(key, 0.0) + seconds
    return out


def slope(completions: List[float], run_start: float) -> float:
    """µs per transaction of the last quarter of completions divided by the
    first quarter's (1.0 = no drift with run length)."""
    n = len(completions)
    quarter = n // 4
    if quarter < 1:
        return 1.0
    first = (completions[quarter - 1] - run_start) / quarter
    last = (completions[n - 1] - completions[n - 1 - quarter]) / quarter
    return last / first
