"""The benchmark's three workloads: build, run and judge one repetition.

Each workload is one seeded experiment driven only through the library's
public calls — ``get_protocol(...).build(...)``, ``generate_workload`` /
``submit_workload``, ``SystemHandle.run``, ``History.from_simulation``,
``collect_metrics`` and the ``check_*`` verdicts — in three timed phases:

* **setup** — build the system, generate the transactions, submit them;
* **run** — ``handle.run()`` until the system is idle;
* **results** — history, ``collect_metrics`` where the workload calls it,
  then the checkers that gate the verdict.

Every workload runs under ``ChaosScheduler(seed)`` with a ``FaultInjector``
latency model, so virtual time is injected message delay.  Clients are
closed-loop: the kernel invokes a client's next transaction only after its
previous one responded.  See ``perfbench/README.md`` for why each exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.analysis import WorkloadSpec, collect_metrics, generate_workload, submit_workload
from repro.core import check_lemma20, check_snow, check_strict_serializability
from repro.faults import (
    ChaosScheduler,
    CrashEvent,
    DropPolicy,
    DuplicatePolicy,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    UniformLatency,
)
from repro.obs import ObservabilityPlane, TraceMode
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol
from repro.txn import History, ReadTransaction

#: generous kernel step guard: the longest workload takes ~51k events
MAX_STEPS = 5_000_000


#: the timed phases of a repetition, and the calls of the set-up phase
PHASES = ("setup", "run", "results")
SETUP_CALLS = ("protocols.build", "analysis.generate", "analysis.submit")


@dataclass(frozen=True)
class Workload:
    """A named experiment shape (everything but the seed)."""

    name: str
    protocol: str
    readers: int
    writers: int
    objects: int
    reads_per_reader: int
    writes_per_writer: int
    txn_size: int
    latency: Tuple[int, int]
    #: optional ``build()`` knobs, made fresh per build (planes are single-use)
    knobs: Callable[[], Dict[str, Any]]
    #: fault-plan fields beyond the latency model
    plan: Dict[str, Any]
    collects: bool
    results: Callable[["Repetition"], None]


@dataclass
class Repetition:
    """One build → run → results pass and everything measured on it."""

    workload: Workload
    seed: int
    handle: Any = None
    read_ids: List[str] = field(default_factory=list)
    write_ids: List[str] = field(default_factory=list)
    history: Any = None
    #: wall-clock phase times (seconds)
    times: Dict[str, float] = field(default_factory=dict)
    #: durations of the phase calls, by span name (seconds)
    calls: Dict[str, float] = field(default_factory=dict)
    #: verdict-gate failures (empty = every check passed)
    failures: List[str] = field(default_factory=list)
    #: deterministic outcomes that must repeat bit-for-bit per seed
    counts: Dict[str, Any] = field(default_factory=dict)
    #: the traced run's span store (None in timed runs)
    tracer: Any = None
    #: phase -> factor from measured to reference seconds (see speed.py)
    scale: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 1.0))
    #: reference-second times of this repetition's set-up and runs and of
    #: the extra ones made before it
    setups: List[float] = field(default_factory=list)
    runs: List[float] = field(default_factory=list)

    def ref(self, name: str) -> float:
        """A phase time, ``experiment`` (their sum) or a call's time, in
        reference seconds."""
        if name == "experiment":
            return sum(self.ref(phase) for phase in PHASES)
        if name in PHASES:
            return self.times[name] * self.scale[name]
        phase = "setup" if name in SETUP_CALLS else "results"
        return self.calls.get(name, 0.0) * self.scale[phase]

    def timed(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` and record its duration under ``name`` (a
        ``layer.call`` span name); the traced run also records a span."""
        start = perf_counter()
        if self.tracer is None:
            value = fn(*args, **kwargs)
        else:
            with self.tracer.span(name):
                value = fn(*args, **kwargs)
        self.calls[name] = self.calls.get(name, 0.0) + (perf_counter() - start)
        return value

    def release(self) -> None:
        """Drop the built system once measured (counts and times stay)."""
        self.handle = self.history = None

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


# ----------------------------------------------------------------------
# Results phases (one per workload)
# ----------------------------------------------------------------------
def _snow_paper_results(rep: Repetition) -> None:
    sim = rep.handle.simulation
    rep.timed("analysis.collect_metrics", collect_metrics, sim, rep.workload.protocol)
    report = rep.timed("core.check_snow", check_snow, sim, rep.history)
    rep.require(report.property_string() == "SNOW", f"check_snow reported {report.property_string()}, want SNOW")
    lemma = rep.timed(
        "core.check_lemma20", check_lemma20, rep.history.restricted_to_complete(), rep.handle.tags(), cross_check=False
    )
    # A known defect, recorded but kept out of the gate (see README.md).
    rep.counts["core.lemma20_violations"] = len(lemma.violations)


def _serializable(rep: Repetition) -> None:
    result = rep.timed(
        "core.check_serializability", check_strict_serializability, rep.history.restricted_to_complete()
    )
    rep.require(result.ok, "strict serializability violated: " + "; ".join(result.violations[:3]))


def _chaos_durable_results(rep: Repetition) -> None:
    sim = rep.handle.simulation
    rep.timed(
        "analysis.collect_metrics",
        collect_metrics,
        sim,
        rep.workload.protocol,
        placement=rep.handle.placement,
        quorum_policy=rep.handle.quorum_policy,
    )
    _serializable(rep)
    alerts = rep.handle.obs.monitors.alerts
    rep.require(not alerts, f"{len(alerts)} monitor alert(s): " + "; ".join(a.describe() for a in alerts[:2]))
    rep.require(not sim.incomplete_transactions(), "failed_ratio > 0 under faults")


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
#: the bootstrap leader of the replicated coordinator, fail-stopped early
BOOTSTRAP_LEADER = "coor"
CRASH_AT = 40

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="snow-paper",
            protocol="algorithm-a",
            readers=1,
            writers=3,
            objects=4,
            reads_per_reader=420,
            writes_per_writer=70,
            txn_size=2,
            latency=(0, 6),
            knobs=lambda: {"c2c": True},
            plan={},
            collects=True,
            results=_snow_paper_results,
        ),
        Workload(
            name="consensus-steady",
            protocol="algorithm-b",
            readers=2,
            writers=2,
            objects=4,
            reads_per_reader=800,
            writes_per_writer=200,
            txn_size=2,
            latency=(0, 6),
            knobs=lambda: {"replication_factor": 3, "quorum": "majority", "consensus_factor": 3},
            plan={},
            collects=False,
            results=_serializable,
        ),
        Workload(
            name="chaos-durable",
            protocol="algorithm-c",
            readers=2,
            writers=2,
            objects=4,
            reads_per_reader=200,
            writes_per_writer=400,
            txn_size=2,
            latency=(0, 4),
            knobs=lambda: {
                "replication_factor": 3,
                "quorum": "majority",
                "consensus_factor": 3,
                "persistence": PersistencePolicy(compact_every=16),
                "leases": True,
                "obs": ObservabilityPlane(monitors=True, health=True),
                "trace_mode": TraceMode.ring(4096),
            },
            plan={
                "drops": DropPolicy(probability=0.05),
                "duplicates": DuplicatePolicy(probability=0.05),
                "retry": RetryPolicy(),
                "crashes": (CrashEvent(server=BOOTSTRAP_LEADER, at=CRASH_AT, recover=None),),
            },
            collects=True,
            results=_chaos_durable_results,
        ),
    )
}


def set_up(workload: Workload, seed: int, tracer: Any = None) -> Repetition:
    """The set-up phase: build the system, generate and submit the workload."""
    rep = Repetition(workload=workload, seed=seed, tracer=tracer)
    start = perf_counter()
    plan = FaultPlan(
        name=workload.name,
        latency=UniformLatency(*workload.latency),
        seed=seed,
        **workload.plan,
    )
    rep.handle = handle = rep.timed(
        "protocols.build",
        get_protocol(workload.protocol).build,
        num_readers=workload.readers,
        num_writers=workload.writers,
        num_objects=workload.objects,
        scheduler=ChaosScheduler(seed=seed),
        seed=seed,
        max_steps=MAX_STEPS,
        fault_plane=FaultInjector(plan, seed=seed),
        **workload.knobs(),
    )
    spec = WorkloadSpec(
        reads_per_reader=workload.reads_per_reader,
        writes_per_writer=workload.writes_per_writer,
        read_size=workload.txn_size,
        write_size=workload.txn_size,
        seed=seed,
    )
    generated = rep.timed("analysis.generate", generate_workload, spec, handle.readers, handle.writers, handle.objects)
    rep.read_ids, rep.write_ids = rep.timed("analysis.submit", submit_workload, handle, generated)
    rep.times["setup"] = perf_counter() - start
    return rep


def run_repetition(
    workload: Workload,
    seed: int,
    tracer: Any = None,
    instrument: Any = None,
    between: Callable[[], None] = lambda: None,
) -> Repetition:
    """One full experiment: set up, run, results.

    Timed runs pass no ``tracer`` and no ``instrument``.  The traced run
    passes both: phase calls become spans, and ``instrument(rep)`` wraps the
    built instances between set-up and run.  ``between()`` runs between the
    run and results phases.  Neither is inside a timed phase.
    """
    rep = set_up(workload, seed, tracer)
    if instrument is not None:
        instrument(rep)
    handle = rep.handle
    start = perf_counter()
    rep.timed("ioa.run", handle.run)
    rep.times["run"] = perf_counter() - start
    rep.times["run_start"] = start
    between()
    start = perf_counter()
    rep.history = rep.timed("txn.history", History.from_simulation, handle.simulation, objects=handle.objects)
    workload.results(rep)
    rep.times["results"] = perf_counter() - start
    rep.times["experiment"] = rep.times["setup"] + rep.times["run"] + rep.times["results"]
    _account(rep)
    return rep


def _account(rep: Repetition) -> None:
    """Every submitted transaction is either complete or stranded, and the
    deterministic count columns of this repetition."""
    sim = rep.handle.simulation
    records = sim.transaction_records()
    submitted = rep.read_ids + rep.write_ids
    known = {str(r.txn_id) for r in records}
    rep.require(
        len(records) == len(submitted) and {str(t) for t in submitted} == known,
        f"{len(submitted)} submitted but {len(records)} transaction records",
    )
    faults = sim.fault_plane.stats
    reads = [r for r in records if isinstance(r.txn, ReadTransaction)]
    writes = [r for r in records if not isinstance(r.txn, ReadTransaction)]
    rep.counts.update(
        {
            "submitted": len(submitted),
            "completed": sum(1 for r in records if r.complete),
            "events": sim.steps_taken,
            "actions": sim.trace.total_appended,
            "messages": sum(r.messages_sent for r in records),
            "faults": {k: getattr(faults, k) for k in ("sent", "dropped", "duplicated", "retransmissions")},
            "read_rounds": tuple(r.rounds for r in reads),
            "read_vt": tuple(r.latency_virtual() for r in reads if r.complete),
            "write_vt": tuple(r.latency_virtual() for r in writes if r.complete),
        }
    )
