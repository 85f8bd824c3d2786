"""Declarative experiment grids: protocols × axes × scenarios → BENCH rows.

A :class:`GridSpec` names everything one grid varies — the protocols, the
axes (each label maps to :class:`ExperimentConfig` fields) and the named
scenarios (each maps to a fault plan, reconfiguration plan or controller) —
plus the row columns it commits.  :func:`run_grid` runs one experiment per
cell and :func:`grid_rows` flattens each cell into a JSON-ready row: the
cell's labels, the SNOW verdict, and the spec's columns taken from
:meth:`ExperimentMetrics.as_row`.  A column a cell's run did not measure
(no fault plane, no replication, no lease activity, …) is left out of that
row rather than filled in.

The seven grids the benchmarks commit as ``benchmarks/results/BENCH_*.json``
are defined here, so the benches and the tests run the very same cells:
:data:`FAULT_GRID`, :data:`REPLICATION_GRID`, :data:`FAILOVER_GRID`,
:data:`PERSISTENCE_GRID`, :data:`LEASE_GRID`, :data:`RECONFIG_GRID` and
:data:`CONTROLLER_GRID`.  Narrow one with :func:`dataclasses.replace`
(fewer protocols, another seed, a smaller ``workload`` in ``config``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..consensus.controller import ControllerPolicy
from ..faults.plan import CrashEvent, DropPolicy, FaultPlan, RetryPolicy
from ..faults.scenarios import (
    auto_heal,
    coordinator_failover,
    fail_stop,
    grow_group_mid_run,
    partition_grid_scenarios,
    replace_dead_replica,
    standard_fault_scenarios,
)
from ..persist import PersistencePolicy
from ..protocols.base import reader_names, writer_names
from ..txn.objects import object_names, server_for_object
from ..txn.placement import coordinator_group_names, replica_names
from .runner import ExperimentConfig, ExperimentResult, run_experiment
from .workload import WorkloadSpec

#: scenario name -> the ExperimentConfig fields that scenario sets
Scenarios = Mapping[str, Mapping[str, Any]]


@dataclass(frozen=True)
class GridSpec:
    """One experiment grid, committed as ``BENCH_<name>.json``.

    Every cell runs 2 readers × 2 writers over 2 objects on the chaos
    scheduler at ``seed`` (6 reads and 3 two-object writes per client),
    overridden by ``config``, then by the cell's axis labels, then by its
    scenario.  ``axes`` maps a row column to ``{label: config fields}``;
    ``scenarios`` maps the cell's config (after the axes) to its named
    scenarios, so a scenario can target e.g. the replica its factor
    implies.  ``columns`` are the :meth:`ExperimentMetrics.as_row` keys a
    row commits; ``renames`` maps a committed column to a differently
    named ``as_row()`` key.
    """

    name: str
    protocols: Tuple[str, ...]
    seed: int
    scenarios: Callable[[ExperimentConfig], Scenarios]
    columns: Tuple[str, ...]
    axes: Mapping[str, Mapping[Any, Mapping[str, Any]]] = field(default_factory=dict)
    config: Mapping[str, Any] = field(default_factory=dict)
    renames: Mapping[str, str] = field(default_factory=dict)


#: one executed cell: its labels (protocol, axis labels, scenario) and result
GridCell = Tuple[Dict[str, Any], ExperimentResult]


def run_grid(spec: GridSpec) -> List[GridCell]:
    """Run every cell of ``spec``: protocol, then axes, then scenario order."""
    cells: List[GridCell] = []
    for protocol in spec.protocols:
        base = ExperimentConfig(
            protocol=protocol,
            workload=WorkloadSpec(
                reads_per_reader=6, writes_per_writer=3, read_size=2, write_size=2, seed=spec.seed
            ),
            scheduler="chaos",
            seed=spec.seed,
        )
        base = replace(base, **spec.config)
        for point in product(*(axis.items() for axis in spec.axes.values())):
            config = base
            for _label, fields in point:
                config = replace(config, **fields)
            labels = {"protocol": protocol}
            labels.update(zip(spec.axes, (label for label, _fields in point)))
            for scenario, fields in spec.scenarios(config).items():
                result = run_experiment(replace(config, **fields))
                cells.append(({**labels, "scenario": scenario}, result))
    return cells


def grid_rows(spec: GridSpec, cells: List[GridCell]) -> List[Dict[str, Any]]:
    """Flatten executed cells into the rows ``BENCH_<spec.name>.json`` commits."""
    rows: List[Dict[str, Any]] = []
    for labels, result in cells:
        measured = result.metrics.as_row()
        row = dict(labels)
        row["snow"] = result.property_string()
        row["consistent"] = result.snow.satisfies_s if result.snow is not None else None
        for column in spec.columns:
            key = spec.renames.get(column, column)
            if key in measured:
                row[column] = measured[key]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# The seven committed grids
# ----------------------------------------------------------------------
_AVAILABILITY = ("availability", "read_availability", "write_availability")
_RECONFIG_COLUMNS = (
    "epochs", "reconfigs_completed", "joint_windows", "transfer_versions", "epoch_retries",
    "unavailability_window", "retired_servers",
)


def _first_server(config: ExperimentConfig) -> str:
    return server_for_object(object_names(config.num_objects)[0])


def _fault_scenarios(config: ExperimentConfig) -> Scenarios:
    """The chaos grid's columns: the standard regimes (``none``, slow and
    tail-latency networks, ``lossy``, ``dup-happy``, ``crash-recover``), a
    ``fail-stop`` of the server holding the first object — so the crash
    columns actually bite — and the partition grid, placement
    (client↔shard / shard↔shard) × duration (20 / 60 steps).  The
    fault-free ``none`` column is the baseline latency degradation is
    measured against."""
    server = _first_server(config)
    plans = standard_fault_scenarios(seed=config.seed, crash_server=server)
    plans["fail-stop"] = fail_stop(server=server, at=12, seed=config.seed)
    plans.update(
        partition_grid_scenarios(
            clients=reader_names(config.num_readers) + writer_names(config.num_writers),
            servers=tuple(server_for_object(o) for o in object_names(config.num_objects)),
            durations=(20, 60),
            seed=config.seed,
        )
    )
    return {name: {"faults": plan} for name, plan in plans.items()}


def _replica_crash_scenarios(config: ExperimentConfig) -> Scenarios:
    """``none`` and ``crash-replica``: a fail-stop of the *last* replica of
    the first object's group mid-run.  At factor 1 that replica is the
    object's only copy, so the crash costs availability; at factor ≥ 3 with
    a majority quorum the reads and writes complete on the surviving quorum
    and the verdict columns ride through the outage."""
    target = replica_names(object_names(config.num_objects)[0], config.replication_factor)[-1]
    crash = FaultPlan(
        name="crash-replica",
        crashes=(CrashEvent(server=target, at=6, recover=None),),
        seed=config.seed,
    )
    return {"none": {"faults": FaultPlan.none()}, "crash-replica": {"faults": crash}}


def _leader_crash_scenarios(config: ExperimentConfig) -> Scenarios:
    """``none`` and ``crash-leader``: a fail-stop of the coordinator's
    leader mid-run.  At factor 1 the "leader" is the designated first
    storage server and the crash stalls every coordinator-dependent
    transaction (the single point of failure); at factor ≥ 3 the surviving
    members elect a new leader after a bounded leaderless window and the
    run completes with the fault-free verdicts."""
    group = coordinator_group_names(config.consensus_factor)
    leader = group[0] if group else _first_server(config)
    return {
        "none": {"faults": FaultPlan.none()},
        "crash-leader": {"faults": coordinator_failover(leader=leader, at=14, seed=config.seed)},
    }


def _amnesia_scenarios(config: ExperimentConfig) -> Scenarios:
    """``none`` and ``amnesia-member``: a crash-with-amnesia of one
    consensus member, recovered mid-run.  With a store attached the member
    recovers its term/vote/log instead of resetting, so the verdict and
    availability columns match the fault-free baseline while the
    persistence columns report the recovery and compaction work it took."""
    amnesia = FaultPlan(
        name="amnesia-member",
        crashes=(CrashEvent(server="coor.2", at=10, recover=45, preserve_state=False),),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        seed=config.seed,
    )
    return {"none": {"faults": FaultPlan.none()}, "amnesia-member": {"faults": amnesia}}


def _lease_scenarios(config: ExperimentConfig) -> Scenarios:
    """``steady`` and ``leader-crash``: the lease holder fail-stops mid-run,
    so the grid crosses the read fast path with an election."""
    return {
        "steady": {"faults": FaultPlan.none()},
        "leader-crash": {"faults": coordinator_failover(leader="coor", at=12, seed=config.seed)},
    }


def _reconfig_scenarios(config: ExperimentConfig) -> Scenarios:
    """The membership scenarios on the first object's group:

    * ``none`` — fixed membership, the baseline every verdict is compared to;
    * ``replace-dead-replica`` — the group's last replica fail-stops, then a
      joint-consensus change swaps in a fresh replica;
    * ``grow-group`` — the group grows rf 3 → 5 mid-run, fault-free (state
      transfer before commit);
    * ``lossy-replace-p05/p15/p30`` — the replace-dead-replica change under
      uniform message loss, the axis that shows retransmissions growing
      with the drop probability while the verdict columns stay put.
    """
    first = object_names(config.num_objects)[0]
    factor = config.replication_factor
    plan, reconfig = replace_dead_replica(first, factor, seed=config.seed)
    grow_plan, grow = grow_group_mid_run(first, factor)
    scenarios: Dict[str, Mapping[str, Any]] = {
        "none": {},
        "replace-dead-replica": {"faults": plan, "reconfig": reconfig},
        "grow-group": {"faults": grow_plan, "reconfig": grow},
    }
    for probability in (0.05, 0.15, 0.30):
        name = f"lossy-replace-p{round(probability * 100):02d}"
        lossy = replace(
            plan,
            name=name,
            drops=DropPolicy(probability=probability, max_consecutive=4),
            retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        )
        scenarios[name] = {"faults": lossy, "reconfig": reconfig}
    return scenarios


def _controller_scenarios(config: ExperimentConfig) -> Scenarios:
    """Both with the rebalancing controller installed:

    * ``none`` — fault-free; the controller probes but derives nothing (its
      zero-plan behaviour is itself an acceptance criterion);
    * ``auto-heal-dead-replica`` — the last replica of the first object's
      group fail-stops with **no hand-authored plan**; the controller must
      detect it and restore full group strength autonomously.
    """
    plan, policy = auto_heal(
        object_names(config.num_objects)[0], config.replication_factor, seed=config.seed
    )
    return {
        "none": {"controller": ControllerPolicy()},
        "auto-heal-dead-replica": {"faults": plan, "controller": policy},
    }


#: The chaos grid: every protocol under every fault scenario — the SNOW
#: verdict, the CAP-style pair ``availability`` / ``consistent``,
#: latency-under-fault and retransmission counts.
FAULT_GRID = GridSpec(
    name="faults",
    protocols=("simple-rw", "algorithm-b", "algorithm-c", "eiger"),
    seed=7,
    scenarios=_fault_scenarios,
    columns=(
        "completed_reads_mean_latency_steps", "completed_reads_p95_latency_steps",
        "max_read_rounds", "total_steps", "total_messages", "plan", "submitted", "completed",
        *_AVAILABILITY, "messages_dropped", "messages_duplicated", "duplicates_suppressed",
        "retransmissions", "held_by_partition", "held_by_crash", "abandoned_messages", "crashes",
        "recoveries", "read_latency_virtual_mean", "read_latency_virtual_p95",
        "write_latency_virtual_mean", "partition_duration",
    ),
    # this grid's "recoveries" are the fault plane's (servers brought back)
    renames={"recoveries": "fault_recoveries"},
)

#: The replication grid: protocol × replication factor (majority quorums
#: above 1) × replica crash — availability split by reads/writes and the
#: quorum measurements.
REPLICATION_GRID = GridSpec(
    name="replication",
    protocols=("algorithm-a", "algorithm-b", "algorithm-c"),
    seed=9,
    scenarios=_replica_crash_scenarios,
    columns=(
        "max_read_rounds", "total_messages", *_AVAILABILITY, "quorum", "read_quorum",
        "write_quorum", "num_replica_servers", "read_quorum_replies_mean",
        "read_quorum_replies_min",
    ),
    axes={
        "replication_factor": {
            factor: {
                "replication_factor": factor,
                "quorum": "majority" if factor > 1 else "read-one-write-all",
            }
            for factor in (1, 2, 3)
        }
    },
)

#: The failover grid: protocol × consensus factor × coordinator fate — the
#: election/term counters and the commit-latency tax.
FAILOVER_GRID = GridSpec(
    name="failover",
    protocols=("algorithm-b", "algorithm-c", "occ-double-collect"),
    seed=11,
    scenarios=_leader_crash_scenarios,
    columns=(
        "max_read_rounds", "total_messages", *_AVAILABILITY, "consensus_members", "elections",
        "leaders_elected", "max_term", "entries_applied", "commit_latency_mean",
        "commit_latency_p95",
    ),
    axes={"consensus_factor": {factor: {"consensus_factor": factor} for factor in (1, 3)}},
)

#: The durability grid: protocol × persistence mode × coordinator fate at
#: ``consensus_factor=3`` — election counters and the persistence block
#: (recoveries, checkpoints, compaction ratio, retained-vs-total log).
PERSISTENCE_GRID = GridSpec(
    name="persist",
    protocols=("algorithm-b", "algorithm-c", "occ-double-collect"),
    seed=11,
    scenarios=_amnesia_scenarios,
    columns=(
        "total_messages", "availability", "elections", "max_term", "persistent_members",
        "recoveries", "checkpoints", "compacted_entries", "log_length", "retained_entries",
        "compaction_ratio", "store_appends", "store_snapshots", "journal_bytes",
    ),
    axes={
        "persistence": {
            "volatile": {"persistence": None},
            "durable": {"persistence": PersistencePolicy()},
            "durable+compact": {"persistence": PersistencePolicy(compact_every=4)},
        }
    },
    config={"consensus_factor": 3},
)

#: The leader-lease grid: protocol × lease mode × coordinator fate at
#: ``replication_factor=3`` + majority + ``consensus_factor=3``.  With
#: leases on, read-only coordinator requests (``get-tag-arr``) are served
#: locally under a quorum-proven window instead of round-tripping through
#: the replicated log; OCC, whose only coordinator request mints a
#: timestamp, pins the null effect (no lease columns at all).
LEASE_GRID = GridSpec(
    name="lease",
    protocols=("algorithm-b", "algorithm-c", "occ-double-collect"),
    seed=11,
    scenarios=_lease_scenarios,
    columns=(
        "max_read_rounds", "total_messages", "client_read_latency_mean", "availability",
        "elections", "max_term", "commit_latency_mean", "commit_latency_p95", "lease_acquisitions",
        "lease_renewals", "lease_expiries", "local_reads", "read_applies", "local_read_ratio",
        "lease_read_latency_mean", "lease_read_latency_p95",
    ),
    axes={"leases": {"none": {"leases": None}, "leased": {"leases": True}}},
    config={"replication_factor": 3, "quorum": "majority", "consensus_factor": 3},
    renames={"client_read_latency_mean": "completed_reads_mean_latency_steps"},
)

#: The reconfiguration grid: protocol × membership scenario at
#: ``replication_factor=3`` + majority — the loss accounting of the lossy
#: cells and the reconfiguration block (epochs, transfer volume, epoch
#: retries, unavailability window).
RECONFIG_GRID = GridSpec(
    name="reconfig",
    protocols=("algorithm-a", "algorithm-b"),
    seed=13,
    scenarios=_reconfig_scenarios,
    columns=(
        "max_read_rounds", "total_messages", "availability", "messages_dropped",
        "retransmissions", "replication_factor", "quorum", *_RECONFIG_COLUMNS,
    ),
    config={"replication_factor": 3, "quorum": "majority"},
)

#: The self-healing grid: protocol family × controller scenario at
#: ``replication_factor=3`` + majority — the controller accounting (probes,
#: detections, derived plans, time-to-heal, convergence) and the
#: reconfiguration columns.  The s2pl baseline is excluded: its lock rounds
#: block on a fail-stopped replica by design (giving up N is its defining
#: property), so dead-replica scenarios stall regardless of membership
#: machinery.
CONTROLLER_GRID = GridSpec(
    name="controller",
    protocols=(
        "algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect", "eiger", "naive-snow",
    ),
    seed=17,
    scenarios=_controller_scenarios,
    columns=(
        "max_read_rounds", "total_messages", "availability", "replication_factor", "quorum",
        *_RECONFIG_COLUMNS, "probes", "probe_acks", "dead_detected", "plans_replace",
        "plans_grow", "plans_rejected", "healed", "time_to_heal", "converged",
    ),
    config={"replication_factor": 3, "quorum": "majority"},
)
