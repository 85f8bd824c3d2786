"""Reconfiguration-under-chaos grids (ROADMAP open item).

The PR 4 grids reconfigure under a single crash; this grid crosses the
membership machinery with the drop/partition library: the replace-dead and
grow scenarios run under a lossy network (transport retransmission healing
fair loss) across the protocol families and a seed set, with the shared
safety invariants asserted per cell.  A second grid does the same for the
*controller* — fail-stop a replica under loss and require autonomous
convergence back to a full-strength group.  A third grows the *consensus*
group while members checkpoint and compact their logs, with and without an
amnesia crash of the bootstrap leader.

``CHAOS_GRID_SEEDS`` (env) widens the seed set — the nightly CI chaos-grid
job runs with 20 seeds, PRs with the default 3 — so schedule-space coverage
scales without editing the grid.
"""

from __future__ import annotations

import os

import pytest

from repro.faults import (
    ChaosScheduler,
    FaultInjector,
    auto_heal,
    grow_group_mid_run,
    replace_dead_replica,
)
from repro.consensus.reconfig import ReconfigPlan, set_consensus_group
from repro.faults.plan import CrashEvent, DropPolicy, FaultPlan, RetryPolicy
from repro.ioa import RandomScheduler
from repro.persist import PersistencePolicy
from repro.protocols import get_protocol

from tests import invariants
from tests.consensus.conftest import amnesia_leader, long_chaos_plan, run_long_workload
from tests.reconfig.conftest import run_reconfig_workload

SEEDS = tuple(range(int(os.environ.get("CHAOS_GRID_SEEDS", "3"))))

#: the reconfig-capable families the grid crosses (s2pl excluded: its lock
#: rounds block on a fail-stopped replica by design)
PROTOCOLS = ("algorithm-a", "algorithm-b", "algorithm-c", "occ-double-collect", "eiger")

pytestmark = pytest.mark.invariants


def lossy_with(crashes=(), seed=0, probability=0.12):
    return FaultPlan(
        name="lossy-reconfig",
        drops=DropPolicy(probability=probability, max_consecutive=4),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        crashes=tuple(crashes),
        seed=seed,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_replace_dead_replica_under_loss(protocol, seed):
    """The headline scenario with a lossy network on top: the joint change
    still commits, every transaction completes, invariants hold."""
    _, reconfig = replace_dead_replica("ox", 3, crash_at=8, reconfig_at=30, seed=seed)
    plan = lossy_with(crashes=(CrashEvent(server="sx.3", at=8, recover=None),), seed=seed)
    handle = run_reconfig_workload(
        protocol,
        reconfig=reconfig,
        plan=plan,
        rounds=4,
        seed=seed,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    assert handle.directory.group("ox") == ("sx", "sx.2", "sx.4"), (protocol, seed)
    invariants.check_all(handle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_grow_group_under_loss(protocol, seed):
    """Growth with state transfer completes under fair loss (sync messages
    ride the same retransmitting transport as everything else)."""
    _, reconfig = grow_group_mid_run("ox", 3, to_factor=4, at=20)
    handle = run_reconfig_workload(
        protocol,
        reconfig=reconfig,
        plan=lossy_with(seed=seed),
        rounds=4,
        seed=seed,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        run_to_completion=False,
    )
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    assert handle.directory.group("ox") == ("sx", "sx.2", "sx.3", "sx.4"), (protocol, seed)
    invariants.check_all(handle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ("algorithm-b", "algorithm-c", "occ-double-collect"))
def test_controller_converges_under_loss(protocol, seed):
    """Chaos-grid coverage for the controller: fail-stop a replica under a
    lossy plan and the control loop still converges to a full-strength
    group, with the safety invariants holding (probes and acks can be lost
    — detection only needs the surviving siblings to keep answering)."""
    _, policy = auto_heal("ox", 3, crash_at=8, seed=seed)
    plan = lossy_with(crashes=(CrashEvent(server="sx.3", at=8, recover=None),), seed=seed)
    protocol_obj = get_protocol(protocol)
    num_readers = 1 if not protocol_obj.supports_multiple_readers else 2
    handle = protocol_obj.build(
        num_readers=num_readers,
        num_writers=2,
        num_objects=2,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        replication_factor=3,
        quorum="majority",
        controller=policy,
        fault_plane=FaultInjector(plan, seed=seed),
    )
    previous = None
    for index in range(1, 5):
        previous = handle.submit_write(
            {obj: f"v{index}-{obj}" for obj in handle.objects},
            writer=handle.writers[(index - 1) % 2],
            txn_id=f"W{index}",
            after=[previous] if previous else (),
        )
        handle.submit_read(
            handle.objects,
            reader=handle.readers[(index - 1) % len(handle.readers)],
            txn_id=f"R{index}",
            after=[previous],
        )
    handle.run()
    invariants.register(handle)
    assert not handle.simulation.incomplete_transactions(), (protocol, seed)
    # Convergence: the dead replica is out, a full-strength group serves.
    group = handle.directory.group("ox")
    assert "sx.3" not in group and len(group) == 3, (protocol, seed, group)
    assert handle.directory.is_retired("sx.3"), (protocol, seed)
    assert not handle.directory.in_flight(), (protocol, seed)
    invariants.check_all(handle)


@pytest.mark.parametrize("crash", ("no-crash", "amnesia-leader"))
@pytest.mark.parametrize("compact_every", (2, 8))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", ("algorithm-b", "algorithm-c"))
def test_consensus_grow_under_compaction(protocol, seed, compact_every, crash):
    """Consensus grow 3 -> 4 at t=30 while members checkpoint every few
    entries, under 5% drop + 5% duplicate.  No snapshot may claim entries
    its machine has not applied, and a retransmitted change whose joint
    entry was compacted must not be proposed again: every transaction
    completes, every member leaves the joint configuration and compacts
    past C_new, and the invariants (equal state at equal applied index
    included) hold."""
    handle = run_long_workload(
        protocol,
        seed,
        plan=long_chaos_plan(seed, crash=amnesia_leader() if crash == "amnesia-leader" else None),
        persistence=PersistencePolicy(compact_every=compact_every),
        reconfig=ReconfigPlan(
            name="cns",
            requests=(set_consensus_group(("coor", "coor.2", "coor.3", "coor.4"), at=30),),
        ),
    )
    cell = (protocol, seed, compact_every, crash)
    assert not handle.simulation.incomplete_transactions(), cell
    new_index = max(
        info["index"]
        for info in invariants.consensus_internals(handle)
        if info["consensus"] == "apply" and info["request"].endswith("/new")
    )
    for member in invariants.consensus_members(handle):
        assert member.joint is None, (cell, member.name)
        assert member.log.snapshot_index >= new_index, (cell, member.name)
    invariants.check_all(handle)
