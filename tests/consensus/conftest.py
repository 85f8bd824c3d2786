"""Shared helpers for the consensus-layer tests.

``run_consensus_workload`` mirrors ``tests/replication/conftest.py`` — the
same fixed explicit-id workload — but threads the consensus knobs through
``Protocol.build`` and defaults to the chaos scheduler (leader-crash plans
need the virtual clock honoured).

Every helper-produced handle is registered with the shared invariant checker
(``tests/invariants.py``), and the autouse ``invariant_autocheck`` fixture
re-checks election safety, log matching, state-machine safety and the
reconfiguration invariants at the end of each test in this suite.
"""

from __future__ import annotations

import pytest

from repro.faults import ChaosScheduler, FaultInjector, FaultPlan, coordinator_failover
from repro.faults.plan import CrashEvent, DropPolicy, DuplicatePolicy, RetryPolicy
from repro.ioa import FIFOScheduler, RandomScheduler
from repro.protocols import get_protocol

from tests import invariants
from tests.invariants import consensus_internals  # noqa: F401  (re-exported)
from tests.replication.conftest import run_fixed_workload

COORDINATOR_PROTOCOLS = ("algorithm-b", "algorithm-c", "occ-double-collect")


@pytest.fixture(autouse=True)
def invariant_autocheck():
    """Apply the shared safety-invariant checker to every run of this suite."""
    invariants.reset()
    yield
    invariants.check_registered()


def run_consensus_workload(
    protocol_name: str,
    consensus_factor: int = 3,
    plan=None,
    scheduler=None,
    seed: int = 3,
    election_timeout=None,
    reconfig=None,
    persistence=None,
    leases=None,
    run_to_completion: bool = False,
):
    """Build, submit the fixed explicit-id workload, run; returns the handle."""
    return run_fixed_workload(
        protocol_name,
        scheduler=scheduler or ChaosScheduler(base=FIFOScheduler()),
        seed=seed,
        consensus_factor=consensus_factor,
        election_timeout=election_timeout,
        plan=plan,
        reconfig=reconfig,
        persistence=persistence,
        leases=leases,
        run_to_completion=run_to_completion,
    )


def long_chaos_plan(seed: int, crash=None) -> FaultPlan:
    """5% drop + 5% duplicate with retransmission, plus optional crashes."""
    return FaultPlan(
        name="long-chaos",
        drops=DropPolicy(probability=0.05, max_consecutive=4),
        duplicates=DuplicatePolicy(probability=0.05),
        retry=RetryPolicy(timeout_steps=10, max_attempts=8),
        crashes=(crash,) if crash is not None else (),
        seed=seed,
    )


def amnesia_leader(at: int = 60, outage: int = 40) -> CrashEvent:
    """Crash-with-amnesia of the bootstrap leader ``coor`` for ``outage``."""
    return CrashEvent(server="coor", at=at, recover=at + outage, preserve_state=False)


def run_long_workload(
    protocol_name: str,
    seed: int,
    plan=None,
    ops_per_client: int = 12,
    **knobs,
):
    """2 readers x 12 reads and 2 writers x 12 writes on 3 objects at cf=3
    under ``ChaosScheduler(RandomScheduler(seed), seed)``, explicit ids.

    Long enough for several checkpoints, a recovery from a snapshot and a
    snapshot install at a lagging member; ``knobs`` go to
    ``Protocol.build``.  Runs until idle (stranded transactions stay
    visible to the caller) and registers the handle."""
    protocol = get_protocol(protocol_name)
    handle = protocol.build(
        num_readers=2 if protocol.supports_multiple_readers else 1,
        num_writers=2,
        num_objects=3,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=seed), seed=seed),
        seed=seed,
        consensus_factor=3,
        fault_plane=FaultInjector(plan, seed=seed) if plan is not None else None,
        **knobs,
    )
    for round_ in range(1, ops_per_client + 1):
        for number, writer in enumerate(handle.writers, start=1):
            handle.submit_write(
                {obj: f"v{round_}.{number}-{obj}" for obj in handle.objects},
                writer=writer,
                txn_id=f"W{number}.{round_}",
            )
        for number, reader in enumerate(handle.readers, start=1):
            handle.submit_read(handle.objects, reader=reader, txn_id=f"R{number}.{round_}")
    handle.run()
    return invariants.register(handle)


def leader_crash_plan(at: int = 12, seed: int = 3):
    return coordinator_failover(leader="coor", at=at, seed=seed)


def members_of(handle):
    """The ReplicatedCoordinator automata of a built system."""
    return invariants.consensus_members(handle)
