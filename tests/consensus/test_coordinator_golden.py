"""Golden pin of the replicated coordinator's traces.

Every cell hashes ``trace().signature()`` of one seeded run and compares it
with ``coordinator_golden.json``.  The matrix is wide on purpose: it is the
behaviour contract for refactors of ``repro.consensus.coordinator``, so it
reaches the branches the functional suites do not (recovery from a
snapshot, silent replay of BATCH and CONFIG entries, a snapshot arriving at
a member that already applied past it, batched re-proposal at election
time, lease rounds sent as one flight, batched reads).

* ``fixed/...`` — the fixed explicit-id workload at cf=3 under
  ``ChaosScheduler(RandomScheduler(3), 3)``: coordinator protocol × knob
  set × fault regime (the leader partition is what deposes a leader
  holding an unflushed batch), plus one consensus grow-to-4 cell per
  protocol.
* ``long/...`` — :func:`run_long_workload` (24 writes and 24 reads on 3
  objects, 5% drop + 5% duplicate with retry, ``compact_every=4``, an
  amnesia crash of ``coor`` at t >= 60 recovering 40 later) crossed with
  {no knob, consensus batching, leases + both batchings, consensus grow to
  4 at t=30} and four seeds.

A legitimate behaviour change re-captures the fixture with
``PYTHONPATH=src python -m tests.consensus.test_coordinator_golden`` and
names the re-pinned cells in its change notes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.consensus.reconfig import ReconfigPlan, set_consensus_group
from repro.faults import ChaosScheduler, FaultPlan, coordinator_failover
from repro.faults.plan import CrashEvent, DropPolicy, DuplicatePolicy, Partition, RetryPolicy
from repro.ioa import RandomScheduler
from repro.persist import PersistencePolicy

from tests.consensus.conftest import (
    COORDINATOR_PROTOCOLS,
    amnesia_leader,
    long_chaos_plan,
    run_long_workload,
)
from tests.replication.conftest import run_fixed_workload

FIXTURE = Path(__file__).parent / "coordinator_golden.json"

GROW_TO_4 = ("coor", "coor.2", "coor.3", "coor.4")

_RETRY = RetryPolicy(timeout_steps=10, max_attempts=8)

FIXED_KNOBS = {
    "none": lambda: {},
    "leases": lambda: {"leases": True},
    "batching": lambda: {"consensus_batching": True, "fanout_batching": True},
    "compaction": lambda: {"persistence": PersistencePolicy(compact_every=2)},
    "all": lambda: {
        "leases": True,
        "consensus_batching": True,
        "fanout_batching": True,
        "persistence": PersistencePolicy(compact_every=2),
    },
}

FIXED_FAULTS = {
    "clean": lambda: None,
    "leader-failstop": lambda: coordinator_failover(leader="coor", at=12, seed=3),
    "amnesia-leader": lambda: FaultPlan(
        name="amnesia-leader",
        crashes=(CrashEvent(server="coor", at=10, recover=45, preserve_state=False),),
        retry=_RETRY,
        seed=3,
    ),
    "leader-partition": lambda: FaultPlan(
        name="leader-partition",
        partitions=(Partition(left=("coor",), right=("coor.2", "coor.3"), start=8, heal=120),),
        retry=_RETRY,
        seed=3,
    ),
    "lossy": lambda: FaultPlan(
        name="lossy",
        drops=DropPolicy(probability=0.15, max_consecutive=4),
        duplicates=DuplicatePolicy(probability=0.1),
        retry=_RETRY,
        seed=3,
    ),
}

LONG_KNOBS = {
    "none": lambda: {},
    "consensus-batching": lambda: {"consensus_batching": True},
    "leases-batching": lambda: {
        "leases": True,
        "consensus_batching": True,
        "fanout_batching": True,
    },
    "grow-4": lambda: {
        "reconfig": ReconfigPlan(name="cns", requests=(set_consensus_group(GROW_TO_4, at=30),))
    },
}

#: seed -> vtime of the amnesia crash (recovery 40 later): later crashes
#: recover from a snapshot with CONFIG and BATCH entries still to replay
LONG_SEEDS = {0: 80, 1: 110, 2: 90, 3: 60}


def _run_fixed(protocol: str, knob: str, fault: str):
    return run_fixed_workload(
        protocol,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=3), seed=3),
        consensus_factor=3,
        plan=FIXED_FAULTS[fault](),
        run_to_completion=False,
        **FIXED_KNOBS[knob](),
    )


def _run_fixed_grow(protocol: str):
    return run_fixed_workload(
        protocol,
        scheduler=ChaosScheduler(base=RandomScheduler(seed=3), seed=3),
        consensus_factor=3,
        reconfig=ReconfigPlan(name="cns", requests=(set_consensus_group(GROW_TO_4, at=20),)),
        run_to_completion=False,
    )


def _run_long(protocol: str, knob: str, seed: int):
    return run_long_workload(
        protocol,
        seed,
        plan=long_chaos_plan(seed, crash=amnesia_leader(at=LONG_SEEDS[seed])),
        persistence=PersistencePolicy(compact_every=4),
        **LONG_KNOBS[knob](),
    )


def cells():
    """``{cell id: zero-argument runner}`` for the whole matrix."""
    table = {}
    for protocol in COORDINATOR_PROTOCOLS:
        for knob in FIXED_KNOBS:
            for fault in FIXED_FAULTS:
                table[f"fixed/{protocol}/{knob}/{fault}"] = (
                    lambda p=protocol, k=knob, f=fault: _run_fixed(p, k, f)
                )
        table[f"fixed/{protocol}/grow-4/clean"] = lambda p=protocol: _run_fixed_grow(p)
    for protocol in COORDINATOR_PROTOCOLS:
        for knob in LONG_KNOBS:
            for seed in LONG_SEEDS:
                table[f"long/{protocol}/{knob}/seed{seed}"] = (
                    lambda p=protocol, k=knob, s=seed: _run_long(p, k, s)
                )
    return table


CELLS = cells()
GOLDEN = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def signature_hash(handle) -> str:
    return hashlib.sha256(repr(handle.trace().signature()).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_coordinator_trace_is_pinned(cell):
    assert signature_hash(CELLS[cell]()) == GOLDEN[cell], f"{cell} drifted from its pin"


def test_every_cell_is_pinned():
    assert set(GOLDEN) == set(CELLS)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({cell: signature_hash(run()) for cell, run in sorted(CELLS.items())}, indent=1)
        + "\n"
    )
