"""The indexed N/O helpers and the frontier search against their scan forms.

``repro.core.snow`` answers each READ from the trace's per-transaction
message index and ``check_strict_serializability`` searches a real-time
frontier; ``tests/reference_checkers.py`` keeps the direct full-scan forms.
These tests pin the two equal for every READ of real runs — the paper's
algorithms, Eiger, a blocking baseline, a replicated coordinator and a
read-repairing quorum read — and check that the index follows appends.
"""

from __future__ import annotations

import pytest

from repro.analysis import WorkloadSpec, generate_workload, submit_workload
from repro.core.serializability import check_strict_serializability
from repro.core.snow import blocking_servers_for, round_trips_per_server, versions_in_replies
from repro.ioa import RandomScheduler
from repro.ioa.actions import ActionKind, Message, recv_action, send_action
from repro.ioa.trace import Trace
from repro.protocols import get_protocol
from repro.txn import History, ReadTransaction
from tests import reference_checkers as ref


def run(protocol: str, seed: int = 3, readers: int = 2, prelude=None, **knobs):
    """A small contended workload under a random interleaving; ``prelude``
    may act on the built handle before the workload is submitted."""
    if not get_protocol(protocol).supports_multiple_readers:
        readers = 1
    handle = get_protocol(protocol).build(
        num_readers=readers,
        num_writers=2,
        num_objects=3,
        scheduler=RandomScheduler(seed=seed),
        seed=seed,
        **knobs,
    )
    if prelude is not None:
        prelude(handle)
    spec = WorkloadSpec(reads_per_reader=10, writes_per_writer=6, read_size=2, write_size=2, seed=seed)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


def forget_a_replica(handle):
    """Install one write everywhere, then wipe a replica so later quorum
    reads find it stale and repair it."""
    handle.submit_write({obj: "v0" for obj in handle.objects}, txn_id="W0")
    handle.run()
    handle.simulation.automaton("s1.2").forget()


RUNS = {
    "algorithm-a-c2c": lambda: run("algorithm-a", c2c=True),
    "algorithm-b-rf3-cf3": lambda: run(
        "algorithm-b", replication_factor=3, quorum="majority", consensus_factor=3
    ),
    "algorithm-c": lambda: run("algorithm-c"),
    "eiger": lambda: run("eiger"),
    "s2pl": lambda: run("s2pl"),
    "read-repair": lambda: run(
        "algorithm-b", replication_factor=3, quorum="majority", prelude=forget_a_replica
    ),
}


def read_records(handle):
    return [
        r
        for r in handle.simulation.transaction_records()
        if isinstance(r.txn, ReadTransaction) and r.complete
    ]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_indexed_helpers_equal_the_scans_for_every_read(name):
    handle = RUNS[name]()
    sim = handle.simulation
    trace, servers = sim.trace, sim.servers()
    group = sim.topology.consensus_group()
    records = read_records(handle)
    assert records
    for record in records:
        args = (trace, str(record.txn_id), record.client, servers)
        assert blocking_servers_for(*args, group) == ref.blocking_servers_for(*args, group)
        assert round_trips_per_server(*args) == ref.round_trips_per_server(*args)
        assert versions_in_replies(*args) == ref.versions_in_replies(*args)
    history = History.from_simulation(sim, objects=handle.objects).restricted_to_complete()
    fast, slow = check_strict_serializability(history), ref.check_strict_serializability(history)
    assert (fast.ok, fast.witness_order, fast.explored_states) == (
        slow.ok,
        slow.witness_order,
        slow.explored_states,
    )


def test_the_runs_exercise_blocking_repair_and_the_consensus_group():
    """The parity above is not vacuous: the baseline blocks, the repairing
    run sends repairs, and the replicated coordinator's group is addressed."""
    s2pl = RUNS["s2pl"]()
    sim = s2pl.simulation
    assert any(
        ref.blocking_servers_for(sim.trace, str(r.txn_id), r.client, sim.servers())
        for r in read_records(s2pl)
    )
    repair = RUNS["read-repair"]()
    assert any(
        a.kind == ActionKind.SEND and a.message.get("repair")
        for a in repair.simulation.trace
        if a.message is not None
    )
    assert RUNS["algorithm-b-rf3-cf3"]().simulation.topology.consensus_group()


def test_the_index_is_rebuilt_after_an_append():
    trace = Trace()
    request = Message.make("read-req", "r1", "sx", {"txn": "R1"})
    trace.append(send_action(request))
    trace.append(recv_action(request))
    assert [a.kind for a in trace.txn_messages("R1")] == [ActionKind.SEND, ActionKind.RECV]
    assert round_trips_per_server(trace, "R1", "r1", ("sx",)) == {"sx": 1}
    assert blocking_servers_for(trace, "R1", "r1", ("sx",)) == ("sx",)  # no reply yet

    interloper = Message.make("write-install", "w1", "sx", {"txn": "W1"})
    reply = Message.make("read-reply", "sx", "r1", {"txn": "R1", "num_versions": 2})
    trace.append(send_action(interloper))
    trace.append(recv_action(interloper))
    trace.append(send_action(reply))
    assert trace.recvs_between("sx", 1, 4) == 1
    assert versions_in_replies(trace, "R1", "r1", ("sx",)) == (2, 1)
    assert blocking_servers_for(trace, "R1", "r1", ("sx",)) == ("sx",)  # W1 arrived in between
    assert blocking_servers_for(trace, "W1", "w1", ("sx",)) == ("sx",)  # never answered
    assert len(trace.txn_messages("R1")) == 3
