"""The plane's registry agrees with the trace it observed.

The consensus and controller metric blocks have one source: the plane's
protocol-event counting.  A run the plane observed is counted live; any
other run's trace is replayed through the same counting into a fresh
registry.  These tests pin the two to *equal* blocks on the very same
simulation, and pin the replay's refusal of a partial trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis import ExperimentConfig, WorkloadSpec, collect_metrics, run_experiment
from repro.faults import ChaosScheduler, auto_heal
from repro.ioa import FIFOScheduler, TraceError, TraceMode
from repro.ioa.actions import ActionKind

from tests.obs.conftest import run_observed


def chaos_fifo():
    return ChaosScheduler(base=FIFOScheduler())


def live_and_replayed(handle):
    """``collect_metrics`` through the live plane's registry, then through
    an offline replay of the same trace."""
    simulation = handle.simulation
    live = collect_metrics(simulation, directory=handle.directory)
    plane, simulation.obs = simulation.obs, None
    try:
        replayed = collect_metrics(simulation, directory=handle.directory)
    finally:
        simulation.obs = plane
    return live, replayed


def test_kernel_event_counters_match_the_trace():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    registry = plane.registry
    trace = handle.trace()
    by_kind = Counter(action.kind.value for action in trace)
    for kind, expected in by_kind.items():
        assert registry.counter_value("kernel.events", kind=kind) == expected
    assert registry.counter_total("kernel.events") == len(trace)
    sends = sum(
        1
        for action in trace
        if action.kind is ActionKind.SEND and action.message is not None
    )
    assert registry.counter_total("kernel.messages_sent") == sends
    assert registry.counter_total("kernel.messages_channel") == sends


def test_message_type_counters_match_the_trace():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    by_type = Counter(
        action.message.msg_type
        for action in handle.trace()
        if action.kind is ActionKind.SEND and action.message is not None
    )
    for msg_type, expected in by_type.items():
        assert (
            plane.registry.counter_value("kernel.messages_sent", type=msg_type)
            == expected
        )


def test_mailbox_depth_gauges_track_the_pending_set():
    handle, plane = run_observed("algorithm-b", num_objects=2)
    simulation = handle.simulation
    still_pending = Counter(d.message.dst for d in simulation.pending_deliveries())
    snapshot = plane.registry.snapshot()
    depths = {
        label: gauge
        for label, gauge in snapshot["gauges"].items()
        if label.startswith("kernel.mailbox_depth")
    }
    assert depths  # every automaton that ever got mail has a gauge
    for label, gauge in depths.items():
        automaton = label.split("automaton=", 1)[1].rstrip("}")
        assert gauge["value"] == still_pending.get(automaton, 0), label
        assert gauge["max"] >= gauge["value"] >= 0


def test_consensus_block_live_equals_offline_replay():
    handle, _plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        consensus_factor=3,
        run_to_completion=False,
    )
    live, replayed = live_and_replayed(handle)
    assert live.consensus is not None
    assert live.consensus == replayed.consensus
    assert live.consensus.entries_applied > 0


def test_consensus_block_parity_holds_with_leases_on():
    """The lease counters and the read-latency histogram extend *both*
    paths identically: a leased run's consensus block counted live equals
    the one replayed from the trace, and the lease activity is really in
    it."""
    handle, _plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        consensus_factor=3,
        leases=True,
        run_to_completion=False,
    )
    live, replayed = live_and_replayed(handle)
    block = live.consensus
    assert block is not None
    assert block == replayed.consensus
    assert block.lease_acquisitions >= 1
    assert block.local_reads >= 1
    assert block.lease_read_latency.count == block.local_reads
    assert block.local_read_ratio == 1.0  # every read served locally


def test_controller_block_live_equals_offline_replay():
    plan, policy = auto_heal()
    handle, plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        replication_factor=3,
        quorum="majority",
        plan=plan,
        controller=policy,
        run_to_completion=False,
    )
    live, replayed = live_and_replayed(handle)
    assert live.controller is not None
    assert live.controller == replayed.controller
    assert live.controller.healed >= 1  # the scenario's whole point
    # probe RTTs: one observation per delivered ack, all non-negative
    rtts = plane.registry.histogram_values("controller.probe_rtt")
    assert len(rtts) == live.controller.acks
    assert all(value >= 0 for value in rtts)


def _consensus_run(**overrides):
    """Algorithm B at rf=3 majority, cf=3: 40 reads and 20 writes per client."""
    config = ExperimentConfig(
        protocol="algorithm-b",
        replication_factor=3,
        quorum="majority",
        consensus_factor=3,
        seed=3,
        workload=WorkloadSpec(reads_per_reader=40, writes_per_writer=20, seed=3),
        check_properties=False,
    )
    return run_experiment(replace(config, **overrides))


def test_ring_trace_without_a_plane_refuses_to_undercount():
    """A ring keeps only the newest records, so replaying it would count a
    fraction of the consensus events; collection refuses instead."""
    with pytest.raises(TraceError, match="full-mode trace"):
        _consensus_run(trace_mode=TraceMode.ring(256))


def test_ring_trace_with_a_plane_counts_like_the_full_trace():
    full = _consensus_run().metrics.consensus
    ring = _consensus_run(trace_mode=TraceMode.ring(256), observe=True).metrics.consensus
    assert ring == full
    assert full.entries_applied == full.commit_latency.count > 256


def test_chaos_scheduler_counters_populate_under_the_plane():
    plan, policy = auto_heal()
    _handle, plane = run_observed(
        "algorithm-b",
        scheduler=chaos_fifo(),
        num_objects=2,
        replication_factor=3,
        quorum="majority",
        plan=plan,
        controller=policy,
        run_to_completion=False,
    )
    registry = plane.registry
    assert registry.counter_value("scheduler.chaos_steps") > 0
    assert registry.counter_value("scheduler.chaos_ripe_events") > 0
