"""Deterministic cost guards for the verdict layer.

The N/O checkers and ``collect_metrics`` once rescanned the whole trace for
every READ, and the strict-serializability search compared every pair of
transactions.  These tests count full-trace passes and real-time precedence
tests on one ~600-transaction run of algorithm A, so a quadratic that comes
back fails here on any machine, without a timer.
"""

from __future__ import annotations

import pytest

from repro.analysis import WorkloadSpec, collect_metrics, generate_workload, submit_workload
from repro.core import check_snow, check_strict_serializability
from repro.ioa import RandomScheduler
from repro.ioa.trace import Trace
from repro.protocols import get_protocol
from repro.txn import History
from repro.txn.history import HistoryEntry

READS = 420


@pytest.fixture(scope="module")
def paper_run():
    handle = get_protocol("algorithm-a").build(
        num_readers=1,
        num_writers=3,
        num_objects=4,
        scheduler=RandomScheduler(seed=1),
        seed=1,
        c2c=True,
    )
    spec = WorkloadSpec(reads_per_reader=READS, writes_per_writer=60, read_size=2, write_size=2, seed=1)
    submit_workload(handle, generate_workload(spec, handle.readers, handle.writers, handle.objects))
    handle.run()
    return handle


def counting(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


def test_check_snow_and_collect_metrics_pass_over_the_trace_a_constant_number_of_times(paper_run, monkeypatch):
    sim = paper_run.simulation
    history = History.from_simulation(sim, objects=paper_run.objects)
    builds = counting(monkeypatch, Trace, "_build_message_index")
    iterations = counting(monkeypatch, Trace, "__iter__")
    projections = counting(monkeypatch, Trace, "project")

    report = check_snow(sim, history)
    metrics = collect_metrics(sim, "algorithm-a")

    assert len(report.read_reports) == READS and report.property_string() == "SNOW"
    assert metrics.read_versions.count == READS
    # One index build serves all 420 READs of both callers; no per-READ
    # iteration or projection of the trace remains.
    assert len(builds) == 1
    assert len(builds) + len(iterations) + len(projections) <= 2


def test_the_serializability_search_makes_no_pairwise_precedence_tests(paper_run, monkeypatch):
    history = History.from_simulation(paper_run.simulation, objects=paper_run.objects)
    complete = history.restricted_to_complete()
    precedes = counting(monkeypatch, HistoryEntry, "precedes")

    result = check_strict_serializability(complete)

    assert result.ok and len(result.witness_order) == len(complete)
    assert len(precedes) <= len(complete)  # O(n); the predecessor table made n²
