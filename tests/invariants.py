"""The shared safety-invariant checker applied to every simulation run.

Promoted out of ``tests/consensus/test_safety.py`` (PR 3) into one reusable
module so that *every* simulation-running test in ``tests/consensus``,
``tests/replication`` and ``tests/reconfig`` gets the same trace/state
assertions for free: the test helpers register each finished handle with
:func:`register`, and an autouse fixture in those suites' conftests calls
:func:`check_registered` at teardown.

Invariants checked (each skipped automatically when the run has nothing it
applies to):

* **election safety** — at most one leader is elected per term;
* **log matching** — two members' logs agree below any index where their
  terms agree, and committed prefixes agree outright;
* **state-machine safety** — applied request sequences are prefix-consistent
  across members, and members that applied the same prefix hold the same
  state-machine state;
* **quorum intersection across epochs** *(new)* — for every joint
  configuration a run entered, every read quorum of ``C_old,new`` intersects
  every write quorum of ``C_old`` and of ``C_new`` (checked exhaustively
  over minimal quorum subsets);
* **at-most-one-config-in-flight** *(new)* — the directory's transition log
  alternates ``joint-begin`` / ``commit`` strictly: no second change starts
  before the previous one commits;
* **lease safety** *(new)* — no local read outside a proven lease window,
  no overlap between different members' announced windows, and no election
  completing inside a live foreign window (delegates to the streaming
  :class:`~repro.obs.monitor.LeaseSafetyMonitor` replayed post-mortem —
  online/offline parity by construction).
"""

from __future__ import annotations

from typing import List

from repro.obs.monitor import (  # shared with the online monitors
    joint_quorums_intersect,
    offline_lease_violations,
)

__all__ = [
    "REGISTERED",
    "register",
    "reset",
    "check_registered",
    "check_all",
    "joint_quorums_intersect",
    "offline_lease_violations",
]

#: handles registered by the suite helpers since the last fixture reset
REGISTERED: List[object] = []


def register(handle):
    """Record a finished system handle for end-of-test invariant checking."""
    REGISTERED.append(handle)
    return handle


def reset():
    REGISTERED.clear()


def check_registered():
    """Run :func:`check_all` over every handle registered during the test.

    Handles are cleared only after every check passed: on a violation they
    stay registered, so the failing-trace dump hook (``tests/conftest.py``)
    can attach the offending schedules to the test report.  The next test's
    ``reset()`` clears them regardless.
    """
    for handle in REGISTERED:
        check_all(handle)
    REGISTERED.clear()


def check_all(handle):
    """Every applicable invariant for one finished run."""
    if consensus_members(handle):
        check_election_safety(handle)
        check_log_matching(handle)
        check_state_machine_safety(handle)
        check_lease_safety(handle)
    directory = getattr(handle, "directory", None)
    if directory is not None:
        check_quorum_intersection_across_epochs(directory)
        check_at_most_one_config_in_flight(directory)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def consensus_members(handle):
    """The live ReplicatedCoordinator automata of a finished run."""
    return [
        handle.simulation.automaton(name)
        for name in handle.simulation.topology.consensus_group()
    ]


def consensus_internals(handle):
    """All consensus-tagged internal actions of a finished run, as dicts."""
    return [
        dict(action.info)
        for action in handle.trace()
        if action.info and "consensus" in dict(action.info)
    ]


# ----------------------------------------------------------------------
# The PR 3 consensus invariants
# ----------------------------------------------------------------------
def check_election_safety(handle):
    """At most one leader is elected per term."""
    leaders_per_term = {}
    for info in consensus_internals(handle):
        if info["consensus"] == "became-leader":
            leaders_per_term.setdefault(info["term"], set()).add(info["member"])
    for term, leaders in leaders_per_term.items():
        assert len(leaders) <= 1, f"term {term} elected {sorted(leaders)}"


def check_log_matching(handle):
    """Same (index, term) => identical entry and identical prefix; committed
    prefixes agree outright.

    Compaction-aware (PR 9): indices are global, so only the overlap both
    members still retain (above either snapshot) is compared entry-by-entry —
    the compacted prefix was committed+applied, which state-machine safety
    and the snapshot verdict checks cover.
    """
    members = consensus_members(handle)
    for a in members:
        for b in members:
            if a.name >= b.name:
                continue
            floor = max(a.log.snapshot_index, b.log.snapshot_index)
            upto = min(a.log.last_index, b.log.last_index)
            for index in range(upto, floor, -1):
                if a.log.term_at(index) == b.log.term_at(index):
                    for i in range(floor + 1, index + 1):
                        assert a.log.entry(i) == b.log.entry(i), (
                            f"{a.name} and {b.name} diverge at index {i} below "
                            f"matching index {index}"
                        )
                    break
            committed = min(a.log.commit_index, b.log.commit_index)
            for i in range(floor + 1, committed + 1):
                assert a.log.entry(i) == b.log.entry(i), (
                    f"{a.name} and {b.name} disagree on committed index {i}"
                )


def check_lease_safety(handle):
    """No local read outside a proven lease window, no overlapping windows,
    no leadership assumed inside a live foreign window.

    Delegates to :func:`repro.obs.monitor.offline_lease_violations`, which
    replays the trace through a fresh :class:`LeaseSafetyMonitor` — the
    post-mortem checker and the streaming monitor agree by construction.
    A lease-free run has no lease-tagged actions and passes vacuously.
    """
    violations = offline_lease_violations(handle.trace())
    assert not violations, "lease safety violated: " + "; ".join(
        f"[{index}] {detail}" for index, detail in violations
    )


def check_state_machine_safety(handle):
    """Applied request sequences are prefix-consistent across members, and
    members with equal ``last_applied`` hold equal machine state.

    Request ids are compared per global index over the overlap both members
    applied *and* still retain.  The state comparison also covers the
    compacted prefix: a snapshot that claims entries its machine never
    applied shows up there, not in the request ids.
    """
    members = consensus_members(handle)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a.log.last_applied == b.log.last_applied:
                assert a.machine.snapshot() == b.machine.snapshot(), (
                    f"{a.name} and {b.name} applied through index "
                    f"{a.log.last_applied} but hold different state"
                )
            floor = max(a.log.snapshot_index, b.log.snapshot_index)
            upto = min(a.log.last_applied, b.log.last_applied)
            for index in range(floor + 1, upto + 1):
                assert a.log.entry(index).request_id == b.log.entry(index).request_id, (
                    f"{a.name} and {b.name} applied divergent requests at index {index}"
                )


# ----------------------------------------------------------------------
# The reconfiguration invariants (new in this PR)
# ----------------------------------------------------------------------
# ``joint_quorums_intersect`` now lives in :mod:`repro.obs.monitor` (one
# implementation shared by this post-mortem checker and the streaming
# QuorumIntersectionMonitor — online/offline parity by construction) and is
# re-exported above for the suites that import it from here.
def check_quorum_intersection_across_epochs(directory):
    """Every joint configuration the run entered kept quorum intersection
    with both of its epochs."""
    for transition in directory.transitions:
        if transition["kind"] != "joint-begin":
            continue
        old, new = transition["old"], transition["new"]
        assert joint_quorums_intersect(old, new, directory.policy), (
            f"joint config {old} -> {new} (epoch {transition['epoch']}) has a "
            f"read quorum missing a write quorum under {directory.policy.describe()}"
        )


def check_at_most_one_config_in_flight(directory):
    """joint-begin / commit must strictly alternate in the transition log,
    and a finished run must not leave a change half-done unless transactions
    are also stuck (a fault regime may legally strand the driver)."""
    in_flight = False
    for transition in directory.transitions:
        if transition["kind"] == "joint-begin":
            assert not in_flight, (
                f"second joint-begin at epoch {transition['epoch']} while a "
                "configuration change was still in flight"
            )
            in_flight = True
        elif transition["kind"] == "commit":
            assert in_flight, f"commit at epoch {transition['epoch']} without a joint-begin"
            in_flight = False
    assert in_flight == directory.in_flight()
