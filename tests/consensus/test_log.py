"""Unit tests of the consensus data structures (log + election state)."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.consensus import CONFIG, ConsensusLog, LeaderElection, LogEntry
from repro.ioa.errors import SimulationError


def entry(term: int, rid: str) -> LogEntry:
    return LogEntry(term=term, request_id=rid, msg_type="update-coor", payload=(), client="w1")


class TestConsensusLog:
    def test_append_and_indices(self):
        log = ConsensusLog()
        assert (log.last_index, log.last_term) == (0, 0)
        assert log.append(entry(1, "a")) == 1
        assert log.append(entry(1, "b")) == 2
        assert (log.last_index, log.last_term) == (2, 1)
        assert log.term_at(0) == 0 and log.term_at(2) == 1
        assert log.contains_request("a") and not log.contains_request("zz")

    def test_matches(self):
        log = ConsensusLog()
        log.append(entry(1, "a"))
        assert log.matches(0, 0)
        assert log.matches(1, 1)
        assert not log.matches(1, 2)
        assert not log.matches(5, 1)

    def test_merge_is_idempotent_and_truncates_conflicts(self):
        log = ConsensusLog()
        log.append(entry(1, "a"))
        log.append(entry(1, "b"))
        # Idempotent redelivery: same entries, nothing changes.
        log.merge(0, (entry(1, "a"), entry(1, "b")))
        assert [e.request_id for e in log.entries] == ["a", "b"]
        # Conflict: a term-2 entry at index 2 truncates the old suffix.
        log.merge(1, (entry(2, "c"),))
        assert [e.request_id for e in log.entries] == ["a", "c"]
        assert log.last_term == 2

    def test_merge_refuses_to_truncate_committed(self):
        log = ConsensusLog()
        log.append(entry(1, "a"))
        log.advance_commit(1)
        with pytest.raises(SimulationError, match="election safety"):
            log.merge(0, (entry(2, "b"),))

    def test_commit_and_apply_cursors(self):
        log = ConsensusLog()
        for i, rid in enumerate(("a", "b", "c")):
            log.append(entry(1, rid))
        assert log.advance_commit(2) == 2
        assert log.advance_commit(1) == 2  # never regresses
        assert [rid for _, e in log.take_unapplied() for rid in [e.request_id]] == ["a", "b"]
        assert log.take_unapplied() == ()  # exactly once
        assert log.advance_commit(99) == 3  # clamped to log end
        assert [e.request_id for _, e in log.take_unapplied()] == ["c"]

    def test_up_to_date_voting_restriction(self):
        log = ConsensusLog()
        log.append(entry(1, "a"))
        log.append(entry(2, "b"))
        assert log.up_to_date(2, 2)  # identical
        assert log.up_to_date(5, 2)  # longer, same term
        assert log.up_to_date(1, 3)  # higher last term wins
        assert not log.up_to_date(1, 2)  # shorter, same term
        assert not log.up_to_date(9, 1)  # lower last term loses


def scanned_newest_config(log: ConsensusLog, through: int):
    """The definition ``newest_config`` answers by bisect: the last retained
    CONFIG entry at an index <= ``through``."""
    found = None
    for index, candidate in enumerate(log.entries, start=log.snapshot_index + 1):
        if index <= through and candidate.msg_type == CONFIG:
            found = candidate
    return found


def test_newest_config_follows_appends_truncations_compaction_and_restore():
    rng = random.Random(7)
    log = ConsensusLog()
    term = 1
    kinds = set()
    for step in range(600):
        fresh = LogEntry(term=term, request_id=f"r{step}", msg_type=CONFIG if rng.random() < 0.3 else "update-coor")
        op = rng.random()
        if op < 0.45 or log.last_index == 0:
            log.append(fresh)
            kinds.add("append")
        elif op < 0.65:
            low = max(log.commit_index, log.snapshot_index)
            if low < log.last_index:
                term += 1
                log.merge(rng.randint(low, log.last_index - 1), (replace(fresh, term=term),))
                kinds.add("truncate")
        elif op < 0.8:
            log.advance_commit(rng.randint(log.commit_index, log.last_index))
            log.take_unapplied()
            if log.last_applied > log.snapshot_index:
                through = rng.randint(log.snapshot_index + 1, log.last_applied)
                log.compact({"index": through, "term": log.term_at(through)})
                kinds.add("compact")
        elif op < 0.92:
            index = rng.randint(log.snapshot_index + 1, log.last_index + 2)
            keeps_suffix = index <= log.last_index and rng.random() < 0.5
            log.install_snapshot({"index": index, "term": log.term_at(index) if keeps_suffix else term + 1})
            kinds.add("snapshot")
        else:
            suffix = tuple(enumerate(log.entries, start=log.snapshot_index + 1))
            log.restore(log.snapshot_index, log.snapshot_term, suffix, log.commit_index)
            kinds.add("restore")
        for through in range(log.last_index + 2):
            assert log.newest_config(through) is scanned_newest_config(log, through)
    assert kinds == {"append", "truncate", "compact", "snapshot", "restore"}


class TestLeaderElection:
    def make(self, member="coor.2", index=1):
        return LeaderElection(
            member=member, index=index, group_size=3, initial_leader="coor", seed=0
        )

    def test_bootstrap_roles(self):
        leader = LeaderElection("coor", 0, 3, initial_leader="coor", seed=0)
        follower = self.make()
        assert leader.is_leader and follower.is_follower
        assert follower.voted_for == "coor"  # term-1 votes are spoken for

    def test_candidacy_and_majority(self):
        e = self.make()
        term = e.start_candidacy()
        assert term == 2 and e.is_candidate and e.voted_for == e.member
        assert not e.record_vote(e.member)  # self-vote alone is 1 < 2
        assert e.record_vote("coor.3")  # majority of 3

    def test_step_down_resets_vote_only_on_higher_term(self):
        e = self.make()
        e.start_candidacy()
        e.step_down(5)
        assert e.is_follower and e.term == 5 and e.voted_for is None
        e.grant("coor.3")
        e.step_down(5)  # same term: role change only
        assert e.voted_for == "coor.3"

    def test_may_grant_once_per_term(self):
        e = self.make()
        e.step_down(2)
        assert e.may_grant("coor.3", 2)
        e.grant("coor.3")
        assert e.may_grant("coor.3", 2)  # re-grant to the same candidate ok
        assert not e.may_grant("coor", 2)  # but not to another
        assert not e.may_grant("coor.3", 1)  # stale term never

    def test_timeouts_are_seeded_and_member_distinct(self):
        a1 = self.make(index=1)
        a2 = self.make(index=1)
        b = self.make(member="coor.3", index=2)
        series_a1 = [a1.next_timeout() for _ in range(8)]
        series_a2 = [a2.next_timeout() for _ in range(8)]
        series_b = [b.next_timeout() for _ in range(8)]
        assert series_a1 == series_a2  # deterministic per (seed, index)
        assert series_a1 != series_b  # but distinct across members
        low, high = a1.timeout_range
        assert all(low <= t <= high for t in series_a1 + series_b)
