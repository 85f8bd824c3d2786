"""Property-based tests for the strict-serializability checkers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serializability import check_lemma20, check_strict_serializability
from repro.txn.datatype import run_serial
from repro.txn.history import History, HistoryEntry
from repro.txn.transactions import ReadResult, read, write_pairs
from tests import reference_checkers as ref

OBJECTS = ("o1", "o2")
values = st.integers(min_value=1, max_value=4)


@st.composite
def transaction_sequences(draw):
    """A random sequence of transactions with serial (non-overlapping) timing."""
    count = draw(st.integers(min_value=1, max_value=7))
    txns = []
    for index in range(count):
        subset = draw(
            st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=len(OBJECTS), unique=True)
        )
        if draw(st.booleans()):
            txns.append(read(*subset, txn_id=f"T{index}"))
        else:
            txns.append(write_pairs(tuple((obj, draw(values)) for obj in subset), txn_id=f"T{index}"))
    return txns


def serial_history(txns):
    """Build the history of running ``txns`` back-to-back with correct results."""
    responses, _ = run_serial(txns, OBJECTS, initial_value=0)
    entries = []
    for position, (txn, response) in enumerate(zip(txns, responses)):
        entries.append(
            HistoryEntry(
                txn=txn,
                client=f"c{position % 3}",
                invoke_index=2 * position,
                respond_index=2 * position + 1,
                result=response,
            )
        )
    return History(entries, objects=OBJECTS, initial_value=0)


@settings(max_examples=50, deadline=None)
@given(transaction_sequences())
def test_correct_serial_histories_are_always_accepted(txns):
    history = serial_history(txns)
    result = check_strict_serializability(history)
    assert result.ok
    # The witness order must itself be consistent with real time: the i-th
    # transaction responded before the (i+1)-th was invoked, so the witness
    # must list them in submission order.
    assert list(result.witness_order) == [txn.txn_id for txn in txns]


@settings(max_examples=50, deadline=None)
@given(transaction_sequences())
def test_impossible_read_values_are_always_rejected(txns):
    reads_present = [txn for txn in txns if txn.is_read()]
    if not reads_present:
        return
    history = serial_history(txns)
    # Corrupt one read to observe a value that no write ever produced.
    victim = reads_present[0]
    corrupted_entries = []
    for entry in history.entries():
        if entry.txn_id == victim.txn_id:
            bogus = {obj: 999 for obj in victim.objects}
            corrupted_entries.append(
                HistoryEntry(
                    txn=entry.txn,
                    client=entry.client,
                    invoke_index=entry.invoke_index,
                    respond_index=entry.respond_index,
                    result=ReadResult.from_mapping(bogus),
                )
            )
        else:
            corrupted_entries.append(entry)
    corrupted = History(corrupted_entries, objects=OBJECTS, initial_value=0)
    assert not check_strict_serializability(corrupted).ok


@settings(max_examples=50, deadline=None)
@given(transaction_sequences())
def test_lemma20_accepts_position_tags_on_serial_histories(txns):
    """Tagging a serial history by position satisfies P1-P4.

    Reads are tagged with the position of the latest preceding write (writes
    with their own position), mirroring how algorithms A and B derive tags
    from list positions.
    """
    history = serial_history(txns)
    tags = {}
    latest_write_tag = 1
    for position, txn in enumerate(txns, start=2):
        if txn.is_write():
            latest_write_tag = position
            tags[txn.txn_id] = position
        else:
            tags[txn.txn_id] = latest_write_tag
    result = check_lemma20(history, tags, cross_check=False)
    assert result.ok, result.describe()


@settings(max_examples=30, deadline=None)
@given(transaction_sequences(), st.integers(min_value=0, max_value=6))
def test_concurrent_reads_of_either_snapshot_are_accepted(txns, overlap_position):
    """A read overlapping one write may see old or new values and stays accepted."""
    writes = [txn for txn in txns if txn.is_write()]
    if not writes:
        return
    history_entries = list(serial_history(txns).entries())
    # Append one read concurrent with the *last* write, observing the state
    # just before that write (the "old" snapshot) — always serializable by
    # placing the read before it.
    responses, _ = run_serial(txns, OBJECTS, initial_value=0)
    last_write_index = max(i for i, txn in enumerate(txns) if txn.is_write())
    prefix = txns[:last_write_index]
    prefix_state = run_serial(prefix, OBJECTS, initial_value=0)[1]
    extra_read = read(*OBJECTS, txn_id="R-extra")
    last_write_entry = history_entries[last_write_index]
    history_entries.append(
        HistoryEntry(
            txn=extra_read,
            client="c-extra",
            invoke_index=last_write_entry.invoke_index,
            respond_index=last_write_entry.respond_index,
            result=ReadResult.from_mapping(prefix_state.as_dict),
        )
    )
    history = History(history_entries, objects=OBJECTS, initial_value=0)
    assert check_strict_serializability(history).ok


@st.composite
def overlapping_histories(draw):
    """Transactions at random, overlapping positions: intervals may share
    endpoints, touch, or (as a hand-written history may) respond before
    they invoke.  Reads observe small random values, so both verdicts occur."""
    entries = []
    for index in range(draw(st.integers(min_value=1, max_value=7))):
        subset = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=len(OBJECTS), unique=True))
        invoke = draw(st.integers(min_value=0, max_value=8))
        respond = invoke + draw(st.integers(min_value=-1, max_value=4))
        if draw(st.booleans()):
            txn = read(*subset, txn_id=f"T{index}")
            result = ReadResult.from_mapping({obj: draw(st.integers(min_value=0, max_value=2)) for obj in subset})
        else:
            txn = write_pairs(tuple((obj, draw(st.integers(min_value=1, max_value=2))) for obj in subset), txn_id=f"T{index}")
            result = None
        entries.append(HistoryEntry(txn=txn, client=f"c{index}", invoke_index=invoke, respond_index=respond, result=result))
    return History(entries, objects=OBJECTS, initial_value=0)


def search_outcome(result):
    return (result.ok, result.witness_order, result.explored_states)


@settings(max_examples=300, deadline=None)
@given(overlapping_histories())
def test_frontier_search_equals_the_predecessor_search(history):
    assert search_outcome(check_strict_serializability(history)) == search_outcome(
        ref.check_strict_serializability(history)
    )


def _entry(txn, invoke, respond, result=None):
    return HistoryEntry(txn=txn, client="c", invoke_index=invoke, respond_index=respond, result=result)


W1 = write_pairs((("o1", 1),), txn_id="W1")
W2 = write_pairs((("o1", 2),), txn_id="W2")
R1 = read("o1", txn_id="R1")


@pytest.mark.parametrize(
    "entries",
    [
        # equal indices: every interval is the same point
        [_entry(W1, 3, 3), _entry(W2, 3, 3), _entry(R1, 3, 3, ReadResult.from_mapping({"o1": 1}))],
        # a response at the very index the next invocation has: not real-time ordered
        [_entry(W1, 0, 1), _entry(W2, 1, 2), _entry(R1, 2, 3, ReadResult.from_mapping({"o1": 1}))],
        # adjacent indices: each precedes the next, so the read must see W2
        [_entry(W1, 0, 1), _entry(W2, 2, 3), _entry(R1, 4, 5, ReadResult.from_mapping({"o1": 1}))],
        [_entry(W1, 0, 1), _entry(W2, 2, 3), _entry(R1, 4, 5, ReadResult.from_mapping({"o1": 2}))],
        # a response recorded before its invocation
        [_entry(W1, 5, 2), _entry(W2, 0, 3), _entry(R1, 4, 6, ReadResult.from_mapping({"o1": 1}))],
        [_entry(W1, 5, 2), _entry(W2, 3, 4), _entry(R1, 1, 2, ReadResult.from_mapping({"o1": 2}))],
    ],
)
def test_frontier_search_on_hand_written_boundaries(entries):
    history = History(entries, objects=OBJECTS, initial_value=0)
    assert search_outcome(check_strict_serializability(history)) == search_outcome(
        ref.check_strict_serializability(history)
    )


@settings(max_examples=200, deadline=None)
@given(
    overlapping_histories(),
    st.lists(
        st.one_of(st.integers(min_value=0, max_value=4), st.sampled_from([1.0, 2.5, float("nan")])),
        min_size=7,
        max_size=7,
    ),
)
def test_lemma20_violations_equal_the_pairwise_check(history, tag_values):
    tags = {entry.txn_id: tag for entry, tag in zip(history.entries(), tag_values)}
    result = check_lemma20(history, tags, cross_check=False)
    assert result.violations == ref.lemma20_violations(history, tags)
