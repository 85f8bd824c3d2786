"""Fast self-check of the benchmark's own arithmetic.

Run it alone with ``python3 perfbench/selfcheck.py``; ``run.py`` also runs it
before every measurement, so a broken rule fails the benchmark instead of
skewing its figures.  It checks:

* the tail-percentile rule (at least ten samples beyond the reported rank);
* self-time subtraction with nested spans (on a scripted clock);
* ``failed_ratio`` counting stranded transactions, on a small system whose
  storage server ``sx`` fail-stops mid-run: three transactions complete and
  one strands.
"""

from __future__ import annotations

import os
import sys
from typing import Iterator


def expect(ok: bool, detail: object = "") -> None:
    """A check that survives ``python -O`` (unlike ``assert``)."""
    if not ok:
        raise AssertionError(f"perfbench self-check failed {detail}".rstrip())


def check_tail() -> None:
    from stats import TAIL_BEYOND, tail

    expect(tail(list(range(1, 11))) is None, "10 samples leave no rank with 10 beyond it")
    value, percentile, n = tail(list(range(1, 12)))
    expect((value, n) == (1.0, 11) and abs(percentile - 100 / 11) < 1e-9)
    samples = list(range(100, 0, -1))  # unsorted on purpose
    value, percentile, n = tail(samples)
    expect((value, percentile, n) == (90.0, 90.0, 100))
    expect(sum(1 for v in samples if v > value) == TAIL_BEYOND)
    # ties: the rank rule still leaves ten samples beyond the reported rank
    value, _, _ = tail([5] * 30 + [7] * 5)
    expect(value == 5.0)


def check_self_time() -> None:
    import spans

    ticks: Iterator[float] = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    real_clock = spans.perf_counter
    spans.perf_counter = lambda: next(ticks)
    try:
        tracer = spans.Tracer()
        with tracer.span("a"):  # 0 .. 10
            with tracer.span("b"):  # 2 .. 5
                with tracer.span("c"):  # 3 .. 4
                    pass
            with tracer.span("d"):  # 6 .. 8
                pass
    finally:
        spans.perf_counter = real_clock
    expect(tracer.self_time == {"a": 5.0, "b": 2.0, "c": 1.0, "d": 2.0}, tracer.self_time)
    expect(list(tracer.parents) == [-1, 0, 1, 0])
    expect(sum(tracer.self_time.values()) == tracer.root_time() == 10.0)


def check_failed_ratio() -> None:
    from stats import failed_ratio
    from workloads import Repetition, Workload, _account

    from repro.analysis import WorkloadSpec, generate_workload, submit_workload
    from repro.faults import ChaosScheduler, FaultInjector, fail_stop
    from repro.protocols import get_protocol

    expect(failed_ratio(8, 8) == 0.0 and failed_ratio(8, 6) == 0.25)
    handle = get_protocol("algorithm-b").build(
        num_readers=1,
        num_writers=1,
        num_objects=2,
        scheduler=ChaosScheduler(seed=3),
        fault_plane=FaultInjector(fail_stop(server="sx", at=20)),
    )
    spec = WorkloadSpec(reads_per_reader=2, writes_per_writer=2, read_size=2, write_size=2, seed=3)
    rep = Repetition(workload=Workload.__new__(Workload), seed=3, handle=handle)
    rep.read_ids, rep.write_ids = submit_workload(
        handle, generate_workload(spec, handle.readers, handle.writers, handle.objects)
    )
    handle.run()  # goes idle with the last transaction stranded on the dead server
    _account(rep)
    expect(len(handle.simulation.incomplete_transactions()) == 1)
    expect((rep.counts["submitted"], rep.counts["completed"]) == (4, 3), rep.counts)
    expect(failed_ratio(rep.counts["submitted"], rep.counts["completed"]) == 0.25)
    expect(not rep.failures, rep.failures)  # stranded is counted, not lost


def main() -> None:
    check_tail()
    check_self_time()
    check_failed_ratio()


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    main()
    print("perfbench self-check: ok")
