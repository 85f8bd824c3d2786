"""The repository's benchmark: one seeded workload, timed or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snow-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced, cycling over ``INPUTS`` inputs
derived from ``--seed``, until ``--seconds`` have passed (at least
``MIN_REPS`` times), and reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics; the spans of the last traced
repetition are written to ``perfbench/out/``.  Every repetition passes the
workload's verdict gate and repeats the first repetition's count columns
bit-for-bit, or the run fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every verdict held.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: distinct inputs a run measures, all derived from its --seed; the
#: per-input cost differences (e.g. how far the serializability search
#: backtracks) average out within a run instead of spreading between runs
INPUTS = 3
#: repetitions a run makes at least, however long they take: two per input,
#: so every input's count columns are checked for exact repetition
MIN_REPS = 2 * INPUTS
#: extra set-ups timed before each repetition, so setup_s is a median of many
EXTRA_SETUPS = 4
#: a run phase shorter than this (seconds) is too short to time steadily
#: from the repetitions alone, so the extra set-ups run the system too
SHORT_RUN_S = 0.5
OUT_DIR = os.path.join(HERE, "out")


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; fail loudly without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)


class Metrics:
    """Ordered ``name -> (value, unit)`` with a printer."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}
        self.notes: Dict[str, str] = {}
        #: free-form lines printed after the values
        self.lines: List[str] = []

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.values[name] = (value, unit)
        if note:
            self.notes[name] = note

    def print(self) -> None:
        for name, (value, unit) in self.values.items():
            note = self.notes.get(name, "")
            print(f"  {name:34s} {value:>16.6g} {unit:6s} {note}".rstrip())
        for line in self.lines:
            print(f"  {line}")

    def as_json(self, names: List[str]) -> Dict[str, Dict[str, Any]]:
        return {name: {"value": self.values[name][0], "unit": self.values[name][1]} for name in names}


def _declared(kind: str) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)[kind]]


def input_seeds(seed: int) -> List[int]:
    """The seeds of the run's distinct inputs (disjoint across --seed values)."""
    return [seed * INPUTS + i for i in range(INPUTS)]


def _same_counts(reps: List[Any], failures: List[str]) -> None:
    """Exact count columns: every repetition of one input repeats the first."""
    first: Dict[int, Tuple[int, Dict[str, Any]]] = {}
    for index, rep in enumerate(reps, start=1):
        ref_index, ref = first.setdefault(rep.seed, (index, rep.counts))
        for key, value in ref.items():
            if rep.counts.get(key) != value:
                failures.append(
                    f"count column {key!r} of input seed {rep.seed} differs between "
                    f"repetitions {ref_index} and {index}"
                )


def _latency_metrics(out: Metrics, inputs: List[Any]) -> None:
    """Virtual latencies pooled over the run's distinct inputs."""
    from stats import median, tail

    for kind in ("read", "write"):
        samples = [v for rep in inputs for v in rep.counts[f"{kind}_vt"]]
        out.put(f"{kind}_vt_p50", median(samples), "steps", f"(n={len(samples)})")
        value, percentile, n = tail(samples)
        out.put(f"{kind}_vt_tail", value, "steps", f"(p{percentile:.2f} of n={n})")


def measure(workload: Any, seed: int, extra_setups: int = 0, extra_runs: bool = False, **traced: Any) -> Any:
    """One repetition, preceded by ``extra_setups`` set-ups (each also run
    when ``extra_runs``), with the speed calibration taken before them,
    between the repetition's run and results phases, and after it; each
    phase is scaled by the calibrations around it.  The built systems are
    released once measured."""
    import speed
    from workloads import run_repetition, set_up

    gc.collect()
    loops = [speed.loop_time()]
    setups: List[float] = []
    runs: List[float] = []
    events = set()
    for _ in range(extra_setups):
        extra = set_up(workload, seed)
        setups.append(extra.times["setup"])
        if extra_runs:
            start = perf_counter()
            extra.handle.run()
            runs.append(perf_counter() - start)
            events.add(extra.handle.simulation.steps_taken)
        extra.release()
    gc.collect()
    rep = run_repetition(workload, seed, between=lambda: loops.append(speed.loop_time()), **traced)
    rep.release()
    setups.append(rep.times["setup"])
    runs.append(rep.times["run"])
    if events - {rep.counts["events"]}:
        rep.failures.append(f"an extra run of input seed {seed} took another number of events")
    gc.collect()
    loops.append(speed.loop_time())
    before, between, after = loops
    rep.scale = {
        "setup": speed.scale(before, between),
        "run": speed.scale(before, between),
        "results": speed.scale(between, after),
    }
    rep.setups = [t * rep.scale["setup"] for t in setups]
    rep.runs = [t * rep.scale["run"] for t in runs]
    return rep


def timed_run(workload: Any, seed: int, seconds: float) -> Tuple[Metrics, List[Any], List[str]]:
    from stats import failed_ratio, median

    seeds = input_seeds(seed)
    reps: List[Any] = []
    peak_rss_mb = 0.0
    begin = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - begin < seconds:
        # A run phase this short is sampled again by every extra set-up.
        short = bool(reps) and reps[0].times["run"] < SHORT_RUN_S
        reps.append(measure(workload, seeds[len(reps) % INPUTS], EXTRA_SETUPS, short))
        if len(reps) == 1:
            # ru_maxrss (KiB on Linux) after one repetition: the peak of a
            # process that ran exactly one.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [f for rep in reps for f in rep.failures]
    _same_counts(reps, failures)
    inputs = reps[:INPUTS]

    def med(name: str) -> float:
        return median(r.ref(name) for r in reps)

    out = Metrics()
    setups = [t for r in reps for t in r.setups]
    out.put("setup_s", median(setups), "s", f"(median of {len(setups)} set-ups)")
    note = f"(median of {len(reps)} repetitions over {INPUTS} inputs)"
    run_us = [t / r.counts["completed"] * 1e6 for r in reps for t in r.runs]
    out.put("run_us_per_txn", median(run_us), "us", f"(median of {len(run_us)} runs over {INPUTS} inputs)")
    if workload.collects:
        out.put("collect_s", med("analysis.collect_metrics"), "s", note)
    out.put("results_s", med("results"), "s", note)
    out.put("experiment_s", med("experiment"), "s", note)
    out.put("peak_rss_mb", peak_rss_mb, "MB", "(after repetition 1)")
    submitted = sum(r.counts["submitted"] for r in inputs)
    out.put("failed_ratio", failed_ratio(submitted, sum(r.counts["completed"] for r in inputs)), "ratio")
    _latency_metrics(out, inputs)
    scales = sorted(f for r in reps for f in r.scale.values())
    out.lines.append(f"input seeds {seeds}; speed scale to reference seconds: {scales[0]:.3f} .. {scales[-1]:.3f}")
    return out, inputs, failures


def traced_run(workload: Any, seed: int, seconds: float) -> Tuple[Metrics, List[Any], List[str]]:
    from layers import RUN_BUCKETS, Probe, calls_in, instrument, self_times, slope
    from spans import Tracer
    from stats import median
    from workloads import CRASH_AT

    seed = input_seeds(seed)[0]  # the traced run measures the first input
    plain: List[Any] = []
    traced: List[Tuple[Any, Tracer, Probe]] = []
    begin = perf_counter()
    while len(plain) < 1 or len(traced) < 2 or perf_counter() - begin < seconds:
        if len(plain) <= len(traced):
            plain.append(measure(workload, seed))
            continue
        if traced:  # keep the spans of the last traced repetition only
            traced[-1][1].drop_spans()
        tracer, probe = Tracer(), Probe()
        rep = measure(workload, seed, tracer=tracer, instrument=lambda r: instrument(r, probe))
        traced.append((rep, tracer, probe))

    failures = [f for rep in plain for f in rep.failures]
    failures += [f for rep, _, _ in traced for f in rep.failures]
    _same_counts(plain + [rep for rep, _, _ in traced], failures)
    first = _probe_counts(traced[0][2], traced[0][1])
    if any(_probe_counts(probe, tracer) != first for _, tracer, probe in traced[1:]):
        failures.append("traced call/message/store counts differ between traced repetitions")

    # Layer figures come from one traced repetition (the median by scaled
    # run time), so they add up to its wall time; counts are equal in all.
    ordered = sorted(traced, key=lambda t: t[0].ref("run"))
    rep, tracer, probe = ordered[(len(ordered) - 1) // 2]
    counts = rep.counts
    completed = counts["completed"]
    reads = len(counts["read_vt"])
    st = self_times(tracer)

    def us(bucket: str) -> float:
        return st.get(bucket, 0.0) * rep.scale["run"] / completed * 1e6

    def phase(name: str) -> float:
        return median(r.ref(name) for r in plain)

    faults = counts["faults"]
    out = Metrics()
    out.put("ioa.events_per_txn", counts["events"] / completed, "count")
    out.put("ioa.actions_per_txn", counts["actions"] / completed, "count")
    out.put("ioa.self_us_per_txn", us("ioa.self"), "us")
    out.put("ioa.choose_us_per_txn", us("ioa.choose"), "us")
    out.put("ioa.pending_mean", probe.pending_total / max(1, probe.chooses), "count")
    out.put("ioa.trace_append_us_per_txn", us("ioa.trace_append"), "us")
    out.put("ioa.slope", slope(probe.completions, rep.times["run_start"]), "ratio")
    out.put("protocols.client_us_per_txn", us("protocols.client"), "us")
    out.put("protocols.server_us_per_txn", us("protocols.server"), "us")
    out.put("protocols.msgs_per_txn", probe.protocol_msgs / completed, "count")
    out.put("protocols.read_rounds_mean", sum(counts["read_rounds"]) / max(1, len(counts["read_rounds"])), "count")
    out.put("protocols.build_s", phase("protocols.build"), "s")
    out.put("txn.quorum_replies_per_read", probe.read_replies / max(1, reads), "count")
    out.put("txn.history_s", phase("txn.history"), "s")
    out.put("consensus.member_us_per_txn", us("consensus.member"), "us")
    out.put("consensus.msgs_per_txn", probe.consensus_msgs / completed, "count")
    commits = probe.commit_latencies
    out.put("consensus.commit_vt_p50", median(commits) if commits else 0.0, "steps", f"(n={len(commits)})")
    out.put("consensus.elections", float(probe.elections), "count")
    after_crash = [t for t in probe.leaders_at if t >= CRASH_AT]
    leaderless = min(after_crash) - CRASH_AT if "crashes" in workload.plan and after_crash else 0
    out.put("consensus.leaderless_vt", float(leaderless), "steps")
    served = probe.local_reads + probe.read_applies
    out.put("consensus.local_read_ratio", probe.local_reads / served if served else 0.0, "ratio")
    out.put("faults.us_per_txn", us("faults"), "us")
    out.put("faults.dropped_per_txn", faults["dropped"] / completed, "count")
    out.put("faults.duplicated_per_txn", faults["duplicated"] / completed, "count")
    out.put("faults.retry_ratio", faults["retransmissions"] / max(1, faults["sent"]), "ratio")
    store_calls = sum(n for name, n in tracer.calls.items() if name.startswith("persist."))
    out.put("persist.us_per_txn", us("persist"), "us")
    out.put("persist.calls_per_txn", store_calls / completed, "count")
    out.put("persist.snapshot_bytes_max", float(probe.snapshot_bytes_max), "bytes")
    out.put("persist.retained_entries_max", float(probe.retained_entries_max), "count")
    out.put("obs.us_per_txn", us("obs"), "us")
    out.put("core.check_snow_s", phase("core.check_snow"), "s")
    out.put("core.check_lemma20_s", phase("core.check_lemma20"), "s")
    out.put("core.check_serializability_s", phase("core.check_serializability"), "s")
    out.put("core.lemma20_violations", float(counts.get("core.lemma20_violations", 0)), "count")
    out.put("analysis.collect_metrics_s", phase("analysis.collect_metrics"), "s")
    out.put("analysis.generate_s", phase("analysis.generate"), "s")
    out.put("analysis.submit_s", phase("analysis.submit"), "s")
    out.put("trace.overhead_ratio", rep.ref("run") / median(r.ref("run") for r in plain), "ratio")
    out.put("trace.accounted_share", sum(st.values()) / rep.times["experiment"], "ratio")

    for bucket in RUN_BUCKETS:
        if calls_in(tracer, bucket) == 0:
            out.lines.append(f"layer {bucket}: zero calls on {workload.name}")
    out.lines.append(f"input seed {seed}")
    out.lines.append(_write_spans(workload.name, seed, traced[-1][1], rep))
    return out, [rep], failures


def _probe_counts(probe: Any, tracer: Any) -> Tuple[Any, ...]:
    return (
        probe.chooses,
        probe.pending_total,
        probe.protocol_msgs,
        probe.consensus_msgs,
        probe.read_replies,
        probe.elections,
        tuple(probe.leaders_at),
        tuple(probe.commit_latencies),
        probe.local_reads,
        probe.read_applies,
        probe.retained_entries_max,
        tuple(sorted(tracer.calls.items())),
    )


def _write_spans(name: str, seed: int, tracer: Any, rep: Any) -> str:
    """The last traced repetition's spans, and the self-time summary of the
    repetition whose figures the run reports (``rep``)."""
    from layers import self_times

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    tracer.write(stem + ".spans.tsv.gz")
    with open(stem + ".layers.json", "w") as handle:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "spans": len(tracer),
                "reported_repetition_wall_s": rep.times["experiment"],
                "reported_self_s": dict(sorted(self_times(rep.tracer).items())),
                "calls": dict(sorted(tracer.calls.items())),
            },
            handle,
            indent=1,
        )
    return f"spans: {len(tracer)} written to {os.path.relpath(stem, ROOT)}.spans.tsv.gz"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    import selfcheck
    from workloads import WORKLOADS

    selfcheck.main()

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    run = traced_run if args.trace else timed_run
    metrics, inputs, failures = run(workload, args.seed, args.seconds)

    submitted = sum(rep.counts["submitted"] for rep in inputs)
    completed = sum(rep.counts["completed"] for rep in inputs)
    print(
        f"workload {workload.name} seed {args.seed}: {len(inputs)} distinct input(s), "
        f"{submitted} transactions submitted, {completed} completed"
    )
    metrics.print()
    for failure in dict.fromkeys(failures):
        print(f"  VERDICT FAILED: {failure}")
    names = _declared("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not failures,
        "attempted": submitted,
        "failed": submitted - completed,
        "metrics": metrics.as_json(names),
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
