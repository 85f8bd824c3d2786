"""Parameter sweeps: contention, fan-out and concurrency series.

These sweeps back the "figure-shaped" benchmarks that go beyond the paper's
two summary matrices:

* :func:`sweep_versions_vs_writers` — algorithm C's reply sizes as the number
  of concurrent WRITE transactions grows (the ``|W|`` bound of Figure 1(b)
  and Section 9);
* :func:`sweep_rounds_vs_contention` — the unbounded-round baseline's collect
  count as write contention grows, versus the constant two rounds of
  algorithm B and one round of algorithms A/C (the motivation for bounded
  SNW algorithms);
* :func:`sweep_read_size` — latency as READ transactions span more shards
  (the fan-out dimension of real workloads).

The protocol × fault grids committed as ``BENCH_*.json`` live in
:mod:`repro.analysis.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from .runner import ExperimentConfig, ExperimentResult, run_experiment
from .workload import WorkloadSpec


@dataclass
class SweepPoint:
    """One (x, result) point of a sweep."""

    x: Any
    result: ExperimentResult

    @property
    def metrics(self):
        return self.result.metrics


@dataclass
class SweepResult:
    """A named series of sweep points."""

    name: str
    x_label: str
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, extractor) -> List[Tuple[Any, Any]]:
        return [(point.x, extractor(point.result)) for point in self.points]

    def max_versions_series(self) -> List[Tuple[Any, int]]:
        return self.series(lambda r: r.metrics.max_versions())

    def max_rounds_series(self) -> List[Tuple[Any, int]]:
        return self.series(lambda r: r.metrics.max_read_rounds())

    def mean_rounds_series(self) -> List[Tuple[Any, float]]:
        return self.series(
            lambda r: round(r.metrics.read_rounds.mean, 2) if r.metrics.read_rounds.count else 0.0
        )

    def mean_read_latency_series(self) -> List[Tuple[Any, float]]:
        return self.series(
            lambda r: round(r.metrics.read_latency_steps.mean, 1)
            if r.metrics.read_latency_steps.count
            else 0.0
        )


def sweep_versions_vs_writers(
    protocol: str = "algorithm-c",
    writer_counts: Sequence[int] = (1, 2, 4, 6, 8),
    num_objects: int = 3,
    scheduler: str = "random",
    seed: int = 1,
    writes_per_writer: int = 4,
    reads_per_reader: int = 6,
) -> SweepResult:
    """Versions carried by read replies as concurrent writers increase."""
    sweep = SweepResult(name=f"{protocol}: versions vs writers", x_label="writers")
    for writers in writer_counts:
        config = ExperimentConfig(
            protocol=protocol,
            num_readers=1,
            num_writers=writers,
            num_objects=num_objects,
            workload=WorkloadSpec(
                reads_per_reader=reads_per_reader,
                writes_per_writer=writes_per_writer,
                read_size=num_objects,
                write_size=num_objects,
                seed=seed,
            ),
            scheduler=scheduler,
            seed=seed,
            check_properties=False,
        )
        sweep.points.append(SweepPoint(x=writers, result=run_experiment(config)))
    return sweep


def sweep_rounds_vs_contention(
    protocols: Sequence[str] = ("algorithm-b", "algorithm-c", "occ-double-collect"),
    writer_counts: Sequence[int] = (1, 2, 4, 6),
    num_objects: int = 2,
    scheduler: str = "random",
    seed: int = 2,
) -> Dict[str, SweepResult]:
    """Worst-case read rounds as write contention grows, per protocol."""
    sweeps: Dict[str, SweepResult] = {}
    for protocol in protocols:
        sweep = SweepResult(name=f"{protocol}: rounds vs contention", x_label="writers")
        for writers in writer_counts:
            config = ExperimentConfig(
                protocol=protocol,
                num_readers=1,
                num_writers=writers,
                num_objects=num_objects,
                workload=WorkloadSpec(
                    reads_per_reader=6,
                    writes_per_writer=4,
                    read_size=num_objects,
                    write_size=num_objects,
                    seed=seed,
                ),
                scheduler=scheduler,
                seed=seed,
                check_properties=False,
            )
            sweep.points.append(SweepPoint(x=writers, result=run_experiment(config)))
        sweeps[protocol] = sweep
    return sweeps


def sweep_read_size(
    protocols: Sequence[str] = ("simple-rw", "algorithm-a", "algorithm-b", "algorithm-c", "s2pl"),
    read_sizes: Sequence[int] = (1, 2, 4, 6),
    num_objects: int = 6,
    scheduler: str = "fifo",
    seed: int = 0,
) -> Dict[str, SweepResult]:
    """Read latency as the number of shards per READ transaction grows."""
    sweeps: Dict[str, SweepResult] = {}
    for protocol in protocols:
        sweep = SweepResult(name=f"{protocol}: latency vs read fan-out", x_label="objects per read")
        for size in read_sizes:
            config = ExperimentConfig(
                protocol=protocol,
                num_readers=1 if protocol == "algorithm-a" else 2,
                num_writers=2,
                num_objects=num_objects,
                workload=WorkloadSpec(
                    reads_per_reader=5,
                    writes_per_writer=3,
                    read_size=size,
                    write_size=min(2, num_objects),
                    seed=seed,
                ),
                scheduler=scheduler,
                seed=seed,
                check_properties=False,
            )
            sweep.points.append(SweepPoint(x=size, result=run_experiment(config)))
        sweeps[protocol] = sweep
    return sweeps
