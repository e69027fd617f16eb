"""Continuous resource targets derived from job execution profiles.

Each task gets four targets: per-core RAM (MB), CPU time per event
(HS06-seconds), I/O intensity (bytes/second) and walltime (seconds).
Per-job values come from closed-form arithmetic on the measured profile;
task-level values aggregate the scout jobs of the task with fixed
percentile rules (75th for RAM, 95th for CPU time, median for I/O).
:func:`derive_tasks` chooses those jobs for ``respred derive`` and scout mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .discretize import TARGET_REGISTRY
from .ingest import JobProfile

SIX_HOURS = 6 * 3600.0


class UndefinedTargetError(ValueError):
    """A job profile cannot produce a finite target (zero events, zero duration)."""


@dataclass(frozen=True)
class ResourceConfig:
    """Site/queue parameters entering the target formulas.

    All values are operator-configurable; the defaults keep the clamp
    branches reachable without making them dominate.
    """

    base_ram_count: float = 0.0        # MB subtracted from maxPSS
    min_ram_count: float = 500.0       # MB floor of the per-core request
    margin: float = 10.0               # multiplicative RAM safety factor
    base_time: float = 0.0             # seconds of fixed per-job overhead
    cpu_efficiency: float = 0.9        # fraction of walltime spent on CPU
    cpu_safety_factor: float = 1.5
    walltime_C: float = 1.0            # queue configuration constant
    walltime_P: float = 10.0           # HS06 per core of the reference queue
    min_time: float = 0.0              # seconds, lower walltime bound
    max_time: float = 30 * 86400.0     # seconds, upper walltime bound

    def __post_init__(self) -> None:
        if not 0.0 < self.cpu_efficiency <= 1.0:
            raise ValueError("cpu_efficiency must be in (0, 1]")
        if self.min_time > self.max_time:
            raise ValueError("min_time must not exceed max_time")
        for name in ("base_ram_count", "min_ram_count", "margin", "base_time",
                     "cpu_safety_factor", "walltime_C", "walltime_P", "min_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ResourceTargets:
    """Continuous targets for one task, in the units the classifiers are trained on."""

    ram_count: float      # MB per core
    cpu_time: float       # HS06-seconds per event
    io_intensity: float   # bytes per second
    walltime: float       # seconds


@dataclass(frozen=True)
class ScoutAggregation:
    """Percentile-aggregated targets plus provenance of the CPU-time filter.

    ``cpu_fallback_all`` is set when no scout passed the event/duration gate
    and the 95th percentile was taken over all scouts instead.
    """

    targets: ResourceTargets
    cpu_fallback_all: bool
    n_scouts: int
    n_cpu_scouts: int


def derive_ram_count(job: JobProfile, cfg: ResourceConfig) -> float:
    """Per-core RAM requirement in MB: max(((maxPSS - base) / cores) * margin, floor)."""
    if job.core_count < 1:
        raise ValueError("job.core_count must be >= 1")
    scaled = (job.max_pss - cfg.base_ram_count) / job.core_count * cfg.margin
    return max(scaled, cfg.min_ram_count)


def derive_cpu_time(job: JobProfile, cfg: ResourceConfig) -> float:
    """HS06-seconds per event from the measured duration and core power."""
    if job.n_events_job < 1:
        raise UndefinedTargetError(
            f"job {job.task_id}: cpu time undefined for n_events_job = 0"
        )
    active = max(0.0, job.end_time - job.start_time - cfg.base_time)
    per_event = active * job.core_power / job.n_events_job
    return per_event * job.core_count * cfg.cpu_efficiency * cfg.cpu_safety_factor


def derive_io_intensity(job: JobProfile) -> float:
    """Bytes per second of execution: (input + output) / duration."""
    duration = job.end_time - job.start_time
    if duration <= 0:
        raise UndefinedTargetError(
            f"job {job.task_id}: io intensity undefined for zero duration"
        )
    return (job.input_bytes + job.output_bytes) / duration


def derive_walltime(cpu_time: float, n_events: float, cfg: ResourceConfig) -> float:
    """Seconds of walltime implied by a per-event CPU time, clamped to queue bounds."""
    if cfg.walltime_C <= 0 or cfg.walltime_P <= 0:
        raise ValueError("walltime_C and walltime_P must be positive")
    w = cpu_time * n_events / (cfg.walltime_C * cfg.walltime_P * cfg.cpu_efficiency)
    w += cfg.base_time
    return min(max(w, cfg.min_time), cfg.max_time)


def _percentile(values: Iterable[float], q: float) -> float:
    # np.percentile's "linear" method in plain Python, step for step in numpy's
    # order (_get_indexes, _get_gamma, _lerp), so every aggregate is the float
    # np.percentile gives; a numpy call costs more than sorting a task's 1-10
    # values, and sorting a copy keeps the result independent of scout order
    xs = sorted(map(float, values))
    if any(map(math.isnan, xs)):
        return math.nan
    n = len(xs)
    pos = (n - 1) * (q / 100)
    if pos >= n - 1:
        a = b = xs[-1]
        t = pos + 1
    else:
        lo = math.floor(pos)
        a, b, t = xs[lo], xs[lo + 1], pos - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def cpu_filter_passes(job: JobProfile) -> bool:
    """CPU-time scouts must have >= 10 * coreCount events or run longer than 6 h."""
    duration = job.end_time - job.start_time
    return job.n_events_job >= 10 * job.core_count or duration > SIX_HOURS


def aggregate_scouts(scouts: Iterable[JobProfile], cfg: ResourceConfig) -> ScoutAggregation:
    """Aggregate per-scout derivations into one ResourceTargets for the task.

    RAM takes the 75th percentile, CPU time the 95th percentile over scouts
    passing :func:`cpu_filter_passes` (all scouts if none pass), I/O the
    median. Walltime is re-derived from the aggregated CPU time using the
    median per-scout event count as the representative job size.
    """
    scouts = list(scouts)
    if not scouts:
        raise ValueError("aggregate_scouts requires at least one scout job")

    ram = _percentile([derive_ram_count(s, cfg) for s in scouts], 75.0)

    cpu_scouts = [s for s in scouts if cpu_filter_passes(s)]
    fallback = not cpu_scouts
    if fallback:
        cpu_scouts = scouts
    cpu = _percentile([derive_cpu_time(s, cfg) for s in cpu_scouts], 95.0)

    io = _percentile([derive_io_intensity(s) for s in scouts], 50.0)

    events_per_job = _percentile([float(s.n_events_job) for s in scouts], 50.0)
    wall = derive_walltime(cpu, events_per_job, cfg)

    targets = ResourceTargets(ram_count=ram, cpu_time=cpu, io_intensity=io, walltime=wall)
    return ScoutAggregation(
        targets=targets,
        cpu_fallback_all=fallback,
        n_scouts=len(scouts),
        n_cpu_scouts=len(cpu_scouts),
    )


def derive_tasks(jobs_by_task: Mapping[str, Sequence[JobProfile]], task_ids: Sequence[str], cfg: ResourceConfig,
                 all_jobs: bool = False) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Targets (name -> array aligned with task_ids), scout counts and CPU-filter fallbacks per task.

    A task aggregates its usable jobs, those with events and a duration: its usable flagged scouts, or
    all of them if none of its flagged scouts is usable or ``all_jobs`` is set. A task with no usable
    job gets NaN targets and 0 scouts.
    """
    values = {name: np.full(len(task_ids), np.nan) for name in TARGET_REGISTRY}
    n_scouts, fallback = np.zeros(len(task_ids), dtype=int), np.zeros(len(task_ids), dtype=bool)
    for i, task_id in enumerate(task_ids):
        usable = [j for j in jobs_by_task.get(task_id, []) if j.n_events_job >= 1 and j.end_time > j.start_time]
        scouts = usable if all_jobs else ([j for j in usable if j.is_scout] or usable)
        if scouts:
            agg = aggregate_scouts(scouts, cfg)
            for name, (_, _, field_name) in TARGET_REGISTRY.items():
                values[name][i] = getattr(agg.targets, field_name)
            n_scouts[i], fallback[i] = agg.n_scouts, agg.cpu_fallback_all
    return values, n_scouts, fallback
