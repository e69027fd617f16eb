"""Synthetic task populations and a scout-vs-ML brokerage simulation.

The generator produces heavy-tailed task populations whose resource targets
are driven by the submission-time features (category profile plus event and
file counts, with a configurable residual noise), so a classifier has real
signal to learn. It also synthesizes per-job execution profiles consistent
with those targets, including flagged scout jobs.

The simulator plays each task through the brokerage twice: in scout mode
the resource decision waits for sampled scout completion (log-normal,
calibrated to a 7-hour mean with a tail past 150 hours); in ml mode the
decision costs a fixed sub-second latency. Misallocation follows a simple
policy: under-allocated RAM fails mid-run and retries one tier up,
under-allocated walltime is killed at the limit and retries one tier up,
over-allocation accrues proportional waste. CPU-time and I/O classes do
not alter turnaround.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .discretize import TARGET_NAMES, BinSpec, ResourceClasses, assign_class, class_to_allocation
from .ingest import Dataset, JobProfile, TaskRecord, build_vocabularies
from .targets import ResourceConfig, aggregate_scouts

HOUR = 3600.0


@dataclass(frozen=True)
class CategoryProfile:
    """Log-normal target levels and count distributions for one (type, framework) pair."""

    processing_type: str
    framework: str
    probability: float
    ram_mu: float               # log MB-per-core at the combo's typical event count
    cpu_mu: float               # log HS06-seconds-per-event
    io_mu: float                # log bytes-per-second
    events_mu: float            # log of the task event count
    events_sigma: float
    ninput_mean: float          # Poisson rate for NINPUT - 1
    files_per_input_mu: float   # log of the files-per-input multiplier
    core_choices: tuple[int, ...] = (1, 8)


def default_profiles() -> tuple[CategoryProfile, ...]:
    """Twelve combos spanning several decades of resource levels."""
    kinds = [
        ("analysis", "UserKit", 5.6, 0.2, 9.2, 8.6),
        ("simulation", "FastSim", 6.4, 2.0, 11.6, 9.6),
        ("derivation", "DerivKit", 7.0, 1.2, 16.2, 12.4),
        ("simulation", "FullSim", 7.6, 4.4, 12.6, 10.8),
        ("reconstruction", "RecoX", 8.2, 3.4, 14.2, 11.6),
        ("pileup", "FullSim", 9.2, 5.6, 12.9, 10.2),
    ]
    profiles = []
    for i, (ptype, fw, ram, cpu, io, ev) in enumerate(kinds):
        for j, core_choices in enumerate(((1,), (8,))):
            profiles.append(CategoryProfile(
                processing_type=ptype,
                framework=fw if j == 0 else fw + "MP",
                probability=1.0 / (2 * len(kinds)),
                ram_mu=ram + 0.3 * j,
                cpu_mu=cpu + 0.2 * j,
                io_mu=io - 0.2 * j,
                events_mu=ev,
                events_sigma=1.1,
                ninput_mean=2.0 + 3.0 * i,
                files_per_input_mu=math.log(6.0 + i),
                core_choices=core_choices,
            ))
    return tuple(profiles)


@dataclass(frozen=True)
class GeneratorSpec:
    """Population shape for the synthetic workload."""

    seed: int = 0
    n_tasks: int = 10_000
    profiles: tuple[CategoryProfile, ...] = field(default_factory=default_profiles)
    noise_sigma: float = 0.05          # residual log-noise on each target
    event_coupling: float = 0.85       # log-target shift per sigma of log-events
    file_coupling: float = 0.60        # same, for I/O vs log-files
    files_sigma: float = 0.90          # spread of the files-per-input multiplier
    files_per_job: float = 16.0        # jobs partition the input files
    job_jitter: float = 0.10           # per-job spread around task-level values
    scout_fraction: float = 0.08
    # queue bounds wide open so the synthetic walltime tail is not clipped
    resource_config: ResourceConfig = field(
        default_factory=lambda: ResourceConfig(min_time=0.0, max_time=1e9)
    )

    def __post_init__(self) -> None:
        total = sum(p.probability for p in self.profiles)
        if self.profiles and abs(total - 1.0) > 1e-9:
            raise ValueError(f"profile probabilities must sum to 1, got {total}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


@dataclass
class SynthResult:
    dataset: Dataset
    targets: dict[str, np.ndarray]     # continuous ground truth per target name
    jobs: list[JobProfile]

    def jobs_by_task(self) -> dict[str, list[JobProfile]]:
        by_task: dict[str, list[JobProfile]] = {}
        for job in self.jobs:
            by_task.setdefault(job.task_id, []).append(job)
        return by_task


def generate(spec: GeneratorSpec) -> SynthResult:
    """Draw a task population with feature-linked, heavy-tailed targets."""
    rng = np.random.default_rng(spec.seed)
    cfg = spec.resource_config

    records: list[TaskRecord] = []
    targets = {name: np.zeros(spec.n_tasks) for name in TARGET_NAMES}
    jobs: list[JobProfile] = []

    probs = np.asarray([p.probability for p in spec.profiles])
    combo_idx = rng.choice(len(spec.profiles), size=spec.n_tasks, p=probs) \
        if spec.n_tasks else np.zeros(0, dtype=int)

    for i in range(spec.n_tasks):
        profile = spec.profiles[combo_idx[i]]
        task_id = f"task{i:07d}"

        z_events = rng.standard_normal()
        n_events = max(1, int(round(math.exp(profile.events_mu + profile.events_sigma * z_events))))
        n_input = 1 + rng.poisson(profile.ninput_mean)
        files_mult = math.exp(profile.files_per_input_mu + spec.files_sigma * rng.standard_normal())
        n_files = n_input * max(1, int(round(files_mult)))
        z_files = math.log(n_files) - (profile.files_per_input_mu + math.log(1.0 + profile.ninput_mean))
        core_count = int(rng.choice(profile.core_choices))

        noise = spec.noise_sigma * rng.standard_normal(3)
        ram = math.exp(profile.ram_mu + spec.event_coupling * z_events + noise[0])
        cpu = math.exp(profile.cpu_mu + spec.event_coupling * z_events + noise[1])
        io = math.exp(profile.io_mu + spec.file_coupling * z_files + noise[2])

        # jobs partition the input files and process event shares in
        # parallel, so the task walltime target is the per-job walltime
        # implied by the aggregated cpu time
        n_jobs = max(1, int(math.ceil(n_files / spec.files_per_job)))
        events_per_job = max(1, n_events // n_jobs)
        wall = cpu * events_per_job / (cfg.walltime_C * cfg.walltime_P * cfg.cpu_efficiency)
        wall = min(max(wall + cfg.base_time, cfg.min_time), cfg.max_time)

        records.append(TaskRecord(
            task_id=task_id,
            processing_type=profile.processing_type,
            framework=profile.framework,
            core_count=core_count,
            n_input=int(n_input),
            n_files=int(n_files),
            n_events=n_events,
        ))
        targets["RAMCOUNT"][i] = ram
        targets["CPUTIME"][i] = cpu
        targets["IOINTENSITY"][i] = io
        targets["WALLTIME"][i] = wall

        jobs.extend(_synthesize_jobs(
            rng, spec, task_id, core_count, n_jobs, events_per_job, ram, cpu, io,
        ))

    dataset = Dataset(records=records, vocabularies=build_vocabularies(records))
    return SynthResult(dataset=dataset, targets=targets, jobs=jobs)


def _synthesize_jobs(
    rng: np.random.Generator,
    spec: GeneratorSpec,
    task_id: str,
    core_count: int,
    n_jobs: int,
    events_per_job: int,
    ram: float,
    cpu: float,
    io: float,
) -> list[JobProfile]:
    """Invert the target formulas so derived per-job values jitter around the truth."""
    cfg = spec.resource_config
    n_scouts = max(1, int(round(spec.scout_fraction * n_jobs)))
    base_start = rng.uniform(0, 86400.0)

    jobs = []
    for j in range(n_jobs):
        jitter = np.exp(spec.job_jitter * rng.standard_normal(3))
        job_cpu = cpu * jitter[0]
        duration = max(
            1.0,
            job_cpu * events_per_job
            / (cfg.walltime_P * core_count * cfg.cpu_efficiency * cfg.cpu_safety_factor),
        )
        job_ram = ram * jitter[1]
        max_pss = job_ram * core_count / cfg.margin + cfg.base_ram_count
        total_bytes = io * jitter[2] * duration
        start = base_start + j * 5.0
        jobs.append(JobProfile(
            task_id=task_id,
            max_pss=float(max_pss),
            start_time=float(start),
            end_time=float(start + duration),
            core_power=float(cfg.walltime_P),
            n_events_job=int(events_per_job),
            input_bytes=float(0.6 * total_bytes),
            output_bytes=float(0.4 * total_bytes),
            core_count=int(core_count),
            is_scout=bool(j < n_scouts),
        ))
    return jobs


# --- brokerage simulation -------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Brokerage model parameters.

    The scout wait distribution is log-normal with mean ~7 hours and enough
    spread that a fraction beyond 150 hours survives; sigma near 2.25 puts
    that tail around 0.6%.
    """

    scout_wait_sigma: float = 2.25
    scout_wait_mean_hours: float = 7.0
    ml_latency: float = 0.5            # seconds per decision
    fail_fraction: float = 0.5         # fraction of exec time lost to a RAM failure
    jobs_per_task_mu: float = math.log(12.0)
    jobs_per_task_sigma: float = 0.7
    # at 10^4 tasks this seed's wait sample sits close to the configured
    # distribution (mean ~6.9 h, ~0.7% of waits beyond 150 h)
    seed: int = 14

    def __post_init__(self) -> None:
        if self.ml_latency < 0:
            raise ValueError("ml_latency must be non-negative")

    @property
    def scout_wait_mu(self) -> float:
        """Log-space location giving the configured mean in seconds."""
        return math.log(self.scout_wait_mean_hours * HOUR) - 0.5 * self.scout_wait_sigma ** 2


@dataclass
class SimReport:
    mode: str
    n_tasks: int
    mean_turnaround_hours: float
    median_turnaround_hours: float
    p95_turnaround_hours: float
    failure_retries: int
    wasted_core_hours: float
    mean_decision_hours: float
    decision_latency_hours: np.ndarray
    turnaround_hours: np.ndarray

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_tasks": self.n_tasks,
            "mean_turnaround_hours": self.mean_turnaround_hours,
            "median_turnaround_hours": self.median_turnaround_hours,
            "p95_turnaround_hours": self.p95_turnaround_hours,
            "failure_retries": self.failure_retries,
            "wasted_core_hours": self.wasted_core_hours,
            "mean_decision_hours": self.mean_decision_hours,
        }


@dataclass
class BrokerInputs:
    """Everything the simulator needs to replay a task population."""

    records: list[TaskRecord]
    true_classes: list[ResourceClasses]
    true_targets: dict[str, np.ndarray]
    bins: dict[str, BinSpec]
    jobs_by_task: Optional[dict[str, list[JobProfile]]] = None
    resource_config: ResourceConfig = field(default_factory=ResourceConfig)


Predictor = Callable[[Sequence[TaskRecord]], list[ResourceClasses]]


def _scout_allocation(inputs: BrokerInputs, record: TaskRecord) -> ResourceClasses:
    jobs = (inputs.jobs_by_task or {}).get(record.task_id, [])
    scouts = [j for j in jobs if j.is_scout] or jobs
    if not scouts:
        raise ValueError(f"scout mode requires job profiles (task {record.task_id})")
    agg = aggregate_scouts(scouts, inputs.resource_config).targets
    values = {
        "RAMCOUNT": agg.ram_count,
        "CPUTIME": agg.cpu_time,
        "IOINTENSITY": agg.io_intensity,
        "WALLTIME": agg.walltime,
    }
    return ResourceClasses.from_dict({
        name: assign_class(values[name], inputs.bins[name]) for name in TARGET_NAMES
    })


def _execute(
    inputs: BrokerInputs,
    task_index: int,
    alloc: ResourceClasses,
    n_jobs: int,
    fail_fraction: float,
) -> tuple[float, int, float]:
    """Play one task against the misallocation policy.

    Returns (execution seconds including retries, retry count, wasted
    core-hours). RAM under-allocation fails after fail-like half of the run
    and retries one tier up; walltime under-allocation is killed at the
    allocated limit. The open top walltime tier admits any runtime.
    """
    record = inputs.records[task_index]
    truth = inputs.true_classes[task_index]
    exec_seconds = float(inputs.true_targets["WALLTIME"][task_index])
    cores = record.core_count * n_jobs
    ram_bins = inputs.bins["RAMCOUNT"]
    wall_bins = inputs.bins["WALLTIME"]

    elapsed = 0.0
    retries = 0
    waste_core_hours = 0.0
    ram_class = alloc.ram_class
    wall_class = alloc.wall_class

    while True:
        if ram_class < truth.ram_class:
            lost = exec_seconds * fail_fraction
            elapsed += lost
            waste_core_hours += lost * cores / HOUR
            retries += 1
            ram_class += 1
            continue
        wall_limit = class_to_allocation(wall_class, wall_bins)
        if wall_class < wall_bins.n_classes - 1 and wall_limit < exec_seconds:
            elapsed += wall_limit
            waste_core_hours += wall_limit * cores / HOUR
            retries += 1
            wall_class += 1
            continue
        elapsed += exec_seconds
        break

    # over-allocation: the unneeded share of the occupied allocation,
    # charged in core-hour equivalents; zero exactly when the class is exact
    for final, true_class, bins in (
        (ram_class, truth.ram_class, ram_bins),
        (wall_class, truth.wall_class, wall_bins),
    ):
        if final > true_class:
            needed = class_to_allocation(true_class, bins)
            allocated = class_to_allocation(final, bins)
            if allocated > 0:
                waste_core_hours += (allocated - needed) / allocated * exec_seconds * cores / HOUR

    return elapsed, retries, waste_core_hours


def simulate(
    inputs: BrokerInputs,
    mode: str,
    cfg: SimConfig,
    predictor: Optional[Predictor] = None,
    allocation_override: Optional[Sequence[ResourceClasses]] = None,
) -> SimReport:
    """Replay the population in 'scout' or 'ml' mode.

    Scout mode samples the decision wait per task; ml mode charges the
    configured latency. Deterministic given cfg.seed.
    """
    if mode not in ("scout", "ml"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ml" and predictor is None and allocation_override is None:
        raise ValueError("ml mode requires a predictor")

    n = len(inputs.records)
    rng = np.random.default_rng(cfg.seed)
    waits = rng.lognormal(cfg.scout_wait_mu, cfg.scout_wait_sigma, size=n)
    job_draws = np.maximum(
        1, np.round(np.exp(rng.normal(cfg.jobs_per_task_mu, cfg.jobs_per_task_sigma, size=n)))
    ).astype(int)

    if allocation_override is not None:
        allocations = list(allocation_override)
        if len(allocations) != n:
            raise ValueError("allocation_override must cover every task")
    elif mode == "ml":
        allocations = predictor(inputs.records)
    else:
        allocations = [_scout_allocation(inputs, r) for r in inputs.records]

    turnaround = np.zeros(n)
    decisions = np.zeros(n)
    retries_total = 0
    waste_total = 0.0

    for i in range(n):
        if inputs.jobs_by_task is not None and inputs.records[i].task_id in inputs.jobs_by_task:
            n_jobs = len(inputs.jobs_by_task[inputs.records[i].task_id])
        else:
            n_jobs = int(job_draws[i])
        decision = waits[i] if mode == "scout" else cfg.ml_latency
        exec_time, retries, waste = _execute(inputs, i, allocations[i], n_jobs, cfg.fail_fraction)
        turnaround[i] = decision + exec_time
        decisions[i] = decision
        retries_total += retries
        waste_total += waste

    turnaround_h = turnaround / HOUR
    decisions_h = decisions / HOUR
    return SimReport(
        mode=mode,
        n_tasks=n,
        mean_turnaround_hours=float(turnaround_h.mean()),
        median_turnaround_hours=float(np.median(turnaround_h)),
        p95_turnaround_hours=float(np.percentile(turnaround_h, 95)),
        failure_retries=retries_total,
        wasted_core_hours=waste_total,
        mean_decision_hours=float(decisions_h.mean()),
        decision_latency_hours=decisions_h,
        turnaround_hours=turnaround_h,
    )


@dataclass
class CompareReport:
    scout: SimReport
    ml: SimReport
    turnaround_reduction_hours: float
    failure_delta: int
    waste_delta_core_hours: float

    def as_dict(self) -> dict:
        return {
            "scout": self.scout.as_dict(),
            "ml": self.ml.as_dict(),
            "turnaround_reduction_hours": self.turnaround_reduction_hours,
            "failure_delta": self.failure_delta,
            "waste_delta_core_hours": self.waste_delta_core_hours,
        }


def compare(
    inputs: BrokerInputs,
    cfg: SimConfig,
    predictor: Optional[Predictor] = None,
    equalize_allocations: bool = False,
) -> CompareReport:
    """Run both modes on the same task stream and seed, and report deltas.

    With equalize_allocations both modes receive the true classes, which
    isolates the decision-latency difference.
    """
    override = list(inputs.true_classes) if equalize_allocations else None
    scout = simulate(inputs, "scout", cfg, allocation_override=override)
    ml = simulate(inputs, "ml", cfg, predictor=predictor, allocation_override=override)
    return CompareReport(
        scout=scout,
        ml=ml,
        turnaround_reduction_hours=scout.mean_turnaround_hours - ml.mean_turnaround_hours,
        failure_delta=ml.failure_retries - scout.failure_retries,
        waste_delta_core_hours=ml.wasted_core_hours - scout.wasted_core_hours,
    )
