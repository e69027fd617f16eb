"""Synthetic population generator and brokerage simulation."""

import dataclasses
import warnings

import numpy as np
import pytest

from respred import simsynth
from respred.discretize import ResourceClasses, assign_class, class_to_allocation, classes_to_resource_classes
from respred.pipeline import fit_all_bins, label_dataset
from respred.simsynth import (
    HOUR,
    BrokerInputs,
    GeneratorSpec,
    SimConfig,
    compare,
    generate,
    simulate,
)
from respred.targets import aggregate_scouts

TARGETS = ("RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME")


def small_inputs(n_tasks=300, seed=4):
    synth = generate(GeneratorSpec(seed=seed, n_tasks=n_tasks))
    bins = fit_all_bins(synth.targets)
    labeled = label_dataset(synth.dataset, synth.targets, bins)
    true_classes = [
        ResourceClasses(
            ram_class=int(labeled.labels["RAMCOUNT"][i]),
            cpu_class=int(labeled.labels["CPUTIME"][i]),
            io_class=int(labeled.labels["IOINTENSITY"][i]),
            wall_class=int(labeled.labels["WALLTIME"][i]),
        )
        for i in range(len(labeled))
    ]
    return BrokerInputs(
        records=labeled.records,
        true_classes=true_classes,
        true_targets=synth.targets,
        bins=bins,
        jobs_by_task=synth.jobs_by_task(),
        resource_config=GeneratorSpec().resource_config,
    ), synth


def perfect_predictor(inputs):
    lookup = {r.task_id: c for r, c in zip(inputs.records, inputs.true_classes)}
    return lambda records: [lookup[r.task_id] for r in records]


def shifted_predictor(inputs, field, delta):
    lookup = {r.task_id: c for r, c in zip(inputs.records, inputs.true_classes)}
    top = inputs.bins[field].n_classes - 1

    def predict(records):
        out = []
        for r in records:
            d = lookup[r.task_id].as_dict()
            d[field] = int(np.clip(d[field] + delta, 0, top))
            out.append(ResourceClasses.from_dict(d))
        return out

    return predict


# --- generator


def test_generate_empty():
    res = generate(GeneratorSpec(seed=0, n_tasks=0))
    assert len(res.dataset) == 0
    assert res.jobs == []


def test_generate_deterministic():
    a = generate(GeneratorSpec(seed=5, n_tasks=100))
    b = generate(GeneratorSpec(seed=5, n_tasks=100))
    assert a.dataset.records == b.dataset.records
    assert a.jobs == b.jobs
    for t in TARGETS:
        assert np.array_equal(a.targets[t], b.targets[t])


def test_generate_respects_record_invariants():
    res = generate(GeneratorSpec(seed=2, n_tasks=500))
    for rec in res.dataset.records:
        assert rec.validate() is None
    for job in res.jobs:
        assert job.validate() is None


def test_generate_heavy_tails_at_scale():
    res = generate(GeneratorSpec(seed=1, n_tasks=100_000))
    for name in ("RAMCOUNT", "CPUTIME", "WALLTIME"):
        v = res.targets[name]
        skew = float(((v - v.mean()) ** 3).mean() / v.std() ** 3)
        assert skew > 2, name
        assert v.max() / np.median(v) > 100, name
    io = res.targets["IOINTENSITY"]
    assert float(((io - io.mean()) ** 3).mean() / io.std() ** 3) > 2
    assert io.max() / np.median(io) > 100


def test_generate_every_task_has_a_scout():
    res = generate(GeneratorSpec(seed=3, n_tasks=50))
    by_task = res.jobs_by_task()
    assert set(by_task) == {r.task_id for r in res.dataset.records}
    for jobs in by_task.values():
        assert any(j.is_scout for j in jobs)


def test_generate_scout_derivations_near_truth():
    spec = GeneratorSpec(seed=6, n_tasks=80)
    res = generate(spec)
    by_task = res.jobs_by_task()
    ids = [r.task_id for r in res.dataset.records]
    ram_err = []
    for i, task_id in enumerate(ids):
        scouts = [j for j in by_task[task_id] if j.is_scout]
        agg = aggregate_scouts(scouts, spec.resource_config)
        ram_err.append(abs(np.log(agg.targets.ram_count / res.targets["RAMCOUNT"][i])))
    # 75th percentile of jittered per-scout values stays within ~2 jitter sigmas
    assert np.median(ram_err) < 3 * spec.job_jitter


# --- simulation


def test_ml_mode_perfect_predictor_zero_latency():
    inputs, _ = small_inputs()
    cfg = SimConfig(seed=1, ml_latency=0.0)
    report = simulate(inputs, "ml", cfg, predictor=perfect_predictor(inputs))
    expected = inputs.true_targets["WALLTIME"] / 3600.0
    assert report.failure_retries == 0
    assert report.wasted_core_hours == 0.0
    assert np.allclose(report.turnaround_hours, expected)


def test_scout_mode_fixed_wait_delta(monkeypatch):
    inputs, _ = small_inputs()
    # degenerate wait distribution: sigma 0 pins every wait at the 7-hour mean
    monkeypatch.setattr(SimConfig, "scout_wait_sigma", 0.0)
    cfg = SimConfig(seed=2, ml_latency=0.5)
    override = list(inputs.true_classes)
    scout = simulate(inputs, "scout", cfg, allocation_override=override)
    ml = simulate(inputs, "ml", cfg, allocation_override=override)
    delta = scout.mean_turnaround_hours - ml.mean_turnaround_hours
    assert delta == pytest.approx(7.0 - 0.5 / 3600.0, rel=1e-9)


def test_ml_mode_requires_predictor():
    inputs, _ = small_inputs(n_tasks=10)
    with pytest.raises(ValueError, match="predictor"):
        simulate(inputs, "ml", SimConfig())


@pytest.mark.parametrize("delta", [-1, +1])
def test_ml_mode_refuses_predictor_output_of_wrong_length(delta):
    inputs, _ = small_inputs(n_tasks=20)
    perfect = perfect_predictor(inputs)

    def short_or_long(records):
        classes = perfect(records)
        return classes[:delta] if delta < 0 else classes + classes[:delta]

    with pytest.raises(ValueError, match=f"predictor .*short_or_long returned {20 + delta} classes for 20 "):
        simulate(inputs, "ml", SimConfig(), predictor=short_or_long)


def test_scout_mode_requires_jobs():
    inputs, _ = small_inputs(n_tasks=10)
    inputs.jobs_by_task = None
    with pytest.raises(ValueError, match="job profiles"):
        simulate(inputs, "scout", SimConfig())


def classes_of(targets, bins):
    return ResourceClasses(
        ram_class=assign_class(targets.ram_count, bins["RAMCOUNT"]),
        cpu_class=assign_class(targets.cpu_time, bins["CPUTIME"]),
        io_class=assign_class(targets.io_intensity, bins["IOINTENSITY"]),
        wall_class=assign_class(targets.walltime, bins["WALLTIME"]),
    )


def scout_allocations(inputs, monkeypatch):
    """The allocation that scout-mode simulation plays for each task, in record order."""
    seen = []
    allocations = simsynth._scout_allocations

    def spy(inputs):
        seen.append(allocations(inputs))
        return seen[-1]

    monkeypatch.setattr(simsynth, "_scout_allocations", spy)
    simulate(inputs, "scout", SimConfig(seed=5))
    return classes_to_resource_classes(seen[0])


def test_scout_allocations_equal_per_task_oracle(monkeypatch):
    inputs, _ = small_inputs(n_tasks=200, seed=9)
    # a task with no flagged scout falls back to all of its jobs; its jobs after
    # the first are made larger so that the fallback shows in its RAM class
    fallback_id = next(r.task_id for r in inputs.records if len(inputs.jobs_by_task[r.task_id]) >= 4)
    inputs.jobs_by_task[fallback_id] = [
        dataclasses.replace(j, is_scout=False, max_pss=j.max_pss * (50 if k else 1))
        for k, j in enumerate(inputs.jobs_by_task[fallback_id])
    ]
    expected = []
    for record in inputs.records:
        jobs = inputs.jobs_by_task[record.task_id]
        agg = aggregate_scouts([j for j in jobs if j.is_scout] or jobs, inputs.resource_config)
        expected.append(classes_of(agg.targets, inputs.bins))
    assert scout_allocations(inputs, monkeypatch) == expected


def test_scout_mode_drops_zero_event_scout(monkeypatch):
    inputs, _ = small_inputs(n_tasks=200, seed=9)
    # three flagged scouts, one of them with no events and a RAM peak that
    # would lift the task out of the lowest RAM class if it were aggregated
    index, record = next(
        (i, r) for i, r in enumerate(inputs.records)
        if len(inputs.jobs_by_task[r.task_id]) >= 4 and inputs.true_classes[i].ram_class == 0
    )
    jobs = [dataclasses.replace(j, is_scout=k < 3) for k, j in enumerate(inputs.jobs_by_task[record.task_id])]
    jobs[2] = dataclasses.replace(jobs[2], n_events_job=0, max_pss=jobs[2].max_pss * 50)
    inputs.jobs_by_task[record.task_id] = jobs
    expected = classes_of(aggregate_scouts(jobs[:2], inputs.resource_config).targets, inputs.bins)
    assert expected.ram_class == 0
    assert scout_allocations(inputs, monkeypatch)[index] == expected


def test_scout_mode_falls_back_to_usable_jobs_as_derive_does(monkeypatch):
    inputs, _ = small_inputs(n_tasks=200, seed=9)
    # both flagged scouts lack events; the task's other jobs are usable
    index, record = next((i, r) for i, r in enumerate(inputs.records) if len(inputs.jobs_by_task[r.task_id]) >= 4)
    jobs = [dataclasses.replace(j, is_scout=k < 2, n_events_job=0 if k < 2 else j.n_events_job)
            for k, j in enumerate(inputs.jobs_by_task[record.task_id])]
    inputs.jobs_by_task[record.task_id] = jobs
    expected = classes_of(aggregate_scouts(jobs[2:], inputs.resource_config).targets, inputs.bins)
    assert scout_allocations(inputs, monkeypatch)[index] == expected


def reference_execute(inputs, task_index, alloc, n_jobs, fail_fraction):
    """One task replayed against the misallocation policy, a retry at a time: the oracle for the tier rounds."""
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


def noisy_predictor(inputs, seed):
    """Moves each class of each task one tier either way, or keeps it, with probability 0.3."""
    rng = np.random.default_rng(seed)
    lookup = {r.task_id: c for r, c in zip(inputs.records, inputs.true_classes)}

    def predict(records):
        out = []
        for r in records:
            d = lookup[r.task_id].as_dict()
            for t in TARGETS:
                if rng.random() < 0.3:
                    d[t] = int(np.clip(d[t] + rng.integers(-1, 2), 0, inputs.bins[t].n_classes - 1))
            out.append(ResourceClasses.from_dict(d))
        return out

    return predict


@pytest.mark.parametrize("case", [
    "scout", "perfect", "RAMCOUNT-1", "RAMCOUNT+1", "WALLTIME-1", "WALLTIME+1", "noisy",
])
def test_tier_rounds_equal_per_task_oracle(case, monkeypatch):
    inputs, _ = small_inputs()
    if case == "scout":
        mode, kwargs, allocations = "scout", {}, scout_allocations(inputs, monkeypatch)
    else:
        if case == "perfect":
            base = perfect_predictor(inputs)
        elif case == "noisy":
            base = noisy_predictor(inputs, seed=8)
        else:
            base = shifted_predictor(inputs, case[:-2], int(case[-2:]))
        allocations = []

        def predictor(records):
            allocations.extend(base(records))
            return allocations

        mode, kwargs = "ml", {"predictor": predictor}
    played = []
    execute = simsynth._execute

    def spy(*args):
        played.append(execute(*args))
        return played[-1]

    monkeypatch.setattr(simsynth, "_execute", spy)
    report = simulate(inputs, mode, SimConfig(seed=3), **kwargs)

    (elapsed, retries, waste), = played
    expected = [
        reference_execute(inputs, i, alloc, len(inputs.jobs_by_task[r.task_id]), SimConfig.fail_fraction)
        for i, (r, alloc) in enumerate(zip(inputs.records, allocations))
    ]
    assert elapsed.tolist() == [e for e, _, _ in expected]
    assert retries.tolist() == [n for _, n, _ in expected]
    assert waste.tolist() == [w for _, _, w in expected]
    assert report.failure_retries == sum(n for _, n, _ in expected)
    total = 0.0
    for _, _, w in expected:
        total += w
    assert report.wasted_core_hours == total


def test_empty_population_is_refused_before_any_draw():
    inputs, _ = small_inputs(n_tasks=10)
    empty = dataclasses.replace(inputs, records=[], true_classes=[],
                                true_targets={t: np.zeros(0) for t in TARGETS})
    cfg = SimConfig()
    calls = (
        lambda: simulate(empty, "scout", cfg),
        lambda: simulate(empty, "ml", cfg, predictor=perfect_predictor(empty)),
        lambda: compare(empty, cfg, predictor=perfect_predictor(empty)),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty task population"):
                call()


def test_simulation_deterministic():
    inputs, _ = small_inputs(n_tasks=100)
    a = simulate(inputs, "scout", SimConfig(seed=3))
    b = simulate(inputs, "scout", SimConfig(seed=3))
    assert a.as_dict() == b.as_dict()
    assert np.array_equal(a.turnaround_hours, b.turnaround_hours)


def test_under_predicted_ram_fails_and_retries():
    inputs, _ = small_inputs()
    cfg = SimConfig(seed=4)
    under = simulate(inputs, "ml", cfg, predictor=shifted_predictor(inputs, "RAMCOUNT", -1))
    exact = simulate(inputs, "ml", cfg, predictor=perfect_predictor(inputs))
    assert under.failure_retries > exact.failure_retries
    assert under.wasted_core_hours > exact.wasted_core_hours
    assert under.mean_turnaround_hours > exact.mean_turnaround_hours


def test_over_predicted_ram_wastes_without_failures():
    inputs, _ = small_inputs()
    cfg = SimConfig(seed=5)
    over = simulate(inputs, "ml", cfg, predictor=shifted_predictor(inputs, "RAMCOUNT", +1))
    assert over.failure_retries == 0
    assert over.wasted_core_hours > 0


def test_under_predicted_walltime_killed_and_retried():
    inputs, _ = small_inputs()
    cfg = SimConfig(seed=6)
    under = simulate(inputs, "ml", cfg, predictor=shifted_predictor(inputs, "WALLTIME", -1))
    assert under.failure_retries > 0
    assert under.mean_turnaround_hours > simulate(
        inputs, "ml", cfg, predictor=perfect_predictor(inputs)
    ).mean_turnaround_hours


def test_perfect_predictor_is_lower_bound():
    inputs, _ = small_inputs(n_tasks=150)
    cfg = SimConfig(seed=7, ml_latency=0.2)
    best = simulate(inputs, "ml", cfg, predictor=perfect_predictor(inputs))
    rng = np.random.default_rng(8)
    for trial in range(4):
        def noisy(records, rng=rng):
            lookup = {r.task_id: c for r, c in zip(inputs.records, inputs.true_classes)}
            out = []
            for r in records:
                d = lookup[r.task_id].as_dict()
                for t in TARGETS:
                    if rng.random() < 0.3:
                        hi = inputs.bins[t].n_classes - 1
                        d[t] = int(np.clip(d[t] + rng.integers(-1, 2), 0, hi))
                out.append(ResourceClasses.from_dict(d))
            return out
        noisy_report = simulate(inputs, "ml", cfg, predictor=noisy)
        assert noisy_report.mean_turnaround_hours >= best.mean_turnaround_hours - 1e-12


def test_turnaround_at_least_execution():
    inputs, _ = small_inputs(n_tasks=100)
    report = simulate(inputs, "scout", SimConfig(seed=9))
    exec_hours = inputs.true_targets["WALLTIME"] / 3600.0
    assert (report.turnaround_hours >= exec_hours - 1e-12).all()


def test_wasted_core_hours_zero_iff_exact_classes():
    inputs, _ = small_inputs(n_tasks=60)
    cfg = SimConfig(seed=10)
    exact = simulate(inputs, "ml", cfg, predictor=perfect_predictor(inputs))
    assert exact.wasted_core_hours == 0.0
    for field, delta in (("RAMCOUNT", 1), ("WALLTIME", 1), ("RAMCOUNT", -1)):
        shifted = simulate(inputs, "ml", cfg, predictor=shifted_predictor(inputs, field, delta))
        assert shifted.wasted_core_hours > 0.0, (field, delta)


# --- compare


def test_compare_equalized_isolates_decision_latency():
    inputs, _ = small_inputs(n_tasks=200)
    cfg = SimConfig(seed=11, ml_latency=0.5)
    result = compare(inputs, cfg, equalize_allocations=True)
    expected = result.scout.mean_decision_hours - cfg.ml_latency / 3600.0
    assert result.turnaround_reduction_hours == pytest.approx(expected, rel=1e-9)
    assert result.failure_delta == 0
    assert result.waste_delta_core_hours == 0.0


def test_compare_under_predicting_ml_shows_more_failures():
    inputs, _ = small_inputs(n_tasks=150)
    cfg = SimConfig(seed=12)
    result = compare(inputs, cfg, predictor=shifted_predictor(inputs, "RAMCOUNT", -1))
    assert result.ml.failure_retries > result.scout.failure_retries
    assert result.failure_delta > 0


def test_compare_runs_same_stream_both_modes():
    inputs, _ = small_inputs(n_tasks=100)
    result = compare(inputs, SimConfig(seed=13), equalize_allocations=True)
    # identical allocations and per-task execution: only decisions differ
    per_task_delta = result.scout.turnaround_hours - result.ml.turnaround_hours
    decisions = result.scout.decision_latency_hours - result.ml.decision_latency_hours
    assert np.allclose(per_task_delta, decisions)


# --- classes entering the simulator


@pytest.mark.parametrize("form", ["list", "array"])
@pytest.mark.parametrize("route", ["predictor", "allocation_override", "true_classes"])
@pytest.mark.parametrize("target", ["RAMCOUNT", "WALLTIME"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_classes_outside_their_bins_are_refused(form, route, target, side, monkeypatch):
    inputs, _ = small_inputs(n_tasks=20)
    classes = np.asarray(inputs.true_classes)
    classes[3, TARGETS.index(target)] = -1 if side == "below" else inputs.bins[target].n_classes
    given = [ResourceClasses._make(row) for row in classes.tolist()] if form == "list" else classes
    if route == "predictor":
        kwargs = {"predictor": lambda records: given}
    elif route == "allocation_override":
        kwargs = {"allocation_override": given}
    else:
        kwargs = {"allocation_override": inputs.true_classes}
        inputs = dataclasses.replace(inputs, true_classes=given)
    played = []
    monkeypatch.setattr(simsynth, "_execute", lambda *args: played.append(args))
    # a class of -1 would otherwise read the top tier's allocation value
    with pytest.raises(ValueError, match=f"{route}.*{target} class outside"):
        simulate(inputs, "ml", SimConfig(), **kwargs)
    assert played == []


def test_classes_that_are_not_an_n_by_4_int_array_are_refused():
    inputs, _ = small_inputs(n_tasks=20)
    classes = np.asarray(inputs.true_classes)
    for bad in (classes.astype(float), classes[:, :3], [row[:3] for row in inputs.true_classes]):
        with pytest.raises(ValueError, match=r"allocation_override must be ResourceClasses or an \(n, 4\) int"):
            simulate(inputs, "ml", SimConfig(), allocation_override=bad)
