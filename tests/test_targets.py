"""Target-derivation arithmetic against independent one-line oracles."""

import math

import numpy as np
import pytest

from respred.ingest import JobProfile
from respred.targets import (
    ResourceConfig,
    UndefinedTargetError,
    aggregate_scouts,
    cpu_filter_passes,
    derive_cpu_time,
    derive_io_intensity,
    derive_ram_count,
    derive_tasks,
    derive_walltime,
    _percentile,
)


def make_job(
    max_pss=8000.0,
    start=0.0,
    end=3600.0,
    power=10.0,
    events=1000,
    in_bytes=1e9,
    out_bytes=1e9,
    cores=4,
    scout=True,
    task_id="t1",
):
    return JobProfile(
        task_id=task_id,
        max_pss=max_pss,
        start_time=start,
        end_time=end,
        core_power=power,
        n_events_job=events,
        input_bytes=in_bytes,
        output_bytes=out_bytes,
        core_count=cores,
        is_scout=scout,
    )


# --- independent oracles (kept deliberately separate from the implementation)


def oracle_ram(max_pss, base, cores, margin, floor):
    return max((max_pss - base) / cores * margin, floor)


def oracle_cpu(start, end, base_time, power, events, cores, eff, factor):
    return max(0.0, end - start - base_time) * power / events * cores * eff * factor


def oracle_io(in_bytes, out_bytes, start, end):
    return (in_bytes + out_bytes) / (end - start)


def oracle_wall(cpu, events, c, p, eff, base_time, lo, hi):
    w = cpu * events / (c * p * eff) + base_time
    return min(max(w, lo), hi)


def oracle_percentile(values, q):
    """Linear interpolation between closest ranks, written from the definition."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def test_ram_count_direct():
    cfg = ResourceConfig(base_ram_count=0, margin=1.0, min_ram_count=500)
    job = make_job(max_pss=8000, cores=8)
    assert derive_ram_count(job, cfg) == 1000.0


def test_ram_count_floor():
    cfg = ResourceConfig(base_ram_count=0, margin=1.0, min_ram_count=500)
    job = make_job(max_pss=100, cores=4)
    assert derive_ram_count(job, cfg) == 500.0


def test_cpu_time_direct():
    cfg = ResourceConfig(base_time=0, cpu_efficiency=0.9, cpu_safety_factor=1.5)
    job = make_job(start=0, end=3600, power=10, events=1000, cores=4)
    assert derive_cpu_time(job, cfg) == pytest.approx(194.4, rel=1e-12)


def test_cpu_time_negative_duration_clamps():
    cfg = ResourceConfig(base_time=5000.0)
    job = make_job(start=0, end=3600)
    assert derive_cpu_time(job, cfg) == 0.0


def test_cpu_time_zero_events_rejected():
    job = make_job(events=0)
    with pytest.raises(UndefinedTargetError):
        derive_cpu_time(job, ResourceConfig())


def test_io_intensity_direct():
    job = make_job(in_bytes=1e9, out_bytes=1e9, start=0, end=2000)
    assert derive_io_intensity(job) == pytest.approx(1e6, rel=1e-12)


def test_io_intensity_zero_bytes():
    job = make_job(in_bytes=0, out_bytes=0)
    assert derive_io_intensity(job) == 0.0


def test_io_intensity_zero_duration_rejected():
    job = make_job(start=100, end=100)
    with pytest.raises(UndefinedTargetError):
        derive_io_intensity(job)


def test_walltime_direct():
    cfg = ResourceConfig(walltime_C=4, walltime_P=10, cpu_efficiency=0.9,
                         base_time=0, min_time=0, max_time=1e9)
    assert derive_walltime(194.4, 1000, cfg) == pytest.approx(5400.0, rel=1e-12)


def test_walltime_clamps_low():
    cfg = ResourceConfig(walltime_C=4, walltime_P=10, min_time=600, max_time=1e9)
    assert derive_walltime(0.001, 1, cfg) == 600.0


def test_walltime_clamps_high():
    cfg = ResourceConfig(walltime_C=1, walltime_P=1, min_time=0, max_time=100.0)
    assert derive_walltime(1e6, 1e6, cfg) == 100.0


def test_formulas_match_oracles_on_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        cfg = ResourceConfig(
            base_ram_count=rng.uniform(0, 500),
            min_ram_count=rng.uniform(100, 2000),
            margin=rng.uniform(0.5, 12),
            base_time=rng.uniform(0, 600),
            cpu_efficiency=rng.uniform(0.5, 1.0),
            cpu_safety_factor=rng.uniform(1.0, 2.0),
            walltime_C=rng.uniform(0.5, 8),
            walltime_P=rng.uniform(1, 20),
            min_time=rng.uniform(0, 1000),
            max_time=rng.uniform(1e5, 1e7),
        )
        start = rng.uniform(0, 1e6)
        job = make_job(
            max_pss=rng.uniform(0, 64000),
            start=start,
            end=start + rng.uniform(1, 1e5),
            power=rng.uniform(5, 30),
            events=int(rng.integers(1, 10**6)),
            in_bytes=rng.uniform(0, 1e12),
            out_bytes=rng.uniform(0, 1e12),
            cores=int(rng.integers(1, 64)),
        )

        ram = derive_ram_count(job, cfg)
        assert ram == pytest.approx(
            oracle_ram(job.max_pss, cfg.base_ram_count, job.core_count, cfg.margin, cfg.min_ram_count),
            rel=1e-9,
        )
        cpu = derive_cpu_time(job, cfg)
        expected_cpu = oracle_cpu(
            job.start_time, job.end_time, cfg.base_time, job.core_power,
            job.n_events_job, job.core_count, cfg.cpu_efficiency, cfg.cpu_safety_factor,
        )
        assert cpu == pytest.approx(expected_cpu, rel=1e-9, abs=1e-12)
        io = derive_io_intensity(job)
        assert io == pytest.approx(
            oracle_io(job.input_bytes, job.output_bytes, job.start_time, job.end_time), rel=1e-9
        )
        wall = derive_walltime(cpu, job.n_events_job, cfg)
        assert wall == pytest.approx(
            oracle_wall(cpu, job.n_events_job, cfg.walltime_C, cfg.walltime_P,
                        cfg.cpu_efficiency, cfg.base_time, cfg.min_time, cfg.max_time),
            rel=1e-9,
        )


def test_ram_monotone_in_max_pss():
    cfg = ResourceConfig()
    values = [derive_ram_count(make_job(max_pss=m), cfg) for m in np.linspace(0, 32000, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cpu_monotone_in_duration():
    cfg = ResourceConfig()
    values = [derive_cpu_time(make_job(end=e), cfg) for e in np.linspace(10, 1e5, 50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_io_scales_with_bytes():
    a = derive_io_intensity(make_job(in_bytes=3e8, out_bytes=7e8))
    b = derive_io_intensity(make_job(in_bytes=6e8, out_bytes=14e8))
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_walltime_always_within_bounds():
    rng = np.random.default_rng(3)
    cfg = ResourceConfig(min_time=600, max_time=86400)
    for _ in range(200):
        w = derive_walltime(rng.uniform(0, 1e4), rng.integers(1, 10**7), cfg)
        assert cfg.min_time <= w <= cfg.max_time


# --- scout aggregation


def scouts_with_ram(ram_gb, cfg):
    # invert the ram formula so derived ram equals the requested GB values
    return [
        make_job(max_pss=r * 1024 * 4 / cfg.margin + cfg.base_ram_count, cores=4, task_id=f"s{i}")
        for i, r in enumerate(ram_gb)
    ]


@pytest.mark.parametrize("q", [50.0, 75.0, 95.0])
def test_percentile_equals_numpy_linear(q):
    rng = np.random.default_rng(int(q))
    specials = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0])
    for _ in range(2000):
        n = int(rng.integers(1, 41))
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 12)
        if rng.random() < 0.3:                       # ties
            values = rng.choice(values[: max(1, n // 3)], size=n)
        if rng.random() < 0.1:
            values[rng.integers(0, n, size=2)] = rng.choice(specials, size=2)
        with np.errstate(invalid="ignore"):
            expected = float(np.percentile(values, q))
        got = _percentile(values.tolist(), q)
        assert got == expected or (math.isnan(got) and math.isnan(expected)), (values.tolist(), q)


def test_aggregate_75th_percentile_ram():
    cfg = ResourceConfig(min_ram_count=0.0, margin=2.0)
    scouts = scouts_with_ram([1, 2, 3, 4], cfg)
    agg = aggregate_scouts(scouts, cfg)
    assert agg.targets.ram_count == pytest.approx(3.25 * 1024, rel=1e-12)
    assert agg.targets.ram_count == pytest.approx(
        oracle_percentile([derive_ram_count(s, cfg) for s in scouts], 75), rel=1e-12
    )


def test_aggregate_single_scout_equals_its_values():
    cfg = ResourceConfig()
    scout = make_job()
    agg = aggregate_scouts([scout], cfg)
    assert agg.targets.ram_count == derive_ram_count(scout, cfg)
    assert agg.targets.cpu_time == derive_cpu_time(scout, cfg)
    assert agg.targets.io_intensity == derive_io_intensity(scout)
    assert not agg.cpu_fallback_all


def test_aggregate_cpu_filter_fallback():
    cfg = ResourceConfig()
    # 8 events < 10 * 4 cores and duration below 6 h: filter rejects everything
    scouts = [make_job(events=8, end=3600.0, task_id=f"s{i}") for i in range(3)]
    assert not any(cpu_filter_passes(s) for s in scouts)
    agg = aggregate_scouts(scouts, cfg)
    assert agg.cpu_fallback_all
    assert agg.n_cpu_scouts == 3


def test_aggregate_cpu_filter_duration_gate():
    job = make_job(events=8, end=6.5 * 3600.0)
    assert cpu_filter_passes(job)


def test_aggregate_95th_percentile_with_filter():
    cfg = ResourceConfig()
    passing = [make_job(events=1000 + i, task_id=f"p{i}") for i in range(10)]
    failing = [make_job(events=5, end=100.0, task_id=f"f{i}") for i in range(5)]
    agg = aggregate_scouts(passing + failing, cfg)
    expected = oracle_percentile([derive_cpu_time(s, cfg) for s in passing], 95)
    assert agg.targets.cpu_time == pytest.approx(expected, rel=1e-12)
    assert agg.n_cpu_scouts == 10


def test_aggregate_permutation_invariant():
    cfg = ResourceConfig()
    rng = np.random.default_rng(11)
    scouts = [
        make_job(
            max_pss=rng.uniform(100, 32000),
            end=rng.uniform(100, 1e5),
            events=int(rng.integers(1, 10000)),
            in_bytes=rng.uniform(0, 1e10),
            out_bytes=rng.uniform(0, 1e10),
            cores=int(rng.integers(1, 16)),
            task_id=f"s{i}",
        )
        for i in range(20)
    ]
    base = aggregate_scouts(scouts, cfg)
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(len(scouts)))
        shuffled = aggregate_scouts([scouts[i] for i in perm], cfg)
        assert shuffled.targets == base.targets


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_scouts([], ResourceConfig())


def test_derive_tasks_equals_aggregate_on_usable_scouts():
    cfg = ResourceConfig()
    flagged = [make_job(max_pss=9000.0 + 700 * k, end=3000.0 + 100 * k, scout=k < 3, task_id="a")
               for k in range(6)]
    zero_events = make_job(max_pss=400000.0, events=0, task_id="a")
    zero_duration = make_job(max_pss=400000.0, end=0.0, task_id="a")
    # 8 events < 10 * 4 cores and under 6 h: the CPU filter falls back to all
    unflagged = [make_job(max_pss=4000.0 * (k + 1), events=8, scout=False, task_id="b") for k in range(3)]
    jobs_by_task = {
        "a": flagged + [zero_events, zero_duration],
        "b": unflagged,
        # its one flagged scout has no events and its other job no duration
        "c": [make_job(events=0, task_id="c"), make_job(end=0.0, scout=False, task_id="c")],
    }
    ids = ["b", "absent", "a", "c"]
    usable = {
        False: {"a": flagged[:3], "b": unflagged},
        True: {"a": flagged, "b": unflagged},
    }
    for all_jobs, expected in usable.items():
        values, n_scouts, fallback = derive_tasks(jobs_by_task, ids, cfg, all_jobs=all_jobs)
        assert list(values) == ["RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME"]
        for i, task_id in enumerate(ids):
            got = [v[i] for v in values.values()]
            if task_id not in expected:
                assert all(math.isnan(v) for v in got) and n_scouts[i] == 0 and not fallback[i], task_id
                continue
            agg = aggregate_scouts(expected[task_id], cfg)
            t = agg.targets
            assert got == [t.ram_count, t.cpu_time, t.io_intensity, t.walltime], (all_jobs, task_id)
            assert (n_scouts[i], fallback[i]) == (agg.n_scouts, agg.cpu_fallback_all), (all_jobs, task_id)
    assert fallback.tolist() == [True, False, False, False]


def test_derive_tasks_falls_back_to_usable_jobs_when_no_flagged_scout_is():
    cfg = ResourceConfig()
    unflagged = [make_job(max_pss=5000.0 * (k + 1), scout=False, task_id="d") for k in range(3)]
    jobs = [make_job(events=0, task_id="d"), make_job(end=0.0, task_id="d"), *unflagged]
    t = aggregate_scouts(unflagged, cfg).targets
    for all_jobs in (False, True):
        values, n_scouts, _ = derive_tasks({"d": jobs}, ["d"], cfg, all_jobs=all_jobs)
        assert [v[0] for v in values.values()] == [t.ram_count, t.cpu_time, t.io_intensity, t.walltime]
        assert n_scouts.tolist() == [3]
