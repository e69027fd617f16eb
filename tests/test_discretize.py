"""Quantile binning, class assignment and allocation mapping."""

import math

import numpy as np
import pytest

from respred.discretize import (
    TARGET_CLASS_COUNTS,
    TARGET_NAMES,
    TARGET_REGISTRY,
    BinSpec,
    BinningError,
    ResourceClasses,
    assign_class,
    assign_classes,
    class_to_allocation,
    classes_to_resource_classes,
    explicit_bins,
    fit_bins,
)


def oracle_quantile(values, q):
    """Reference quantile with linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def test_fit_bins_quarters_of_1_to_100():
    spec = fit_bins(list(range(1, 101)), "RAMCOUNT", 4)
    assert spec.edges == pytest.approx((25.75, 50.5, 75.25), rel=1e-12)
    for edge, q in zip(spec.edges, (0.25, 0.5, 0.75)):
        assert edge == pytest.approx(oracle_quantile(range(1, 101), q), rel=1e-12)


def test_fit_bins_two_classes_median_edge():
    spec = fit_bins([1, 2, 3, 4], "IOINTENSITY", 2)
    assert spec.edges == (2.5,)
    assert spec.edges[0] == oracle_quantile([1, 2, 3, 4], 0.5)


def test_fit_bins_random_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.lognormal(0, 2, size=int(rng.integers(20, 200)))
        n = int(rng.integers(2, 6))
        try:
            spec = fit_bins(values, "CUSTOM", n)
        except BinningError:
            continue
        for k, edge in enumerate(spec.edges, start=1):
            assert edge == pytest.approx(oracle_quantile(values, k / n), rel=1e-9)


def test_fit_bins_all_equal_rejected():
    with pytest.raises(BinningError, match="fewer distinct values"):
        fit_bins([7.0] * 10, "IOINTENSITY", 2)


def test_fit_bins_tie_collapse_reports_achievable():
    # 90% of mass at one value: the 0.25/0.5 quantiles coincide
    values = [1.0] * 90 + list(np.linspace(2, 3, 10))
    with pytest.raises(BinningError, match="achievable"):
        fit_bins(values, "RAMCOUNT", 4)


def test_fit_bins_default_class_counts():
    rng = np.random.default_rng(0)
    values = rng.lognormal(0, 1, 500)
    for name, k in TARGET_CLASS_COUNTS.items():
        spec = fit_bins(values, name)
        assert spec.n_classes == k
        assert len(spec.edges) == k - 1


def test_assign_class_interior():
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=100)
    assert assign_class(15, spec) == 1


def test_assign_class_on_edge_goes_low():
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=100)
    assert assign_class(20, spec) == 1
    assert assign_class(10, spec) == 0


def test_assign_class_open_top():
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=100)
    assert assign_class(1e9, spec) == 3


def test_assign_class_monotone():
    rng = np.random.default_rng(2)
    spec = fit_bins(rng.lognormal(0, 1, 300), "CPUTIME", 5)
    values = np.sort(rng.lognormal(0, 1.5, 500))
    classes = assign_classes(values, spec)
    assert (np.diff(classes) >= 0).all()


def test_assign_class_matches_assign_classes():
    rng = np.random.default_rng(8)
    spec = fit_bins(rng.lognormal(0, 2, 400), "WALLTIME", 5)
    values = np.concatenate([rng.lognormal(0, 2.5, 500), spec.edges,
                             np.nextafter(spec.edges, np.inf), np.nextafter(spec.edges, -np.inf)])
    expected = assign_classes(values, spec)
    assert [assign_class(v, spec) for v in values] == expected.tolist()   # np.float64 values
    assert [assign_class(float(v), spec) for v in values] == expected.tolist()
    assert [assign_class(e, spec) for e in spec.edges] == list(range(spec.n_classes - 1))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_assign_class_rejects_non_finite(value):
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=100)
    with pytest.raises(ValueError, match="finite"):
        assign_class(value, spec)


def test_quantile_bins_give_near_equal_frequencies():
    rng = np.random.default_rng(9)
    values = rng.normal(0, 1, 1000)  # continuous, no ties
    spec = fit_bins(values, "WALLTIME", 5)
    classes = assign_classes(values, spec)
    counts = np.bincount(classes, minlength=5)
    assert counts.max() - counts.min() <= 1


def test_allocation_upper_edge_and_cap():
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=64)
    assert class_to_allocation(0, spec) == 10
    assert class_to_allocation(2, spec) == 30
    assert class_to_allocation(3, spec) == 64


def test_allocation_out_of_range():
    spec = explicit_bins("RAMCOUNT", [10, 20, 30], top_cap=64)
    with pytest.raises(ValueError):
        class_to_allocation(4, spec)
    with pytest.raises(ValueError):
        class_to_allocation(-1, spec)


def test_allocation_monotone_over_classes():
    rng = np.random.default_rng(4)
    for _ in range(30):
        edges = np.sort(rng.uniform(0, 100, size=4))
        if (np.diff(edges) <= 0).any():
            continue
        spec = explicit_bins("CPUTIME", edges, top_cap=edges[-1] * rng.uniform(1, 3))
        allocs = [class_to_allocation(k, spec) for k in range(spec.n_classes)]
        assert all(b >= a for a, b in zip(allocs, allocs[1:]))


def test_allocation_covers_bin_contents():
    # within every closed bin, the allocation value never under-provisions
    rng = np.random.default_rng(6)
    values = rng.lognormal(1, 1, 400)
    spec = fit_bins(values, "RAMCOUNT", 4)
    classes = assign_classes(values, spec)
    for v, c in zip(values, classes):
        if c < spec.n_classes - 1:
            assert class_to_allocation(int(c), spec) >= v


def test_resource_classes_round_trip():
    rc = ResourceClasses(ram_class=2, cpu_class=4, io_class=1, wall_class=0)
    assert ResourceClasses.from_dict(rc.as_dict()) == rc


def test_resource_classes_are_rows_of_the_class_array():
    # the fields are the registry's, in TARGET_NAMES order, so a list of rows is the
    # (n, 4) class array with one column per target
    assert ResourceClasses._fields == tuple(TARGET_REGISTRY[t][1] for t in TARGET_NAMES)
    per_target = {t: (np.arange(3) + j) % TARGET_CLASS_COUNTS[t] for j, t in enumerate(TARGET_NAMES)}
    rows = classes_to_resource_classes(per_target)
    assert np.array_equal(np.asarray(rows), np.column_stack([per_target[t] for t in TARGET_NAMES]))
    assert rows[1] == ResourceClasses(ram_class=1, cpu_class=2, io_class=1, wall_class=4)
    assert rows[1].as_dict() == {"RAMCOUNT": 1, "CPUTIME": 2, "IOINTENSITY": 1, "WALLTIME": 4}
    assert all(type(k) is int for row in rows for k in row)


def test_binspec_validates_edges():
    with pytest.raises(BinningError):
        BinSpec(target_name="RAMCOUNT", edges=(3.0, 2.0, 4.0), n_classes=4)
    with pytest.raises(ValueError):
        BinSpec(target_name="RAMCOUNT", edges=(1.0, 2.0), n_classes=4)
