"""Discretization of continuous targets into allocation classes.

RAM maps to 4 classes, CPU time and walltime to 5, I/O intensity to 2
(low/high at the median). Bin edges default to training-set quantiles;
explicit operational thresholds are also accepted. Each class carries an
allocation value (the upper edge of its bin, a configured cap for the open
top bin) so a predicted class converts directly into a resource request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# The four targets: name -> (class count, ResourceClasses field). Every other
# list of targets in the package is derived from this one.
TARGET_REGISTRY = {
    "RAMCOUNT": (4, "ram_class"),
    "CPUTIME": (5, "cpu_class"),
    "IOINTENSITY": (2, "io_class"),
    "WALLTIME": (5, "wall_class"),
}
TARGET_NAMES = tuple(TARGET_REGISTRY)
TARGET_CLASS_COUNTS = {name: k for name, (k, _) in TARGET_REGISTRY.items()}


class BinningError(ValueError):
    """The sample cannot support the requested number of classes."""


@dataclass(frozen=True)
class BinSpec:
    """Fitted thresholds for one target.

    ``edges`` has length n_classes - 1 and is strictly increasing. Value v
    falls in class k iff edges[k-1] < v <= edges[k]; class 0 is unbounded
    below and the top class unbounded above.
    """

    target_name: str
    edges: tuple[float, ...]
    n_classes: int
    fit_method: str = "quantile"                  # "quantile" | "explicit"
    allocation_values: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if len(self.edges) != self.n_classes - 1:
            raise ValueError("edges must have length n_classes - 1")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise BinningError(f"{self.target_name}: edges must be strictly increasing")
        if self.target_name in TARGET_CLASS_COUNTS and \
                TARGET_CLASS_COUNTS[self.target_name] != self.n_classes:
            raise ValueError(
                f"{self.target_name} uses {TARGET_CLASS_COUNTS[self.target_name]} classes, "
                f"got {self.n_classes}"
            )
        if self.allocation_values:
            if len(self.allocation_values) != self.n_classes:
                raise ValueError("allocation_values must have one entry per class")
            if any(b < a for a, b in zip(self.allocation_values, self.allocation_values[1:])):
                raise ValueError("allocation_values must be monotone non-decreasing")


@dataclass(frozen=True)
class ResourceClasses:
    """Discrete class labels for the four targets of one task; fields as in TARGET_REGISTRY."""

    ram_class: int
    cpu_class: int
    io_class: int
    wall_class: int

    def __post_init__(self) -> None:
        for limit, name in TARGET_REGISTRY.values():
            if not 0 <= getattr(self, name) < limit:
                raise ValueError(f"{name} must lie in [0, {limit})")

    def as_dict(self) -> dict[str, int]:
        return {target: getattr(self, name) for target, (_, name) in TARGET_REGISTRY.items()}

    @classmethod
    def from_dict(cls, classes: dict[str, int]) -> "ResourceClasses":
        return cls(**{name: int(classes[target]) for target, (_, name) in TARGET_REGISTRY.items()})


def fit_bins(
    values: Sequence[float],
    target_name: str,
    n_classes: Optional[int] = None,
) -> BinSpec:
    """Fit quantile bin edges at k/n_classes for k = 1..n_classes-1.

    Raises BinningError when the sample has fewer distinct values than
    classes, or when ties collapse quantile edges (the message reports how
    many classes the sample can support). The allocation value of the open
    top bin is the sample maximum.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot fit bins on an empty sample")
    if n_classes is None:
        n_classes = TARGET_CLASS_COUNTS[target_name]
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")

    distinct = np.unique(arr)
    if distinct.size < n_classes:
        raise BinningError(
            f"{target_name}: fewer distinct values than classes "
            f"({distinct.size} < {n_classes})"
        )

    qs = np.arange(1, n_classes) / n_classes
    edges = np.quantile(arr, qs)  # linear interpolation between closest ranks
    collapsed = np.unique(edges)
    if collapsed.size < edges.size:
        raise BinningError(
            f"{target_name}: ties collapse quantile edges; "
            f"only {collapsed.size + 1} of {n_classes} classes achievable"
        )

    allocation = tuple(float(e) for e in edges) + (float(arr.max()),)
    return BinSpec(
        target_name=target_name,
        edges=tuple(float(e) for e in edges),
        n_classes=n_classes,
        fit_method="quantile",
        allocation_values=allocation,
    )


def explicit_bins(
    target_name: str,
    edges: Sequence[float],
    top_cap: float,
) -> BinSpec:
    """BinSpec from operationally chosen thresholds instead of quantiles."""
    edges = tuple(float(e) for e in edges)
    return BinSpec(
        target_name=target_name,
        edges=edges,
        n_classes=len(edges) + 1,
        fit_method="explicit",
        allocation_values=edges + (float(top_cap),),
    )


def assign_class(value: float, spec: BinSpec) -> int:
    """Class index of a continuous value; values on an edge go to the lower class."""
    if not np.isfinite(value):
        raise ValueError("value must be finite")
    return int(np.searchsorted(spec.edges, value, side="left"))


def assign_classes(values: Sequence[float], spec: BinSpec) -> np.ndarray:
    """Vectorized assign_class."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return np.searchsorted(np.asarray(spec.edges), arr, side="left").astype(np.int64)


def class_to_allocation(class_index: int, spec: BinSpec) -> float:
    """Concrete request value for a class: upper bin edge, cap for the top class."""
    if not 0 <= class_index < spec.n_classes:
        raise ValueError(f"class index {class_index} out of range for {spec.target_name}")
    if not spec.allocation_values:
        raise ValueError(f"{spec.target_name}: bin spec carries no allocation values")
    return spec.allocation_values[class_index]


def classes_to_resource_classes(per_target: dict[str, np.ndarray]) -> list[ResourceClasses]:
    """Zip aligned per-target class arrays into per-task ResourceClasses."""
    lengths = {len(v) for v in per_target.values()}
    if len(lengths) != 1:
        raise ValueError("per-target class arrays must share length")
    names = [name for _, name in TARGET_REGISTRY.values()]
    columns = [np.asarray(per_target[target]).tolist() for target in TARGET_REGISTRY]
    return [ResourceClasses(**dict(zip(names, row))) for row in zip(*columns)]
