"""Feature encoding: embedding indices for categoricals, standardized numerics.

The embedding width for a vocabulary of v tokens is min(32, floor(log2 v) + 1).
Numeric counts span orders of magnitude, so they default to log1p before
z-scoring with moments fitted on the training split only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .ingest import CATEGORICAL_FEATURES, NUMERIC_FEATURES, Dataset, TaskRecord, UNKNOWN_INDEX


def embed_dim(v: int) -> int:
    """Embedding width for a vocabulary of v tokens: min(32, floor(log2 v) + 1)."""
    if v < 1:
        raise ValueError("vocabulary size must be >= 1")
    # floor(log2 v) + 1 == bit_length for positive integers; avoids float log
    return min(32, int(v).bit_length())


@dataclass(frozen=True)
class CategoricalSpec:
    name: str
    vocabulary: dict[str, int]   # token -> index, UNKNOWN at 0
    embed_dim: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class NumericSpec:
    name: str
    transform: str               # "log1p" | "identity"
    mean: float
    stddev: float


@dataclass(frozen=True)
class EncoderSpec:
    """Frozen encoding recipe fitted on a training split."""

    categorical: tuple[CategoricalSpec, ...]
    numeric: tuple[NumericSpec, ...]
    dropped: tuple[str, ...] = field(default=())   # zero-variance numeric features

    @property
    def input_width(self) -> int:
        return sum(c.embed_dim for c in self.categorical) + len(self.numeric)


@dataclass
class EncodedBatch:
    """Model-ready arrays; all columns share row_count."""

    categorical_indices: dict[str, np.ndarray]     # int64 per feature
    numeric_matrix: np.ndarray                     # float64, shape (rows, n_numeric)
    labels: Optional[np.ndarray] = None            # int64 class indices
    row_count: int = 0

    def take(self, indices: np.ndarray) -> "EncodedBatch":
        return EncodedBatch(
            categorical_indices={k: v[indices] for k, v in self.categorical_indices.items()},
            numeric_matrix=self.numeric_matrix[indices],
            labels=None if self.labels is None else self.labels[indices],
            row_count=len(indices),
        )


def _transform(values: np.ndarray, transform: str) -> np.ndarray:
    if transform == "log1p":
        return np.log1p(values)
    if transform == "identity":
        return values
    raise ValueError(f"unknown numeric transform {transform!r}")


def fit_encoder(train: Dataset, numeric_transform: str = "log1p") -> EncoderSpec:
    """Fit vocabulary widths and numeric moments on the training split only.

    Numeric moments use the sample standard deviation (ddof=1); features
    whose transformed values have zero variance are dropped and recorded.
    """
    if len(train) == 0:
        raise ValueError("cannot fit an encoder on an empty split")

    categorical = tuple(
        CategoricalSpec(
            name=feature,
            vocabulary=dict(train.vocabularies[feature]),
            embed_dim=embed_dim(len(train.vocabularies[feature])),
        )
        for feature in CATEGORICAL_FEATURES
    )

    numeric: list[NumericSpec] = []
    dropped: list[str] = []
    for feature in NUMERIC_FEATURES:
        raw = np.asarray([getattr(r, feature) for r in train.records], dtype=float)
        values = _transform(raw, numeric_transform)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        if std <= 0.0:
            dropped.append(feature)
            continue
        numeric.append(NumericSpec(
            name=feature,
            transform=numeric_transform,
            mean=float(values.mean()),
            stddev=std,
        ))

    return EncoderSpec(categorical=categorical, numeric=tuple(numeric), dropped=tuple(dropped))


def encode(
    records: Sequence[TaskRecord],
    spec: EncoderSpec,
    labels: Optional[np.ndarray] = None,
) -> EncodedBatch:
    """Encode records with a fitted spec; unseen tokens map to index 0."""
    n = len(records)
    cat: dict[str, np.ndarray] = {}
    for cspec in spec.categorical:
        cat[cspec.name] = np.asarray(
            [cspec.vocabulary.get(getattr(r, cspec.name), UNKNOWN_INDEX) for r in records],
            dtype=np.int64,
        )

    if spec.numeric:
        cols = []
        for nspec in spec.numeric:
            raw = np.asarray([getattr(r, nspec.name) for r in records], dtype=float)
            values = _transform(raw, nspec.transform)
            cols.append((values - nspec.mean) / nspec.stddev)
        matrix = np.column_stack(cols)
    else:
        matrix = np.zeros((n, 0), dtype=float)

    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("labels must have one entry per record")

    return EncodedBatch(
        categorical_indices=cat,
        numeric_matrix=matrix,
        labels=labels,
        row_count=n,
    )

