"""Embedding-dimension formula, encoder fitting and batch encoding."""

import math

import numpy as np
import pytest

from respred.encode import UNKNOWN_INDEX, UNKNOWN_TOKEN, build_vocabularies, embed_dim, encode, fit_encoder
from respred.ingest import Dataset, TaskRecord


def records_from(rows):
    return [
        TaskRecord(
            task_id=f"t{i}",
            processing_type=r.get("pt", "simulation"),
            framework=r.get("fw", "FastSim"),
            core_count=r.get("cores", 1),
            n_input=r.get("ninput", 1),
            n_files=r.get("nfiles", 10),
            n_events=r.get("nevents", 100),
        )
        for i, r in enumerate(rows)
    ]


def dataset_from(rows):
    return Dataset(records=records_from(rows))


def test_embed_dim_small_values():
    assert embed_dim(1) == 1
    assert embed_dim(2) == 2
    assert embed_dim(9) == 4          # floor(log2 9) + 1
    assert embed_dim(10**10) == 32    # cap active


def test_embed_dim_rejects_zero():
    with pytest.raises(ValueError):
        embed_dim(0)


def test_embed_dim_matches_direct_formula_at_boundaries():
    # every power-of-two boundary up to 2^20, where the floor steps
    checks = [1, 3, 10**6]
    for k in range(1, 21):
        checks += [2**k - 1, 2**k, 2**k + 1]
    for v in checks:
        assert embed_dim(v) == min(32, math.floor(math.log2(v)) + 1), v


def test_embed_dim_cap_onset():
    assert embed_dim(2**31) == 32
    assert embed_dim(2**32 - 1) == 32
    assert embed_dim(2**32) == 32      # would be 33 uncapped
    assert embed_dim(2**31 - 1) == 31


def test_fit_encoder_moments_sample_stddev():
    # log1p maps 0, 3 and 15 to 0, log 4 and 2 log 4
    rows = [{"nevents": 0}, {"nevents": 3}, {"nevents": 15}]
    spec = fit_encoder(dataset_from(rows))
    nev = next(n for n in spec.numeric if n.name == "n_events")
    assert nev.transform == "log1p"
    assert nev.mean == pytest.approx(math.log(4))
    assert nev.stddev == pytest.approx(math.log(4))     # ddof=1; ddof=0 would give log 4 * sqrt(2/3)


def test_fit_encoder_drops_constant_columns():
    rows = [{"nevents": 5, "cores": 4}, {"nevents": 7, "cores": 4}, {"nevents": 9, "cores": 4}]
    spec = fit_encoder(dataset_from(rows))
    assert "core_count" in spec.dropped
    assert all(n.name != "core_count" for n in spec.numeric)


def test_fit_encoder_embed_dims_from_vocab():
    rows = [{"fw": f"fw{i}"} for i in range(9)]
    spec = fit_encoder(dataset_from(rows))
    fw = next(c for c in spec.categorical if c.name == "framework")
    assert fw.vocab_size == 10            # 9 tokens + UNKNOWN
    assert fw.embed_dim == 4


def test_fit_encoder_empty_rejected():
    with pytest.raises(ValueError):
        fit_encoder(Dataset(records=[]))


def test_encode_unseen_token_maps_to_zero():
    train = dataset_from([{"fw": "A", "nevents": 10}, {"fw": "B", "nevents": 20}, {"fw": "A", "nevents": 15}])
    spec = fit_encoder(train)
    batch = encode(records_from([{"fw": "NEW"}]), spec)
    assert batch.categorical_indices["framework"][0] == 0


def test_build_vocabularies_numbers_tokens_from_one_in_sorted_order():
    vocabs = build_vocabularies(records_from([{"pt": "sim", "fw": "Athena"}, {"pt": "sim", "fw": "AthSim"},
                                              {"pt": "reco", "fw": "Athena"}]))
    assert vocabs == {
        "processing_type": {UNKNOWN_TOKEN: 0, "reco": 1, "sim": 2},
        "framework": {UNKNOWN_TOKEN: 0, "AthSim": 1, "Athena": 2},
    }
    assert build_vocabularies([]) == {"processing_type": {UNKNOWN_TOKEN: 0}, "framework": {UNKNOWN_TOKEN: 0}}


def test_vocabulary_fit_on_training_rows_only():
    # a token seen only outside training must encode as unknown, not as an
    # untrained embedding row
    corpus = dataset_from([{"fw": "A"}, {"fw": "B"}, {"fw": "A"}, {"fw": "TEST_ONLY"}])
    spec = fit_encoder(corpus.subset([0, 1, 2]))
    fw = next(c for c in spec.categorical if c.name == "framework")
    assert fw.vocabulary == {UNKNOWN_TOKEN: UNKNOWN_INDEX, "A": 1, "B": 2}
    batch = encode(corpus.subset([3]).records, spec)
    assert batch.categorical_indices["framework"][0] == UNKNOWN_INDEX


def test_encode_mean_value_standardizes_to_zero():
    rows = [{"nevents": 0}, {"nevents": 3}, {"nevents": 15}]
    train = dataset_from(rows)
    spec = fit_encoder(train)
    batch = encode(records_from([{"nevents": 3}]), spec)
    col = [n.name for n in spec.numeric].index("n_events")
    assert batch.numeric_matrix[0, col] == pytest.approx(0.0, abs=1e-12)


def test_encode_deterministic():
    train = dataset_from([{"nevents": i + 1, "fw": f"f{i % 3}"} for i in range(20)])
    spec = fit_encoder(train)
    a = encode(train.records, spec)
    b = encode(train.records, spec)
    assert np.array_equal(a.numeric_matrix, b.numeric_matrix)
    for name in a.categorical_indices:
        assert np.array_equal(a.categorical_indices[name], b.categorical_indices[name])


def test_training_columns_standardized():
    rng = np.random.default_rng(1)
    rows = [
        {"nevents": int(rng.integers(1, 10**6)), "nfiles": int(rng.integers(1, 10**4)),
         "ninput": int(rng.integers(0, 100)), "cores": int(rng.integers(1, 32))}
        for _ in range(500)
    ]
    train = dataset_from(rows)
    spec = fit_encoder(train)
    batch = encode(train.records, spec)
    means = batch.numeric_matrix.mean(axis=0)
    stds = batch.numeric_matrix.std(axis=0, ddof=1)
    assert np.abs(means).max() < 1e-6
    assert np.abs(stds - 1).max() < 1e-6


def test_moments_fit_on_training_split_only():
    train = dataset_from([{"nevents": i + 1} for i in range(50)])
    both = dataset_from([{"nevents": (i + 1) * 100} for i in range(100)])
    spec_train = fit_encoder(train)
    spec_both = fit_encoder(both)
    m_train = next(n for n in spec_train.numeric if n.name == "n_events").mean
    m_both = next(n for n in spec_both.numeric if n.name == "n_events").mean
    assert m_train != m_both
