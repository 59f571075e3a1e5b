import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smelltriage.balance import BalanceError, k_nearest_minority, smote


def _all_pairs_table(X):
    """Reference neighbour table from all pairwise distances at once, self
    excluded, ties to the lower index."""
    X = np.asarray(X, dtype=np.float64)
    d = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return np.argsort(d, axis=1, kind="stable")


def _dataset(n_major=80, n_minor=20, dim=10, seed=0, max_index=50):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, max_index + 1, size=(n_major + n_minor, dim))
    y = np.array([0] * n_major + [1] * n_minor)
    return X, y


def test_smote_equalizes_class_counts():
    X, y = _dataset()
    res = smote(X, y, seed=1)
    values, counts = np.unique(res.y, return_counts=True)
    assert counts[0] == counts[1] == 80
    assert len(res.X) == 160


def test_smote_preserves_originals_as_prefix():
    X, y = _dataset()
    res = smote(X, y, seed=1)
    np.testing.assert_array_equal(res.X[: len(X)], X)
    np.testing.assert_array_equal(res.y[: len(y)], y)
    assert not res.synthetic[: len(y)].any()
    assert res.synthetic[len(y):].all()


def test_smote_synthetics_lie_on_recorded_segments():
    X, y = _dataset()
    res = smote(X, y, seed=1)
    for rec in res.records:
        assert 0.0 <= rec.gap <= 1.0
        base = X[rec.base_index].astype(float)
        nb = X[rec.neighbor_index].astype(float)
        np.testing.assert_allclose(rec.pre_rounding, base + rec.gap * (nb - base), atol=1e-9)


def test_smote_rounding_deviation_at_most_half():
    X, y = _dataset()
    res = smote(X, y, seed=1)
    synth = res.X[len(X):].astype(float)
    pre = np.array([r.pre_rounding for r in res.records])
    assert np.max(np.abs(synth - pre)) <= 0.5 + 1e-9
    assert synth.min() >= 0 and synth.max() <= 50


def test_smote_rounded_output_keeps_integer_dtype():
    X, y = _dataset()
    res = smote(X, y, seed=1)
    assert res.X.dtype == X.dtype


def test_smote_deterministic_per_seed():
    X, y = _dataset()
    a = smote(X, y, seed=9)
    b = smote(X, y, seed=9)
    np.testing.assert_array_equal(a.X, b.X)
    c = smote(X, y, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_smote_balanced_input_is_noop():
    X, y = _dataset(n_major=10, n_minor=10)
    res = smote(X, y, seed=0)
    np.testing.assert_array_equal(res.X, X)
    assert not res.synthetic.any()


def test_smote_oversamples_class_zero_when_minority():
    X, y = _dataset(n_major=5, n_minor=20)  # class 0 is now the minority
    res = smote(X, y, seed=0)
    assert int(np.sum(res.y == 0)) == int(np.sum(res.y == 1))
    assert set(res.y[res.synthetic]) == {0}


def test_smote_shrinks_k_with_diagnostic():
    X, y = _dataset(n_major=20, n_minor=3)
    res = smote(X, y, k=5, seed=0)
    assert any("k shrunk" in d for d in res.diagnostics)


def test_smote_rejects_single_class():
    X = np.zeros((4, 3), dtype=int)
    with pytest.raises(BalanceError, match="both classes"):
        smote(X, np.array([1, 1, 1, 1]))


def test_smote_rejects_singleton_minority():
    X, y = _dataset(n_major=5, n_minor=1)
    with pytest.raises(BalanceError, match="<= 1 sample"):
        smote(X, y)


def test_k_nearest_ties_broken_by_lower_index():
    X = np.array([[0.0], [1.0], [1.0], [5.0]])
    assert k_nearest_minority(X, 0, 2) == [1, 2]
    # sample 3 is equidistant from nothing; order by distance then index
    assert k_nearest_minority(X, 3, 3) == [1, 2, 0]


def test_k_nearest_excludes_self():
    X = np.array([[0.0], [1.0], [2.0]])
    assert 1 not in k_nearest_minority(X, 1, 2)


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=9, max_value=30),
       st.integers(0, 1000))
def test_smote_counts_property(minor, major, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 20, size=(minor + major, 5))
    y = np.array([1] * minor + [0] * major)
    res = smote(X, y, seed=seed)
    assert int(np.sum(res.y == 0)) == int(np.sum(res.y == 1)) == major
    assert len(res.records) == major - minor


@st.composite
def _index_matrices(draw):
    """An index matrix in [0, V) with two to five minority rows first, then
    the label vector."""
    vocab = draw(st.one_of(st.integers(1, 60), st.integers(1, 2**31 - 1)))
    minor, major = draw(st.integers(2, 5)), draw(st.integers(6, 12))
    shape = (minor + major, draw(st.integers(1, 6)))
    X = draw(hnp.arrays(draw(st.sampled_from([np.int32, np.int64])), shape,
                        elements=st.integers(0, vocab - 1)))
    return X, np.array([1] * minor + [0] * major)


@settings(max_examples=100)
@given(_index_matrices(), st.integers(0, 2**32 - 1))
def test_smote_synthetics_are_rounded_points_between_their_endpoints(data, seed):
    """Each synthetic row is its segment point rounded, and each coordinate
    lies between its base's and its neighbour's, so it is an index in [0, V)
    like theirs."""
    X, y = data
    res = smote(X, y, k=3, seed=seed)
    assert res.X.dtype == X.dtype
    for rec, s in zip(res.records, res.X[len(X):]):
        np.testing.assert_array_equal(s, np.rint(rec.pre_rounding))
        ends = X[[rec.base_index, rec.neighbor_index]]
        assert (ends.min(axis=0) <= s).all() and (s <= ends.max(axis=0)).all()


@st.composite
def _tied_matrices(draw):
    """Few distinct small integer rows, so duplicates and distance ties abound."""
    n = draw(st.integers(min_value=2, max_value=9))
    dim = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                         min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=200)
@given(_tied_matrices())
def test_k_nearest_matches_all_pairs_oracle(X):
    table = _all_pairs_table(X)
    for k in range(1, len(X)):
        for row in range(len(X)):
            assert k_nearest_minority(X, row, k) == table[row, :k].tolist()


def test_smote_deficit_above_minority_reuses_bases_round_robin():
    X, y = _dataset(n_major=11, n_minor=3)
    res = smote(X, y, k=2, seed=4)
    minority_idx = np.flatnonzero(y == 1)
    table = _all_pairs_table(X[minority_idx])
    rng = np.random.default_rng(4)  # replay smote's draws: neighbour slot, then gap
    assert len(res.records) == 8
    for i, rec in enumerate(res.records):
        base = i % 3
        assert rec.base_index == minority_idx[base]
        assert rec.neighbor_index == minority_idx[table[base, rng.integers(2)]]
        assert rec.gap == rng.random()
