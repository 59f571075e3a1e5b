import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nnet_oracle as oracle
from smelltriage import nnet
from smelltriage.nnet import (
    ConfigError, Model, ModelConfig, ModelFormatError, init_model,
    load_model, save_model,
)

from conftest import max_gradient_relative_error


def _hand_model(bd=-1.0):
    """Single-filter net small enough to trace by hand: L=8, q=1, one
    width-2 filter per stage, pool 2, flatten length 1."""
    cfg = ModelConfig(vocab_size=4, seq_len=8, embed_dim=1,
                      conv1_filters=1, conv1_width=2,
                      conv2_filters=1, conv2_width=2,
                      pool_size=2, dropout_rate=0.0, dtype="float64")
    return Model(
        cfg=cfg,
        emb=np.array([[0.0], [1.0], [2.0], [3.0]]),
        w1=np.array([[[1.0], [1.0]]]), b1=np.zeros(1),
        w2=np.array([[[1.0], [-1.0]]]), b2=np.zeros(1),
        wd=np.array([0.5]), bd=np.array(bd),
    )


def test_forward_matches_hand_computation():
    # E = [1,2,3,0,1,2,3,0]; conv1 (sum of pairs) -> [3,5,3,1,3,5,3];
    # pool -> [5,3,5]; conv2 (difference) -> [2,-2]; relu -> [2,0];
    # pool -> [2]; dense 0.5*2 - 1 = 0 -> sigmoid 0.5
    prob = nnet.forward_batch(_hand_model(), [[1, 2, 3, 0, 1, 2, 3, 0]])[0][0]
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_forward_hand_computation_with_bias_shift():
    prob = nnet.forward_batch(_hand_model(bd=0.0), [[1, 2, 3, 0, 1, 2, 3, 0]])[0][0]
    assert prob == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_all_pad_input_gives_half():
    # embedding row 0 is zero, so the whole network collapses to sigmoid(bd)
    model = _hand_model(bd=0.0)
    prob = nnet.forward_batch(model, [[0] * 8])[0][0]
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_stage_lengths_default_config():
    cfg = ModelConfig(vocab_size=100, pool_size=2)
    t1, p1, t2, p2, flat = cfg.stage_lengths()
    assert t1 == 196
    assert flat == p2 * cfg.conv2_filters


def test_stage_lengths_documented_arithmetic():
    # L=200, w1=5, pool=2, w2=5 -> floor((floor(196/2) - 5 + 1)/2) = 47 windows
    cfg = ModelConfig(vocab_size=100, pool_size=2)
    assert cfg.stage_lengths() == (196, 98, 94, 47, 47 * 32)


def test_stage_lengths_names_failing_stage():
    with pytest.raises(ConfigError, match="conv1"):
        ModelConfig(vocab_size=10, seq_len=3, conv1_width=5).stage_lengths()
    with pytest.raises(ConfigError, match="pool2"):
        ModelConfig(vocab_size=10, seq_len=8, conv1_width=2, conv2_width=2,
                    pool_size=3).stage_lengths()
    with pytest.raises(ConfigError, match="pool"):
        ModelConfig(vocab_size=10, pool_size=0).stage_lengths()


@given(st.integers(10, 60), st.integers(1, 6), st.integers(1, 6), st.integers(1, 4))
def test_shape_law(seq_len, w1, w2, pool):
    cfg = ModelConfig(vocab_size=10, seq_len=seq_len, conv1_width=w1,
                      conv2_width=w2, pool_size=pool)
    try:
        t1, p1, t2, p2, flat = cfg.stage_lengths()
    except ConfigError:
        return
    assert t1 == seq_len - w1 + 1
    assert p1 == t1 // pool
    assert t2 == p1 - w2 + 1
    assert p2 == t2 // pool
    assert flat == p2 * cfg.conv2_filters
    assert min(t1, p1, t2, p2) >= 1


def test_forward_rejects_out_of_vocab_index():
    model = _hand_model()
    with pytest.raises(ValueError, match="vocab"):
        nnet.forward_batch(model, [[1, 2, 9, 0, 0, 0, 0, 0]])


def test_forward_rejects_negative_index():
    # a negative index would silently read an embedding row from the end
    model = _hand_model()
    with pytest.raises(ValueError, match="vocab size 4.* at position 2"):
        nnet.forward_batch(model, [[1, 2, -1, 0, 0, 0, 0, 0]])


def test_forward_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        nnet.forward_batch(_hand_model(), [[1, 2, 3]])


def test_loss_values():
    assert nnet.loss(0.5, 1) == pytest.approx(math.log(2.0), rel=1e-12)
    assert nnet.loss(0.9, 1) == pytest.approx(-math.log(0.9), rel=1e-9)
    assert nnet.loss(0.0, 1) == pytest.approx(-math.log(1e-7), rel=1e-6)


def test_loss_is_mean_over_batch():
    single = nnet.loss(0.7, 1)
    batched = nnet.loss([0.7, 0.7], [1, 1])
    assert batched == pytest.approx(single)


def _small_cfg(seed, dropout=0.5):
    rng = np.random.default_rng(seed)
    seq_len = int(rng.integers(8, 17))
    return ModelConfig(
        # vocab larger than the sequence so inputs can use distinct indices;
        # repeated tokens create exact max-pool ties where the loss is not
        # differentiable and finite differences are meaningless
        vocab_size=seq_len + int(rng.integers(1, 5)),
        seq_len=seq_len,
        embed_dim=int(rng.integers(1, 9)),
        conv1_filters=int(rng.integers(1, 5)),
        conv1_width=int(rng.integers(1, 4)),
        conv2_filters=int(rng.integers(1, 5)),
        conv2_width=int(rng.integers(1, 3)),
        pool_size=int(rng.integers(1, 3)),
        dropout_rate=dropout if rng.random() < 0.5 else 0.0,
        dtype="float64",
    )


def test_gradients_match_finite_differences():
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        cfg = _small_cfg(seed)
        try:
            cfg.stage_lengths()
        except ConfigError:
            continue
        rng = np.random.default_rng(seed)
        model = init_model(cfg, seed=seed)
        # zero-initialized biases sit exactly on the rectifier kink (dead
        # units from the previous stage give z = bias = 0), where finite
        # differences straddle the non-differentiable point
        model.b1 += rng.normal(0.0, 0.1, size=model.b1.shape)
        model.b2 += rng.normal(0.0, 0.1, size=model.b2.shape)
        X = np.stack([rng.permutation(cfg.vocab_size)[: cfg.seq_len] for _ in range(3)])
        y = rng.integers(0, 2, size=3)
        err = max_gradient_relative_error(model, X, y)
        assert err < 1e-4, f"config seed {seed}: relative error {err}"
        checked += 1


# -- differential tests against the dense passes in nnet_oracle ---------------

_ROW_KINDS = ("pad", "full", "prefix", "interior_zeros")


@st.composite
def _padded_batches(draw):
    """A float64 model whose stages compose, a batch of rows of mixed kinds,
    labels and an optional dropout mask. Rows are right-padded with 0 like
    featurize's; interior zeros are what SMOTE's rounding can produce."""
    w1, w2, pool = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    t2 = draw(st.integers(1, 2)) * pool + draw(st.integers(0, pool - 1))
    t1 = (t2 + w2 - 1) * pool + draw(st.integers(0, pool - 1))
    cfg = ModelConfig(vocab_size=draw(st.integers(2, 12)), seq_len=t1 + w1 - 1,
                      embed_dim=draw(st.integers(1, 6)), conv1_filters=draw(st.integers(1, 4)),
                      conv1_width=w1, conv2_filters=draw(st.integers(1, 3)), conv2_width=w2,
                      pool_size=pool, dropout_rate=0.5, dtype="float64")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = init_model(cfg, seed=int(rng.integers(1 << 30)))
    if draw(st.booleans()):  # off the zero-bias ties
        model.b1 += rng.normal(0.0, 0.1, size=model.b1.shape)
        model.b2 += rng.normal(0.0, 0.1, size=model.b2.shape)
    if draw(st.booleans()):  # a hand-built model whose padding row is not zero
        model.emb[0] = rng.uniform(-0.05, 0.05, size=cfg.embed_dim)
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=5))
    X = np.zeros((len(kinds), cfg.seq_len), dtype=np.int64)
    for row, kind in zip(X, kinds):
        n = {"pad": 0, "full": cfg.seq_len}.get(kind)
        n = draw(st.integers(1, cfg.seq_len)) if n is None else n
        low = 0 if kind == "interior_zeros" else 1
        row[:n] = rng.integers(low, cfg.vocab_size, size=n)
    y = rng.integers(0, 2, size=len(kinds))
    mask = None
    if draw(st.booleans()):
        flat = cfg.stage_lengths()[-1]
        mask = (rng.random((len(kinds), flat)) < 0.5).astype(np.float64) / 0.5
    return model, X, y, mask


def _assert_matches_dense_passes(model, X, y, mask):
    prob, cache = nnet.forward_batch(model, X, dropout_mask=mask)
    grads = nnet.backward_batch(model, cache, y)
    prob_o, cache_o = oracle.forward_batch(model, X, dropout_mask=mask)
    grads_o = oracle.backward_batch(model, cache_o, y)
    np.testing.assert_allclose(prob, prob_o, rtol=1e-9, atol=0)
    for key in ("Z1", "Z2"):
        assert cache[key].shape == cache_o[key].shape
        np.testing.assert_allclose(cache[key], cache_o[key], rtol=1e-9, atol=1e-15)
    for key in ("idx1", "idx2"):
        np.testing.assert_array_equal(cache[key], cache_o[key])
    for name in nnet.PARAM_NAMES:
        got, want = grads[name], grads_o[name]
        assert got.shape == want.shape and got.dtype == want.dtype, name
        # entries that cancel to near zero keep the absolute error of the
        # largest ones, which a different summation order leaves
        scale = float(np.max(np.abs(want), initial=0.0))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * scale, err_msg=name)


@settings(max_examples=300)
@given(_padded_batches())
def test_prefix_bound_matches_the_dense_passes(case):
    _assert_matches_dense_passes(*case)


def _prefix_case(emb0=0.0):
    """seq_len 14, conv1 width 3, so 12 conv1 windows."""
    cfg = ModelConfig(vocab_size=9, seq_len=14, embed_dim=3, conv1_filters=3, conv1_width=3,
                      conv2_filters=2, conv2_width=2, pool_size=2, dtype="float64")
    rng = np.random.default_rng(5)
    model = init_model(cfg, seed=5)
    model.b1 += rng.normal(0.0, 0.1, size=model.b1.shape)
    model.b2 += rng.normal(0.0, 0.1, size=model.b2.shape)
    model.emb[0] = emb0
    return model, rng


@pytest.mark.parametrize("last, expected_windows", [
    (None, 1),   # an all-padding batch still runs one window
    (0, 1),      # a token in the first column only
    (5, 6),
    (10, 11),    # one window short of all
    (11, 12),    # the last window's first column: every window
    (13, 12),    # a token in the final column
])
def test_prefix_bound_at_either_end(last, expected_windows):
    model, rng = _prefix_case()
    X = np.zeros((3, 14), dtype=np.int64)
    if last is not None:
        X[1, : last + 1] = rng.integers(1, 9, size=last + 1)
    _, cache = nnet.forward_batch(model, X)
    assert cache["win1"].shape[1] == expected_windows
    _assert_matches_dense_passes(model, X, np.array([0, 1, 1]), None)


def test_nonzero_padding_row_runs_every_window():
    model, rng = _prefix_case(emb0=0.01)
    X = np.zeros((2, 14), dtype=np.int64)
    X[0, :3] = [4, 0, 7]
    _, cache = nnet.forward_batch(model, X)
    assert cache["win1"].shape[1] == 12
    _assert_matches_dense_passes(model, X, np.array([1, 0]), None)


def test_float32_model_stays_float32():
    cfg = ModelConfig(vocab_size=20, seq_len=30, embed_dim=4, conv1_filters=3, conv1_width=3,
                      conv2_filters=2, conv2_width=2, pool_size=2, dropout_rate=0.5)
    model = init_model(cfg, seed=1)
    X = np.zeros((4, 30), dtype=np.int64)
    X[:, :12] = np.random.default_rng(1).integers(0, 20, size=(4, 12))
    mask = (np.random.default_rng(2).random((4, cfg.stage_lengths()[-1])) < 0.5).astype("float32")
    prob, cache = nnet.forward_batch(model, X, dropout_mask=mask / 0.5)
    grads = nnet.backward_batch(model, cache, np.array([0, 1, 0, 1]))
    arrays = {**{k: v for k, v in cache.items() if k not in ("X", "idx1", "idx2")},
              **{f"d{k}": v for k, v in grads.items()}}
    assert cache["win1"].shape[1] < 28  # the prefix bound is on
    promoted = {k: str(v.dtype) for k, v in arrays.items() if v.dtype != np.float32}
    assert promoted == {}


_DTYPES = ["float32", "float64"]
# gradient entries: signed zeros, and magnitudes whose sums round
_grad_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e3, 1e3, allow_nan=False, width=32))


@pytest.mark.parametrize("dtype", _DTYPES)
@settings(max_examples=200)
@given(data=st.data())
def test_embedding_scatter_adds_rows_in_order_like_a_scatter_of_rows(dtype, data):
    """The 1-D scatter of the embedding gradient gives the bits of
    np.add.at over rows, for repeated ids and for -0.0."""
    vocab, q = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5))
    ids = np.array(data.draw(st.lists(st.integers(0, vocab - 1), max_size=12)), dtype=np.int64)
    rows = np.array(data.draw(st.lists(_grad_values, min_size=len(ids) * q,
                                       max_size=len(ids) * q)), dtype=dtype).reshape(len(ids), q)
    emb = np.ones((vocab, q), dtype=dtype)
    want = np.zeros_like(emb)
    np.add.at(want, ids, rows)
    got = nnet._scatter_rows(emb, ids, rows)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", _DTYPES)
def test_adam_steps_in_place_give_the_bits_of_the_old_optimizer(dtype):
    """25 steps on parameters of every rank, the 0-d one included, with
    gradients that hold zeros of both signs."""
    rng = np.random.default_rng(3)
    shapes = {"emb": (7, 4), "w1": (3, 2, 4), "b1": (3,), "bd": ()}
    params = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
    params["bd"] = np.asarray(params["bd"])
    old_params = {k: v.copy() for k, v in params.items()}
    opt, old = nnet._Adam(params, 1e-3), oracle._Adam(old_params, 1e-3)
    for step in range(25):
        grads = {}
        for k, shape in shapes.items():
            g = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=shape)
            g[rng.random(shape) < 0.2] = 0.0
            g[rng.random(shape) < 0.2] = -0.0
            grads[k] = np.asarray(g.astype(dtype))
        opt.step(params, grads)
        old.step(old_params, grads)
        for k in shapes:
            assert params[k].dtype == old_params[k].dtype, (step, k)
            assert params[k].tobytes() == old_params[k].tobytes(), (step, k)
            assert np.asarray(opt.m[k]).tobytes() == np.asarray(old.m[k]).tobytes(), (step, k)
            assert np.asarray(opt.v[k]).tobytes() == np.asarray(old.v[k]).tobytes(), (step, k)


def test_train_is_deterministic_per_seed():
    cfg = ModelConfig(vocab_size=6, seq_len=12, embed_dim=4, conv1_filters=2,
                      conv1_width=3, conv2_filters=2, conv2_width=2,
                      pool_size=2, epochs=2, dtype="float64")
    rng = np.random.default_rng(0)
    X = rng.integers(0, 6, size=(10, 12))
    y = np.array([0, 1] * 5)
    m1, h1 = nnet.train(init_model(cfg, 7), X, y, seed=3)
    m2, h2 = nnet.train(init_model(cfg, 7), X, y, seed=3)
    for name in nnet.PARAM_NAMES:
        np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))
    assert h1 == h2


def test_train_does_not_mutate_input_model():
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2,
                      pool_size=2, epochs=1)
    model = init_model(cfg, 0)
    before = {n: getattr(model, n).copy() for n in nnet.PARAM_NAMES}
    X = np.random.default_rng(0).integers(0, 5, size=(6, 10))
    nnet.train(model, X, np.array([0, 1, 0, 1, 0, 1]), seed=0)
    for name, arr in before.items():
        np.testing.assert_array_equal(getattr(model, name), arr)


def test_train_zero_epochs_returns_copy():
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2,
                      pool_size=2, epochs=0)
    model = init_model(cfg, 0)
    trained, epochs = nnet.train(model, np.zeros((2, 10), dtype=int),
                                 np.array([0, 0]), seed=0)
    assert epochs == []
    np.testing.assert_array_equal(trained.emb, model.emb)


def test_train_refuses_single_class():
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2,
                      pool_size=2, epochs=1)
    model = init_model(cfg, 0)
    with pytest.raises(ValueError, match="both classes"):
        nnet.train(model, np.zeros((4, 10), dtype=int), np.array([1, 1, 1, 1]), seed=0)


def test_embedding_pad_row_stays_zero_through_training():
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2,
                      pool_size=2, epochs=3)
    X = np.random.default_rng(1).integers(0, 5, size=(8, 10))
    y = np.array([0, 1] * 4)
    trained, _ = nnet.train(init_model(cfg, 0), X, y, seed=0)
    np.testing.assert_array_equal(trained.emb[0], np.zeros(2))


def test_init_model_embedding_row_zero_is_zero():
    cfg = ModelConfig(vocab_size=7, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    model = init_model(cfg, 5)
    np.testing.assert_array_equal(model.emb[0], np.zeros(cfg.embed_dim))
    assert np.abs(model.emb[1:]).max() <= 0.05


def test_predict_threshold():
    model = _hand_model(bd=0.0)
    label, prob = nnet.predict(model, [0] * 8)
    assert prob == pytest.approx(0.5)
    assert label == 1  # 0.5 classifies as positive


def test_predict_of_one_row_is_within_1e_6_of_its_batch_at_real_shapes():
    """BLAS picks its kernel by the shape of a product, so one row and the
    same row inside a batch may differ in their last bits (q=128, L=200,
    reports of 9 to 200 words); never by more than 1e-6, nor in the label."""
    cfg = ModelConfig(vocab_size=600)
    model = init_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    lengths = np.linspace(9, cfg.seq_len, 48).astype(int)
    X = np.zeros((len(lengths), cfg.seq_len), dtype=np.int64)
    for row, n in zip(X, lengths):
        row[:n] = rng.permutation(np.arange(2, cfg.vocab_size))[:n]
    labels, probs = nnet.predict_batch(model, X)
    for row, label, prob in zip(X, labels, probs):
        one_label, one_prob = nnet.predict(model, row)
        assert one_label == label and abs(one_prob - float(prob)) <= 1e-6


@pytest.mark.parametrize("rows", [1, 8, 16, 29])
def test_predict_batch_chunks_match_one_forward_pass(rows, monkeypatch):
    """predict_batch runs batch_size rows at a time; each chunk has its own
    real prefix, and the probabilities are bit-identical to one pass."""
    cfg = ModelConfig(vocab_size=50, seq_len=40, embed_dim=6, conv1_filters=4, conv1_width=3,
                      conv2_filters=3, conv2_width=2, pool_size=2, batch_size=8)
    model = init_model(cfg, seed=4)
    rng = np.random.default_rng(4)
    model.b1 += rng.normal(0.0, 0.1, size=model.b1.shape).astype(model.b1.dtype)
    X = np.zeros((rows, cfg.seq_len), dtype=np.int64)
    for i, row in enumerate(X):  # later chunks hold longer reports
        n = rng.integers(1, min(cfg.seq_len, 6 + 12 * (i // cfg.batch_size)) + 1)
        row[:n] = rng.integers(1, cfg.vocab_size, size=n)
    prob_one, _ = nnet.forward_batch(model, X)
    chunks = []
    forward = nnet.forward_batch
    monkeypatch.setattr(nnet, "forward_batch",
                        lambda m, xb, **kw: chunks.append(len(xb)) or forward(m, xb, **kw))
    labels, prob = nnet.predict_batch(model, X)
    assert chunks == [min(8, rows - i) for i in range(0, rows, 8)]
    assert prob.dtype == prob_one.dtype
    np.testing.assert_array_equal(prob, prob_one)
    np.testing.assert_array_equal(labels, (prob_one >= 0.5).astype(int))


@settings(max_examples=30)
@given(st.integers(0, 2 ** 31 - 1))
def test_dropout_mask_preserves_expectation(seed):
    rng = np.random.default_rng(seed)
    keep = 0.5
    mask = (rng.random(10000) < keep) / keep
    assert abs(mask.mean() - 1.0) < 0.1


def test_save_load_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(vocab_size=9, seq_len=12, embed_dim=3, conv1_filters=2,
                      conv1_width=3, conv2_filters=2, conv2_width=2, pool_size=2)
    model = init_model(cfg, 11, dict_hash="abc123")
    p = tmp_path / "model.bin"
    save_model(model, p)
    loaded = load_model(p)
    assert loaded.cfg == cfg
    assert loaded.dict_hash == "abc123"
    for name in nnet.PARAM_NAMES:
        a, b = getattr(model, name), getattr(loaded, name)
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_load_reads_each_tensor_into_its_own_array(dtype, tmp_path):
    cfg = ModelConfig(vocab_size=9, seq_len=12, embed_dim=3, conv1_filters=2, conv1_width=3,
                      conv2_filters=2, conv2_width=2, pool_size=2, dtype=dtype)
    model = init_model(cfg, 11, dict_hash="abc123")
    model.bd = np.array(-0.25, dtype=dtype)  # the 0-d tensor, not zero
    p, again = tmp_path / "model.bin", tmp_path / "again.bin"
    save_model(model, p)
    loaded = load_model(p)
    arrays = [getattr(loaded, name) for name in nnet.PARAM_NAMES]
    for name, a in zip(nnet.PARAM_NAMES, arrays):
        assert a.flags.aligned and a.flags.c_contiguous and a.flags.writeable, name
        want = getattr(model, name)
        assert (a.shape, a.dtype, a.tobytes()) == (want.shape, want.dtype, want.tobytes())
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    save_model(loaded, again)
    assert again.read_bytes() == p.read_bytes()


def test_save_is_byte_deterministic(tmp_path):
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    model = init_model(cfg, 3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(p)


def test_load_rejects_truncated_file(tmp_path):
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    p = tmp_path / "model.bin"
    save_model(init_model(cfg, 0), p)
    p.write_bytes(p.read_bytes()[:-100])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(p)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    model = init_model(cfg, 0, dict_hash="abc")
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, path)
    return model, path.read_bytes(), path.with_name("mutated.bin")


@pytest.mark.parametrize("rows", [None, [0, 3, 4]])
@settings(max_examples=400)
@given(kind=st.sampled_from(["truncate", "flip", "append"]), at=st.integers(min_value=0),
       xor=st.integers(1, 255), extra=st.binary(min_size=1, max_size=8))
def test_load_rejects_or_reproduces_a_mutated_file(saved_model, rows, kind, at, xor, extra):
    """With `rows` too, the size checks come from the header and the file's
    size, so a truncated or extended file is refused before any row is read."""
    model, data, path = saved_model
    i = at % len(data)
    if kind == "truncate":
        mutated = data[:i]
    elif kind == "append":
        mutated = data + extra
    else:
        mutated = data[:i] + bytes([data[i] ^ xor]) + data[i + 1:]
    path.unlink(missing_ok=True)  # truncating a file in place is slow on some file systems
    path.write_bytes(mutated)
    try:
        loaded = load_model(path, rows=rows)
    except ModelFormatError:
        return
    assert kind == "flip"
    payload = len(data) - sum(getattr(model, n).nbytes for n in nnet.PARAM_NAMES)
    if i >= payload:  # the tensor bytes carry no checksum: the flipped byte loads as written
        model = _model_of_bytes(model, mutated[payload:])
    if rows is not None:
        model = dataclasses.replace(model, emb=model.emb[rows])
    for name in nnet.PARAM_NAMES:
        a, b = getattr(model, name), getattr(loaded, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def _model_of_bytes(model, payload):
    """`model` with its tensors read from `payload`, their bytes in order."""
    arrays, pos = {}, 0
    for name in nnet.PARAM_NAMES:
        a = getattr(model, name)
        arrays[name] = np.frombuffer(payload[pos:pos + a.nbytes], a.dtype).reshape(a.shape)
        pos += a.nbytes
    return dataclasses.replace(model, **arrays)


@pytest.mark.parametrize("row", [-1, 5])
def test_load_refuses_an_embedding_row_outside_the_vocabulary(saved_model, row):
    """Row -1 or V would read the header or w1 bytes as an embedding row."""
    _, data, path = saved_model
    path.write_bytes(data)
    with pytest.raises(ModelFormatError, match=rf"embedding row {row} not in \[0, vocab size 5\)"):
        load_model(path, rows=[0, row])


@pytest.fixture(scope="module", params=["float32", "float64"])
def saved_for_rows(request, tmp_path_factory):
    """A saved model whose stages compose at a short length, and its path."""
    cfg = ModelConfig(vocab_size=40, seq_len=16, embed_dim=5, conv1_filters=3, conv1_width=3,
                      conv2_filters=2, conv2_width=2, pool_size=2, dtype=request.param)
    model = init_model(cfg, 7)
    model.b1 += np.linspace(-0.1, 0.1, cfg.conv1_filters).astype(cfg.dtype)
    path = tmp_path_factory.mktemp("rows") / "model.bin"
    save_model(model, path)
    return model, path


@settings(max_examples=60, deadline=None)
@example(reports=[list(range(2, 18))])  # no padding
@example(reports=[[]])  # an empty report
@given(reports=st.lists(st.lists(st.integers(1, 39), max_size=16), min_size=1, max_size=3))
def test_a_model_of_the_report_rows_gives_the_bytes_of_the_full_model(saved_for_rows, reports):
    """`predict` loads only the rows of its inputs, with row 0 first, and maps
    each index to its position among them."""
    model, path = saved_for_rows
    X = np.zeros((len(reports), model.cfg.seq_len), dtype=np.int64)
    for row, report in zip(X, reports):
        row[:len(report)] = report
    ids = np.union1d(0, X)
    compact = load_model(path, rows=ids)
    assert compact.cfg == dataclasses.replace(model.cfg, vocab_size=len(ids))
    assert compact.emb.tobytes() == model.emb[ids].tobytes()
    _, want = nnet.predict_batch(model, X)
    _, got = nnet.predict_batch(compact, np.searchsorted(ids, X))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _rewrite_meta(data, path, edit):
    """Write `data` to `path` with its metadata changed by `edit`."""
    start = len(nnet._MAGIC) + 8
    meta_len = int.from_bytes(data[len(nnet._MAGIC):start], "little")
    meta = json.loads(data[start:start + meta_len])
    edit(meta)
    raw = json.dumps(meta).encode()
    path.write_bytes(nnet._MAGIC + len(raw).to_bytes(8, "little") + raw + data[start + meta_len:])


@pytest.mark.parametrize("edit", [
    lambda meta: meta["tensors"][5].update(name="wx"),
    lambda meta: meta["config"].update(embed_dims=4),
    lambda meta: meta["tensors"][0].update(shape=[5, 3]),
    lambda meta: meta["config"].update(embed_dim=3),
])
def test_load_rejects_metadata_that_does_not_describe_the_tensors(saved_model, edit):
    _, data, path = saved_model
    _rewrite_meta(data, path, edit)
    with pytest.raises(ModelFormatError):
        load_model(path)


_OUT_OF_RANGE = [("embed_dim", 0), ("conv2_width", 0), ("batch_size", 0), ("epochs", -1),
                 ("vocab_size", 2.0), ("dropout_rate", 1.0), ("dropout_rate", -0.1),
                 ("learning_rate", 0.0), ("learning_rate", float("inf")),
                 ("learning_rate", float("nan")), ("dtype", "float16")]


@pytest.mark.parametrize("key, value", _OUT_OF_RANGE)
def test_init_model_refuses_a_setting_out_of_range(key, value):
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    with pytest.raises(ConfigError, match=f"^model.{key}: expected "):
        init_model(dataclasses.replace(cfg, **{key: value}), 0)


@pytest.mark.parametrize("key, value", _OUT_OF_RANGE)
def test_load_rejects_a_config_out_of_range(saved_model, key, value):
    _, data, path = saved_model
    _rewrite_meta(data, path, lambda meta: meta["config"].update({key: value}))
    with pytest.raises(ModelFormatError, match=f"model.{key}: expected "):
        load_model(path)


def test_load_rejects_tensors_of_another_dtype_than_the_config(saved_model, tmp_path):
    """float16 tensors loaded as float16 arrays into a float32 model."""
    model, _, _ = saved_model
    half = Model(model.cfg, *(getattr(model, n).astype(np.float16) for n in nnet.PARAM_NAMES))
    path = tmp_path / "half.bin"
    save_model(half, path)
    with pytest.raises(ModelFormatError, match="tensor emb is float16 .*needs float32"):
        load_model(path)
    _rewrite_meta(path.read_bytes(), path, lambda meta: meta["config"].update(dtype="float16"))
    with pytest.raises(ModelFormatError, match="model.dtype: expected"):
        load_model(path)


def test_load_rejects_malformed_metadata_bytes(saved_model):
    _, data, path = saved_model
    for raw in (b"\xff\xfe", b"{not json", b"[1, 2]"):
        path.write_bytes(nnet._MAGIC + len(raw).to_bytes(8, "little") + raw)
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_load_refuses_dictionary_hash_mismatch(tmp_path):
    cfg = ModelConfig(vocab_size=5, seq_len=10, embed_dim=2, conv1_filters=2,
                      conv1_width=2, conv2_filters=2, conv2_width=2, pool_size=2)
    p = tmp_path / "model.bin"
    save_model(init_model(cfg, 0, dict_hash="expected"), p)
    with pytest.raises(ModelFormatError, match="trained with dictionary 'expected'"):
        load_model(p, expected_dict_hash="different")
    assert load_model(p, expected_dict_hash="expected").dict_hash == "expected"
