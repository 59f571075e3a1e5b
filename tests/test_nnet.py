import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    prob = nnet.forward_batch(_hand_model(), [1, 2, 3, 0, 1, 2, 3, 0])[0][0]
    assert prob == pytest.approx(0.5, abs=1e-12)


def test_forward_hand_computation_with_bias_shift():
    prob = nnet.forward_batch(_hand_model(bd=0.0), [1, 2, 3, 0, 1, 2, 3, 0])[0][0]
    assert prob == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_all_pad_input_gives_half():
    # embedding row 0 is zero, so the whole network collapses to sigmoid(bd)
    model = _hand_model(bd=0.0)
    prob = nnet.forward_batch(model, [0] * 8)[0][0]
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
        nnet.forward_batch(model, [1, 2, 9, 0, 0, 0, 0, 0])


def test_forward_rejects_wrong_length():
    with pytest.raises(ValueError, match="length"):
        nnet.forward_batch(_hand_model(), [1, 2, 3])


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
    assert h1.epochs == h2.epochs


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
    trained, history = nnet.train(model, np.zeros((2, 10), dtype=int),
                                  np.array([0, 0]), seed=0)
    assert history.epochs == []
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


@settings(max_examples=400)
@given(kind=st.sampled_from(["truncate", "flip", "append"]), at=st.integers(min_value=0),
       xor=st.integers(1, 255), extra=st.binary(min_size=1, max_size=8))
def test_load_rejects_or_reproduces_a_mutated_file(saved_model, kind, at, xor, extra):
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
        loaded = load_model(path)
    except ModelFormatError:
        return
    assert kind == "flip"
    payload = len(data) - sum(getattr(model, n).nbytes for n in nnet.PARAM_NAMES)
    for name in nnet.PARAM_NAMES:
        a, b = getattr(model, name), getattr(loaded, name)
        assert a.shape == b.shape and a.dtype == b.dtype
    if i < payload:
        for name in nnet.PARAM_NAMES:
            np.testing.assert_array_equal(getattr(model, name), getattr(loaded, name))
    else:  # the tensor bytes carry no checksum: the flipped byte loads as written
        assert b"".join(getattr(loaded, n).tobytes() for n in nnet.PARAM_NAMES) == \
            mutated[payload:]


@pytest.mark.parametrize("edit", [
    lambda meta: meta["tensors"][5].update(name="wx"),
    lambda meta: meta["config"].update(embed_dims=4),
    lambda meta: meta["tensors"][0].update(shape=[5, 3]),
    lambda meta: meta["config"].update(embed_dim=3),
])
def test_load_rejects_metadata_that_does_not_describe_the_tensors(saved_model, edit):
    _, data, path = saved_model
    meta_len = int.from_bytes(data[len(nnet._MAGIC):len(nnet._MAGIC) + 8], "little")
    start = len(nnet._MAGIC) + 8
    meta = json.loads(data[start:start + meta_len])
    edit(meta)
    raw = json.dumps(meta).encode()
    path.write_bytes(nnet._MAGIC + len(raw).to_bytes(8, "little") + raw + data[start + meta_len:])
    with pytest.raises(ModelFormatError):
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
