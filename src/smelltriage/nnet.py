"""Embedding + two conv/max-pool stages + dropout + sigmoid, with hand-written
forward/backward passes and Adam minibatch training. No autodiff framework;
everything is explicit numpy so gradients can be checked against finite
differences."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, asdict, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ConfigError, ModelConfig

FORMAT_VERSION = 1
_MAGIC = b"STMODEL1\n"
_LOSS_EPS = 1e-7


class ModelFormatError(ValueError):
    pass


PARAM_NAMES = ("emb", "w1", "b1", "w2", "b2", "wd", "bd")
_DTYPES = get_args(get_type_hints(ModelConfig)["dtype"])
_MIN_INT = {"epochs": 0}  # 0 epochs trains nothing; every other integer is a size >= 1


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter under cfg. Raises ConfigError naming the
    first setting out of its range, or the first stage that fails to compose."""
    for f in fields(ModelConfig):
        value, low = getattr(cfg, f.name), _MIN_INT.get(f.name, 1)
        if type(f.default) is int and not (type(value) is int and value >= low):
            raise ConfigError(f"model.{f.name}: expected an integer >= {low}, got {value!r}")
    if not (type(cfg.dropout_rate) in (int, float) and 0 <= cfg.dropout_rate < 1):
        raise ConfigError(f"model.dropout_rate: expected a number in [0, 1), "
                          f"got {cfg.dropout_rate!r}")
    if not (type(cfg.learning_rate) in (int, float) and 0 < cfg.learning_rate < math.inf):
        raise ConfigError(f"model.learning_rate: expected a finite number > 0, "
                          f"got {cfg.learning_rate!r}")
    if cfg.dtype not in _DTYPES:
        raise ConfigError(f"model.dtype: expected one of {', '.join(_DTYPES)}, got {cfg.dtype!r}")
    flat = cfg.stage_lengths()[-1]
    return {
        "emb": (cfg.vocab_size, cfg.embed_dim),
        "w1": (cfg.conv1_filters, cfg.conv1_width, cfg.embed_dim),
        "b1": (cfg.conv1_filters,),
        "w2": (cfg.conv2_filters, cfg.conv2_width, cfg.conv1_filters),
        "b2": (cfg.conv2_filters,),
        "wd": (flat,),
        "bd": (),
    }


@dataclass
class Model:
    cfg: ModelConfig
    emb: np.ndarray  # (V, q); row 0 frozen at zero
    w1: np.ndarray   # (F1, width1, q)
    b1: np.ndarray   # (F1,)
    w2: np.ndarray   # (F2, width2, F1)
    b2: np.ndarray   # (F2,)
    wd: np.ndarray   # (flatten,)
    bd: np.ndarray   # ()
    dict_hash: str = ""

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "Model":
        return Model(self.cfg, *(getattr(self, n).copy() for n in PARAM_NAMES),
                     dict_hash=self.dict_hash)


def init_model(cfg: ModelConfig, seed: int, dict_hash: str = "") -> Model:
    """Embedding rows ~ U(-0.05, 0.05) with row 0 zeroed; conv/dense weights
    scaled-normal with variance 2/fan_in; biases zero. Deterministic per seed."""
    shape = _param_shapes(cfg)
    rng = np.random.default_rng(seed)
    dt = np.dtype(cfg.dtype)
    emb = rng.uniform(-0.05, 0.05, size=shape["emb"])
    emb[0] = 0.0
    fan1 = cfg.conv1_width * cfg.embed_dim
    w1 = rng.normal(0.0, np.sqrt(2.0 / fan1), size=shape["w1"])
    fan2 = cfg.conv2_width * cfg.conv1_filters
    w2 = rng.normal(0.0, np.sqrt(2.0 / fan2), size=shape["w2"])
    wd = rng.normal(0.0, np.sqrt(2.0 / shape["wd"][0]), size=shape["wd"])
    return Model(
        cfg=cfg,
        emb=emb.astype(dt),
        w1=w1.astype(dt), b1=np.zeros(shape["b1"], dtype=dt),
        w2=w2.astype(dt), b2=np.zeros(shape["b2"], dtype=dt),
        wd=wd.astype(dt), bd=np.zeros(shape["bd"], dtype=dt),
        dict_hash=dict_hash,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pool_windows(act: np.ndarray, pool: int, out_len: int) -> np.ndarray:
    """The first out_len windows of `pool` rows along axis 1, as a view."""
    b, _, f = act.shape
    return act[:, : out_len * pool].reshape(b, out_len, pool, f)


def _pool(act: np.ndarray, pool: int, out_len: int) -> np.ndarray:
    """Max-pool along axis 1, by value: the maximum is the value at the
    offset that _pool_offsets gives."""
    return _pool_windows(act, pool, out_len).max(axis=2)


def _pool_offsets(act: np.ndarray, pool: int, out_len: int) -> np.ndarray:
    """The offset of each pool window's maximum, the first on ties (numpy
    argmax), by which backward_batch routes the pooled gradient."""
    return _pool_windows(act, pool, out_len).argmax(axis=2)


def _real_prefix(model: Model, X: np.ndarray, t1: int) -> int:
    """The number of conv1 windows that can see a real token. Inputs are
    right-padded with index 0, so while embedding row 0 is zero every window
    from the last non-zero column on holds only zeros and gives exactly b1.
    All t1 windows when row 0 is not zero; at least one."""
    if model.emb[0].any():
        return t1
    cols = np.flatnonzero(X.any(axis=0))
    return max(1, min(t1, int(cols[-1]) + 1 if cols.size else 0))


def _pooled_prefix(T: int, pool: int, p1: int) -> int:
    """The number of pool1 windows that hold one of the first T conv1 outputs."""
    return min(p1, -(-T // pool))


def check_indices(X: np.ndarray, vocab_size: int) -> None:
    """Raise ValueError naming the first index of the 2-D `X` outside
    [0, vocab_size): a negative one would read a row from the end."""
    bad = np.argwhere((X < 0) | (X >= vocab_size))
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"index {X[r, c]} not in [0, vocab size {vocab_size}) "
                         f"at position {c}")


def _as_batch(X, cfg: ModelConfig) -> np.ndarray:
    """`X` as an array, once it is a 2-D integer array of cfg.seq_len columns.
    Raises ValueError naming its shape or dtype otherwise."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D batch of index sequences, got shape {X.shape}")
    if not np.issubdtype(X.dtype, np.integer):
        raise ValueError(f"expected integer token indices, got dtype {X.dtype}")
    if X.shape[1] != cfg.seq_len:
        raise ValueError(f"sequence length {X.shape[1]} != configured {cfg.seq_len}")
    return X


def forward_batch(model: Model, X: np.ndarray,
                  dropout_mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Probabilities for a batch of index sequences, plus cached activations;
    `dropout_mask`, if given, scales the flattened pool2 outputs. The
    embedding, conv1 and pool1 run over the batch's real prefix only (see
    _real_prefix); the conv1 outputs past it are b1. Max-pooling keeps
    values only; backward_batch finds the offsets from the cached ReLU
    activations `A1` and `A2`."""
    cfg = model.cfg
    t1, p1, t2, p2, flat = cfg.stage_lengths()
    X = _as_batch(X, cfg)
    check_indices(X, cfg.vocab_size)
    b = X.shape[0]

    T = _real_prefix(model, X, t1)
    E = model.emb[X[:, : T + cfg.conv1_width - 1]]              # (B, T + width - 1, q)
    win1 = sliding_window_view(E, cfg.conv1_width, axis=1)      # (B, T, q, width)
    win1 = np.ascontiguousarray(win1.transpose(0, 1, 3, 2)).reshape(b, T, -1)
    w1f = model.w1.reshape(cfg.conv1_filters, -1)
    # one BLAS call over all B*T windows; a stacked (B, T, .) product makes B
    Z1 = np.empty((b, t1, cfg.conv1_filters), dtype=np.result_type(win1, w1f, model.b1))
    np.add((win1.reshape(b * T, -1) @ w1f.T).reshape(b, T, -1), model.b1, out=Z1[:, :T])
    Z1[:, T:] = model.b1
    n1 = _pooled_prefix(T, cfg.pool_size, p1)
    A1 = np.maximum(Z1[:, : n1 * cfg.pool_size], 0.0)
    P1 = _pool(A1, cfg.pool_size, n1)
    if n1 < p1:
        # a pool1 window wholly past the prefix pools the constant relu(b1)
        tail = (b, p1 - n1, cfg.conv1_filters)
        P1 = np.concatenate([P1, np.broadcast_to(np.maximum(model.b1, 0.0), tail)], axis=1)

    win2 = sliding_window_view(P1, cfg.conv2_width, axis=1)
    win2 = np.ascontiguousarray(win2.transpose(0, 1, 3, 2)).reshape(b, t2, -1)
    w2f = model.w2.reshape(cfg.conv2_filters, -1)
    # stacked on purpose: as one 2-D product it gives other last bits (t2=20)
    Z2 = win2 @ w2f.T + model.b2
    A2 = np.maximum(Z2, 0.0)
    P2 = _pool(A2, cfg.pool_size, p2)

    flat_act = P2.reshape(b, flat)
    dropped = flat_act if dropout_mask is None else flat_act * dropout_mask

    z = dropped @ model.wd + model.bd
    prob = _sigmoid(z)
    cache = {
        "X": X, "win1": win1, "Z1": Z1, "A1": A1, "win2": win2, "Z2": Z2,
        "A2": A2, "flat": flat_act, "mask": dropout_mask, "dropped": dropped,
        "prob": prob,
    }
    return prob, cache


def loss(prob, label) -> float:
    """Binary cross-entropy with probability clipped to [eps, 1-eps]."""
    p = np.clip(np.asarray(prob, dtype=np.float64), _LOSS_EPS, 1.0 - _LOSS_EPS)
    y = np.asarray(label, dtype=np.float64)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def _unpool(dP: np.ndarray, idx: np.ndarray, pool: int, full_len: int) -> np.ndarray:
    b, out_len, f = dP.shape
    d_full = np.zeros((b, full_len, f), dtype=dP.dtype)
    d_windows = d_full[:, : out_len * pool].reshape(b, out_len, pool, f)  # a view
    np.put_along_axis(d_windows, idx[:, :, None, :], dP[:, :, None, :], axis=2)
    return d_full


def backward_batch(model: Model, cache: dict, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean batch loss for every trainable parameter.
    Max-pool routes gradient to the first argmax position, found here from
    the cached ReLU activations; embedding row 0 stays frozen (zero
    gradient)."""
    cfg = model.cfg
    t1, p1, t2, p2, flat = cfg.stage_lengths()
    X = cache["X"]
    b = X.shape[0]
    y = np.asarray(y, dtype=cache["prob"].dtype)

    p_clip = np.clip(cache["prob"], _LOSS_EPS, 1.0 - _LOSS_EPS)
    # d(mean BCE)/dz for sigmoid output; exact also under clipping because
    # dL/dp * dp/dz collapses to (p - y) only when unclipped -- compute fully
    dL_dp = (p_clip - y) / (p_clip * (1.0 - p_clip)) / b
    dz = dL_dp * cache["prob"] * (1.0 - cache["prob"])

    dwd = cache["dropped"].T @ dz
    dbd = dz.sum()
    d_dropped = dz[:, None] * model.wd[None, :]
    d_flat = d_dropped if cache["mask"] is None else d_dropped * cache["mask"]

    dP2 = d_flat.reshape(b, p2, cfg.conv2_filters)
    idx2 = _pool_offsets(cache["A2"], cfg.pool_size, p2)
    dA2 = _unpool(dP2, idx2, cfg.pool_size, t2)
    dZ2 = dA2 * (cache["Z2"] > 0)
    w2f = model.w2.reshape(cfg.conv2_filters, -1)
    dw2 = (dZ2.reshape(b * t2, -1).T @ cache["win2"].reshape(b * t2, -1)).reshape(model.w2.shape)
    db2 = dZ2.sum(axis=(0, 1))
    dwin2 = (dZ2.reshape(b * t2, -1) @ w2f).reshape(b, t2, cfg.conv2_width, cfg.conv1_filters)
    dP1 = np.zeros((b, p1, cfg.conv1_filters), dtype=dZ2.dtype)
    for j in range(cfg.conv2_width):
        dP1[:, j: j + t2] += dwin2[:, :, j, :]

    # past the real prefix the conv1 windows hold only padding: their inputs
    # are zero, so they add nothing to dw1 or to the embedding gradient, and
    # each pool1 window there, all ties of relu(b1), routes its gradient to
    # its first position, where Z1 is b1
    T = cache["win1"].shape[1]
    n1 = _pooled_prefix(T, cfg.pool_size, p1)
    head = max(T, n1 * cfg.pool_size)
    idx1 = _pool_offsets(cache["A1"], cfg.pool_size, n1)
    dA1 = _unpool(dP1[:, :n1], idx1, cfg.pool_size, head)
    dZ1 = dA1 * (cache["Z1"][:, :head] > 0)
    db1 = dZ1.sum(axis=(0, 1)) + dP1[:, n1:].sum(axis=(0, 1)) * (model.b1 > 0)
    dZ1 = np.ascontiguousarray(dZ1[:, :T])
    w1f = model.w1.reshape(cfg.conv1_filters, -1)
    dw1 = (dZ1.reshape(b * T, -1).T @ cache["win1"].reshape(b * T, -1)).reshape(model.w1.shape)
    dwin1 = (dZ1.reshape(b * T, -1) @ w1f).reshape(b, T, cfg.conv1_width, cfg.embed_dim)
    dE = np.zeros((b, T + cfg.conv1_width - 1, cfg.embed_dim), dtype=dZ1.dtype)
    for j in range(cfg.conv1_width):
        dE[:, j: j + T] += dwin1[:, :, j, :]
    X = X[:, : T + cfg.conv1_width - 1]
    real = X != 0  # row 0 stays frozen
    demb = _scatter_rows(model.emb, X[real], dE[real])

    return {"emb": demb, "w1": dw1, "b1": db1, "w2": dw2, "b2": db2,
            "wd": dwd, "bd": np.asarray(dbd, dtype=model.bd.dtype)}


def _scatter_rows(emb: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A zero array shaped like `emb` with each of `rows` added to the row of
    its id, in order: the sums, and so the bits, of np.add.at(out, ids, rows).
    It runs as one 1-D scatter at the element indices id*q + column, which
    numpy does far faster than a scatter of rows."""
    out = np.zeros_like(emb)
    q = emb.shape[1]
    np.add.at(out.reshape(-1), (ids[:, None] * q + np.arange(q)).reshape(-1), rows.reshape(-1))
    return out


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        # two scratch arrays per parameter, so that a step allocates nothing
        self.scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        """m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
        p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps), in place, with
        the same operations in the same order and so the same bits."""
        self.t += 1
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            a, b = self.scratch[k]
            m *= self.b1
            m += np.multiply(1 - self.b1, g, out=a)
            v *= self.b2
            np.multiply(1 - self.b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1 - self.b1 ** self.t, out=a)  # mhat
            np.divide(v, 1 - self.b2 ** self.t, out=b)  # vhat
            np.sqrt(b, out=b)
            b += self.eps
            a *= self.lr
            a /= b
            p -= a


def train(model: Model, X: np.ndarray, y: np.ndarray, seed: int) -> tuple[Model, list[dict]]:
    """Minibatch Adam on shuffled samples. Returns the trained model and one
    {"epoch", "loss", "accuracy"} dict per epoch: mean loss and training
    accuracy at threshold 0.5. Deterministic per seed; the input model is not
    modified. epochs=0 returns a copy of the initial model and no epochs."""
    X = np.asarray(X)
    y = np.asarray(y)
    cfg = model.cfg
    if cfg.epochs > 0:
        if len(X) < 2 or len(np.unique(y)) < 2:
            raise ValueError("training needs at least two samples with both classes present")
    model = model.copy()
    epochs: list[dict] = []
    rng = np.random.default_rng(seed)
    opt = _Adam(model.params(), cfg.learning_rate)
    n = len(X)
    flat, keep = cfg.stage_lengths()[-1], 1.0 - cfg.dropout_rate
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            batch = perm[start: start + cfg.batch_size]
            xb, yb = X[batch], y[batch]
            mask = None
            if cfg.dropout_rate > 0.0:
                mask = (rng.random((len(batch), flat)) < keep).astype(cfg.dtype) / keep
            prob, cache = forward_batch(model, xb, dropout_mask=mask)
            grads = backward_batch(model, cache, yb)
            total_loss += loss(prob, yb) * len(batch)
            correct += int(np.sum((prob >= 0.5).astype(int) == yb))
            opt.step(model.params(), grads)
            model.emb[0] = 0.0  # padding row stays frozen
        epochs.append({
            "epoch": epoch + 1,
            "loss": total_loss / n,
            "accuracy": 100.0 * correct / n,
        })
    return model, epochs


def predict(model: Model, seq) -> tuple[int, float]:
    """Class 1 iff probability >= 0.5, for one index sequence."""
    labels, probs = predict_batch(model, np.asarray(seq)[None, :])
    return int(labels[0]), float(probs[0])


def predict_batch(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels and probabilities, from forward passes over cfg.batch_size rows
    at a time, so memory is bounded by one chunk and not by len(X). Rows go
    into chunks in order of their real length (up to the last non-zero
    index), so that each chunk's real prefix is short; each probability is
    written back at its row's position."""
    X = _as_batch(X, model.cfg)
    length = ((X != 0) * np.arange(1, X.shape[1] + 1)).max(axis=1, initial=0)
    order = np.argsort(length, kind="stable")
    step = model.cfg.batch_size
    prob = np.empty(len(X), dtype=model.wd.dtype)
    for i in range(0, len(X), step):
        rows = order[i: i + step]
        prob[rows] = forward_batch(model, X[rows])[0]
    return (prob >= 0.5).astype(int), prob


# ---------------------------------------------------------------------------
# Persistence: magic + JSON meta + raw row-major tensor bytes
# ---------------------------------------------------------------------------

def save_model(model: Model, path: str | Path) -> None:
    tensors = []
    blobs = []
    for name in PARAM_NAMES:
        arr = getattr(model, name)
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        tensors.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
        blobs.append(np.ascontiguousarray(arr).tobytes())
    meta = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.cfg),
        "dict_hash": model.dict_hash,
        "tensors": tensors,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(meta_bytes).to_bytes(8, "little"))
        fh.write(meta_bytes)
        for blob in blobs:
            fh.write(blob)


def _read_header(fh, path) -> tuple[dict, ModelConfig, dict[str, int]]:
    """The metadata, the config and the byte offset of each tensor of the
    open model file `fh`, once the header is known to describe a file of
    exactly this size. Raises ModelFormatError otherwise."""
    size = os.fstat(fh.fileno()).st_size
    if fh.read(len(_MAGIC)) != _MAGIC:
        raise ModelFormatError(f"{path}: bad magic at offset 0")
    pos = len(_MAGIC)
    if size < pos + 8:
        raise ModelFormatError(f"{path}: truncated header at offset {pos}")
    meta_len = int.from_bytes(fh.read(8), "little")
    pos += 8
    if size < pos + meta_len:  # checked before reading what the header claims
        raise ModelFormatError(f"{path}: truncated metadata at offset {pos}")
    try:
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise ModelFormatError(f"{path}: malformed metadata: {exc}") from exc
    pos += meta_len
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    try:
        cfg = ModelConfig(**meta["config"])
        shapes = _param_shapes(cfg)
        specs = [(t["name"], t["dtype"], tuple(t["shape"])) for t in meta["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ModelFormatError(f"{path}: malformed metadata: {exc!r}") from exc
    if [name for name, _, _ in specs] != list(PARAM_NAMES):
        raise ModelFormatError(f"{path}: tensors {[name for name, _, _ in specs]}, "
                               f"expected {list(PARAM_NAMES)}")
    offsets = {}
    for name, dtype, shape in specs:
        if dtype != cfg.dtype or shape != shapes[name]:
            raise ModelFormatError(f"{path}: tensor {name} is {dtype} {list(shape)}, but "
                                   f"the config needs {cfg.dtype} {list(shapes[name])}")
        offsets[name] = pos
        pos += math.prod(shapes[name]) * np.dtype(cfg.dtype).itemsize
        if size < pos:
            raise ModelFormatError(f"{path}: truncated tensor {name} at offset {offsets[name]}")
    if pos != size:
        raise ModelFormatError(f"{path}: {size - pos} trailing bytes after the last "
                               f"tensor at offset {pos}")
    return meta, cfg, offsets


def read_header(path: str | Path) -> tuple[ModelConfig, str]:
    """The config and the `dict_hash` of the model file at `path`, after
    every check of load_model that needs no tensor bytes."""
    with Path(path).open("rb") as fh:
        meta, cfg, _ = _read_header(fh, path)
    return cfg, meta.get("dict_hash", "")


def load_model(path: str | Path, expected_dict_hash: str | None = None,
               rows: np.ndarray | None = None) -> Model:
    """Read a file written by save_model. Any other content raises
    ModelFormatError: a truncated or extended file, malformed metadata, or
    tensors whose names or shapes do not match the stored config, or a model
    trained with a dictionary other than the one `expected_dict_hash` names.
    The tensor bytes themselves carry no checksum. The header is checked
    against the file's size before any tensor is read, and each tensor is
    read straight into its own array.

    With `rows`, an array of embedding row ids, only those rows of `emb` are
    read, by their offsets, and `emb[i]` of the model returned is row
    `rows[i]` of the file; `cfg.vocab_size` is `len(rows)`. Every other tensor
    is read whole. An id outside [0, vocab_size) raises ModelFormatError
    before any tensor byte is read. A model for inputs mapped to these
    positions, with row 0 kept first, gives the bits of the full model."""
    with Path(path).open("rb") as fh:
        meta, cfg, offsets = _read_header(fh, path)
        if expected_dict_hash is not None and meta.get("dict_hash") != expected_dict_hash:
            raise ModelFormatError(f"{path}: trained with dictionary {meta.get('dict_hash')!r}, "
                                   f"not the given one {expected_dict_hash!r}")
        shapes = _param_shapes(cfg)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            bad = rows[(rows < 0) | (rows >= cfg.vocab_size)]
            if bad.size:
                raise ModelFormatError(f"{path}: embedding row {bad[0]} not in "
                                       f"[0, vocab size {cfg.vocab_size})")
            cfg = replace(cfg, vocab_size=len(rows))
            shapes["emb"] = (len(rows), cfg.embed_dim)
        arrays = {name: np.empty(shapes[name], cfg.dtype) for name in PARAM_NAMES}
        # (offset, destination) of each read
        reads = {name: [(offsets[name], arrays[name])] for name in PARAM_NAMES}
        if rows is not None:
            row_bytes = cfg.embed_dim * np.dtype(cfg.dtype).itemsize
            reads["emb"] = [(offsets["emb"] + r * row_bytes, arrays["emb"][i])
                            for i, r in enumerate(rows.tolist())]
        for name in PARAM_NAMES:
            for offset, out in reads[name]:
                fh.seek(offset)
                if fh.readinto(out) != out.nbytes:  # the file shrank while being read
                    raise ModelFormatError(f"{path}: truncated tensor {name} at offset {offset}")
    return Model(cfg=cfg, dict_hash=meta.get("dict_hash", ""), **arrays)
