"""The dense CNN forward and backward passes as they were before the
padding-aware prefix bound, kept verbatim as the reference for the
differential tests in test_nnet.py.

They gather, convolve and scatter every one of the seq_len input positions,
padding included. `_Adam` is the optimizer as it was before it worked in
place, also kept verbatim.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from smelltriage.nnet import Model

_LOSS_EPS = 1e-7


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pool(act: np.ndarray, pool: int, out_len: int):
    """Max-pool along axis 1; returns pooled values and argmax offsets
    (first occurrence on ties, which is numpy argmax behaviour)."""
    b, _, f = act.shape
    windows = act[:, : out_len * pool].reshape(b, out_len, pool, f)
    idx = windows.argmax(axis=2)
    pooled = np.take_along_axis(windows, idx[:, :, None, :], axis=2)[:, :, 0, :]
    return pooled, idx


def forward_batch(model: Model, X: np.ndarray, training: bool = False,
                  rng: np.random.Generator | None = None,
                  dropout_mask: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Probabilities for a batch of index sequences, plus cached activations."""
    cfg = model.cfg
    t1, p1, t2, p2, flat = cfg.stage_lengths()
    X = np.asarray(X)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != cfg.seq_len:
        raise ValueError(f"sequence length {X.shape[1]} != configured {cfg.seq_len}")
    bad = np.argwhere(X >= cfg.vocab_size)
    if bad.size:
        r, c = bad[0]
        raise ValueError(f"index {X[r, c]} >= vocab size {cfg.vocab_size} at position {c}")
    b = X.shape[0]

    E = model.emb[X]                                            # (B, L, q)
    win1 = sliding_window_view(E, cfg.conv1_width, axis=1)      # (B, t1, q, width)
    win1 = np.ascontiguousarray(win1.transpose(0, 1, 3, 2)).reshape(b, t1, -1)
    w1f = model.w1.reshape(cfg.conv1_filters, -1)
    Z1 = win1 @ w1f.T + model.b1
    A1 = np.maximum(Z1, 0.0)
    P1, idx1 = _pool(A1, cfg.pool_size, p1)

    win2 = sliding_window_view(P1, cfg.conv2_width, axis=1)
    win2 = np.ascontiguousarray(win2.transpose(0, 1, 3, 2)).reshape(b, t2, -1)
    w2f = model.w2.reshape(cfg.conv2_filters, -1)
    Z2 = win2 @ w2f.T + model.b2
    A2 = np.maximum(Z2, 0.0)
    P2, idx2 = _pool(A2, cfg.pool_size, p2)

    flat_act = P2.reshape(b, flat)
    if dropout_mask is None and training and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("training forward with dropout needs an rng")
        keep = 1.0 - cfg.dropout_rate
        dropout_mask = (rng.random(flat_act.shape) < keep).astype(flat_act.dtype) / keep
    dropped = flat_act if dropout_mask is None else flat_act * dropout_mask

    z = dropped @ model.wd + model.bd
    prob = _sigmoid(z)
    cache = {
        "X": X, "win1": win1, "Z1": Z1, "idx1": idx1, "win2": win2, "Z2": Z2,
        "idx2": idx2, "flat": flat_act, "mask": dropout_mask, "dropped": dropped,
        "prob": prob,
    }
    return prob, cache


def _unpool(dP: np.ndarray, idx: np.ndarray, pool: int, full_len: int) -> np.ndarray:
    b, out_len, f = dP.shape
    d_windows = np.zeros((b, out_len, pool, f), dtype=dP.dtype)
    np.put_along_axis(d_windows, idx[:, :, None, :], dP[:, :, None, :], axis=2)
    d_full = np.zeros((b, full_len, f), dtype=dP.dtype)
    d_full[:, : out_len * pool] = d_windows.reshape(b, out_len * pool, f)
    return d_full


def backward_batch(model: Model, cache: dict, y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the mean batch loss for every trainable parameter.
    Max-pool routes gradient to the first argmax position; embedding row 0
    stays frozen (zero gradient)."""
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
    dA2 = _unpool(dP2, cache["idx2"], cfg.pool_size, t2)
    dZ2 = dA2 * (cache["Z2"] > 0)
    w2f = model.w2.reshape(cfg.conv2_filters, -1)
    dw2 = (dZ2.reshape(b * t2, -1).T @ cache["win2"].reshape(b * t2, -1)).reshape(model.w2.shape)
    db2 = dZ2.sum(axis=(0, 1))
    dwin2 = (dZ2 @ w2f).reshape(b, t2, cfg.conv2_width, cfg.conv1_filters)
    dP1 = np.zeros((b, p1, cfg.conv1_filters), dtype=dZ2.dtype)
    for j in range(cfg.conv2_width):
        dP1[:, j: j + t2] += dwin2[:, :, j, :]

    dA1 = _unpool(dP1, cache["idx1"], cfg.pool_size, t1)
    dZ1 = dA1 * (cache["Z1"] > 0)
    w1f = model.w1.reshape(cfg.conv1_filters, -1)
    dw1 = (dZ1.reshape(b * t1, -1).T @ cache["win1"].reshape(b * t1, -1)).reshape(model.w1.shape)
    db1 = dZ1.sum(axis=(0, 1))
    dwin1 = (dZ1 @ w1f).reshape(b, t1, cfg.conv1_width, cfg.embed_dim)
    dE = np.zeros((b, cfg.seq_len, cfg.embed_dim), dtype=dZ1.dtype)
    for j in range(cfg.conv1_width):
        dE[:, j: j + t1] += dwin1[:, :, j, :]
    demb = np.zeros_like(model.emb)
    np.add.at(demb, X, dE)
    demb[0] = 0.0

    return {"emb": demb, "w1": dw1, "b1": db1, "w2": dw2, "b2": db2,
            "wd": dwd, "bd": np.asarray(dbd, dtype=model.bd.dtype)}


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        for k, p in params.items():
            g = grads[k]
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / (1 - self.b1 ** self.t)
            vhat = self.v[k] / (1 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
