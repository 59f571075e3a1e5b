"""SMOTE oversampling of the minority class on fixed-dimension real vectors.

Applied here to padded word-index sequences: synthetic samples are linear
interpolations between a minority sample and one of its k nearest minority
neighbours, optionally rounded back to valid integer indices so they stay
feedable to the embedding layer. Neighbours are computed only for the minority
samples SMOTE visits, one distance row at a time, so memory is O(n*L) for n
minority samples of length L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class BalanceError(ValueError):
    pass


class TooFewMinorityError(BalanceError):
    """The minority class has too few samples to pick neighbours among."""


@dataclass
class SmoteRecord:
    """Provenance of one synthetic sample: s = x + g * (n - x)."""

    base_index: int
    neighbor_index: int
    gap: float
    pre_rounding: np.ndarray  # a view of the row in the pre-rounding array


@dataclass
class SmoteResult:
    X: np.ndarray               # originals followed by synthetics
    y: np.ndarray
    synthetic: np.ndarray       # bool flag per output sample
    records: list[SmoteRecord] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def k_nearest_minority(X_minority: np.ndarray, index: int, k: int) -> list[int]:
    """Indices of the k nearest minority samples (Euclidean, self excluded,
    ties broken by lower sample index)."""
    X = np.asarray(X_minority, dtype=np.float64)
    n = len(X)
    if n <= 1:
        raise TooFewMinorityError("minority class has <= 1 sample, cannot pick neighbors")
    if k < 1:
        raise BalanceError("k must be >= 1")
    d = np.linalg.norm(X - X[index], axis=1)
    d[index] = np.inf
    return np.argsort(d, kind="stable")[:min(k, n - 1)].tolist()


def smote(X: np.ndarray, y: np.ndarray, k: int = 5, seed: int = 0,
          rounding: bool = True, max_index: int | None = None) -> SmoteResult:
    """Oversample the minority class until class counts are equal.

    Minority samples are visited round-robin; the neighbour is drawn uniformly
    among the k nearest minority samples and the gap g ~ U[0, 1]. With
    rounding on, coordinates are rounded to the nearest integer and clipped to
    [0, max_index]. Deterministic per seed.
    """
    X = np.asarray(X)
    y = np.asarray(y).astype(int)
    diagnostics: list[str] = []
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise BalanceError("both classes must be present to balance")
    minority = classes[np.argmin(counts)]
    deficit = int(counts.max() - counts.min())
    records: list[SmoteRecord] = []
    if deficit == 0:
        return SmoteResult(X.copy(), y.copy(), np.zeros(len(y), dtype=bool), [], diagnostics)

    minority_idx = np.flatnonzero(y == minority)
    Xm = X[minority_idx].astype(np.float64)
    if len(Xm) <= 1:
        raise TooFewMinorityError("minority class has <= 1 sample, cannot oversample")
    if len(Xm) <= k:
        diagnostics.append(f"k shrunk from {k} to {len(Xm) - 1}: minority count {len(Xm)}")
        k = len(Xm) - 1

    # neighbours only of the bases the round-robin below visits
    neighbor_table = [k_nearest_minority(Xm, b, k) for b in range(min(deficit, len(Xm)))]

    rng = np.random.default_rng(seed)
    synth = np.empty((deficit, X.shape[1]), dtype=np.float64)
    for i in range(deficit):
        base = i % len(Xm)
        nb = neighbor_table[base][rng.integers(k)]
        g = rng.random()
        synth[i] = Xm[base] + g * (Xm[nb] - Xm[base])
        records.append(SmoteRecord(int(minority_idx[base]), int(minority_idx[nb]),
                                   float(g), synth[i]))
    if rounding:  # np.rint makes a new array: the records keep the values before rounding
        synth = np.rint(synth)
        if max_index is not None:
            synth = np.clip(synth, 0, max_index)
        synth = synth.astype(X.dtype)
        out_X = np.concatenate([X, synth])
    else:
        out_X = np.concatenate([X.astype(np.float64), synth])
    out_y = np.concatenate([y, np.full(deficit, minority, dtype=y.dtype)])
    flags = np.concatenate([np.zeros(len(y), dtype=bool), np.ones(deficit, dtype=bool)])
    return SmoteResult(out_X, out_y, flags, records, diagnostics)
