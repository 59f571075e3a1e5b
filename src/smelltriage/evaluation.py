"""Stratified k-fold cross-validation, confusion-matrix metrics, and the
tabular experiment report."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import balance, nnet


class EvalError(ValueError):
    pass


class TooFewSamplesError(EvalError):
    """The samples cannot fill k folds: a class has fewer than k, or a training
    fold too few of the minority class to oversample."""


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # per-sample fold id in [0, k)

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train indices, test indices) for one fold."""
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


@dataclass
class MetricsRow:
    """All percentages in [0, 100]; undefined ratios reported as 0 + flag."""

    accuracy: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    train_accuracy: float = 0.0
    train_loss: float = 0.0
    undefined: tuple[str, ...] = ()
    project: str = ""
    sampling: str = ""
    test_percent: float = 0.0
    epochs: int = 0
    seed: int = 0
    fold: int | None = None

    def to_record(self) -> dict:
        return dataclasses.asdict(self)


def stratified_folds(labels, k: int, seed: int) -> FoldPlan:
    """Within each class, a seeded shuffle dealt round-robin into k folds;
    per-class fold sizes differ by at most one."""
    labels = np.asarray(labels).astype(int)
    if k < 2:
        raise EvalError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    assignments = np.full(len(labels), -1, dtype=int)
    for cls in sorted(np.unique(labels)):
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise TooFewSamplesError(f"class {cls} has {len(idx)} samples, fewer than k={k}")
        shuffled = rng.permutation(idx)
        for pos, sample in enumerate(shuffled):
            assignments[sample] = pos % k
    return FoldPlan(k=k, assignments=assignments)


def compute_metrics(y_true, y_pred) -> MetricsRow:
    """Accuracy, precision, recall and F1 of 0/1 predictions against 0/1 labels."""
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    tn = int(np.sum((y_pred == 0) & (y_true == 0)))
    total = tp + fp + fn + tn
    if total == 0:
        raise EvalError("no predictions to score")
    undefined = []
    accuracy = 100.0 * (tp + tn) / total
    if tp + fp > 0:
        precision = 100.0 * tp / (tp + fp)
    else:
        precision = 0.0
        undefined.append("precision")
    if tp + fn > 0:
        recall = 100.0 * tp / (tp + fn)
    else:
        recall = 0.0
        undefined.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        undefined.append("f1")
    return MetricsRow(accuracy=accuracy, precision=precision, recall=recall,
                      f1=f1, undefined=tuple(undefined))


@dataclass
class BalanceConfig:
    k: int = 5
    scope: Literal["train", "all", "both"] = "train"  # "train" is leak-free
    enabled: bool = True


@dataclass
class ExperimentReport:
    mean: MetricsRow
    folds: list[MetricsRow]
    diagnostics: list[str] = field(default_factory=list)


def _mean_row(rows: list[MetricsRow]) -> MetricsRow:
    means = {name: float(np.mean([getattr(r, name) for r in rows])) for name in
             ("accuracy", "precision", "recall", "f1", "train_accuracy", "train_loss")}
    return dataclasses.replace(rows[0], **means, fold=None,
                               undefined=tuple(sorted({u for r in rows for u in r.undefined})))


def run_kfold_experiment(X, y, model_cfg: nnet.ModelConfig,
                         balance_cfg: BalanceConfig | None = None,
                         k: int = 5, seed: int = 0,
                         project: str = "project") -> ExperimentReport:
    """Per fold: hold out as test, balance per the configured scope, train a
    fresh model, evaluate. Each fold derives its own child seed as seed XOR
    fold id, so results do not depend on execution order."""
    X = np.asarray(X)
    y = np.asarray(y).astype(int)
    balance_cfg = balance_cfg or BalanceConfig()
    if balance_cfg.enabled and balance_cfg.scope not in ("train", "all"):
        raise EvalError(f"balance scope {balance_cfg.scope!r}: an experiment balances "
                        f"either the training folds ('train') or all samples ('all')")
    diagnostics: list[str] = []
    sampling = "none"
    if balance_cfg.enabled:
        sampling = f"SMOTE/{balance_cfg.scope}"
    if balance_cfg.enabled and balance_cfg.scope == "all":
        res = balance.smote(X, y, k=balance_cfg.k, seed=seed,
                            max_index=model_cfg.vocab_size - 1)
        diagnostics.extend(res.diagnostics)
        X, y = res.X, res.y

    plan = stratified_folds(y, k, seed)
    rows: list[MetricsRow] = []
    for fold in range(k):
        child_seed = seed ^ fold
        train_idx, test_idx = plan.fold_indices(fold)
        X_train, y_train = X[train_idx], y[train_idx]
        X_test, y_test = X[test_idx], y[test_idx]
        try:
            if balance_cfg.enabled and balance_cfg.scope == "train":
                res = balance.smote(X_train, y_train, k=balance_cfg.k, seed=child_seed,
                                    max_index=model_cfg.vocab_size - 1)
                diagnostics.extend(f"fold {fold}: {d}" for d in res.diagnostics)
                X_train, y_train = res.X, res.y
            model = nnet.init_model(model_cfg, seed=child_seed)
            model, epochs = nnet.train(model, X_train, y_train, seed=child_seed)
        except balance.TooFewMinorityError as exc:
            raise TooFewSamplesError(f"fold {fold}: {exc}") from exc
        except ValueError as exc:  # BalanceError and ConfigError are ValueErrors
            raise EvalError(f"fold {fold}: {exc}") from exc
        y_pred, _ = nnet.predict_batch(model, X_test)
        last = epochs[-1] if epochs else {"accuracy": 0.0, "loss": 0.0}
        rows.append(dataclasses.replace(
            compute_metrics(y_test, y_pred),
            train_accuracy=last["accuracy"], train_loss=last["loss"], project=project,
            sampling=sampling, test_percent=100.0 / k, epochs=model_cfg.epochs, seed=seed,
            fold=fold))
    return ExperimentReport(mean=_mean_row(rows), folds=rows, diagnostics=diagnostics)


REPORT_COLUMNS = [
    "Alg.", "Project", "Class1", "Total", "Class1Percent", "Sampling",
    "TestPercent", "AccTrain", "LossTrain", "Acc", "Prec", "F1", "Recall",
]


def format_report(report: ExperimentReport, class1: int, total: int) -> str:
    """Delimiter-separated table: one line per fold plus the mean line."""
    lines = ["\t".join(REPORT_COLUMNS)]
    pct = round(100.0 * class1 / total) if total else 0
    for row in report.folds + [report.mean]:
        tag = f"fold{row.fold}" if row.fold is not None else "mean"
        lines.append("\t".join(str(v) for v in [
            "CNN", f"{row.project}/{tag}", class1, total, pct, row.sampling,
            round(row.test_percent, 1), round(row.train_accuracy, 1),
            round(row.train_loss, 3), round(row.accuracy, 1),
            round(row.precision, 1), round(row.f1, 1), round(row.recall, 1),
        ]))
    return "\n".join(lines) + "\n"
