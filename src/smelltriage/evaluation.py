"""Stratified k-fold cross-validation, confusion-matrix metrics, the tabular
experiment report, and the one-thread worker processes every model trains in."""

from __future__ import annotations

import atexit
import contextlib
import dataclasses
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from . import balance, nnet
from .config import BalanceConfig


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
class ExperimentReport:
    mean: MetricsRow
    folds: list[MetricsRow]
    diagnostics: list[str] = field(default_factory=list)


def _mean_row(rows: list[MetricsRow]) -> MetricsRow:
    means = {name: float(np.mean([getattr(r, name) for r in rows])) for name in
             ("accuracy", "precision", "recall", "f1", "train_accuracy", "train_loss")}
    return dataclasses.replace(rows[0], **means, fold=None,
                               undefined=tuple(sorted({u for r in rows for u in r.undefined})))


def fit(X, y, model_cfg: nnet.ModelConfig, k: int | None, seed: int, dict_hash: str = ""):
    """(model, per-epoch history, SMOTE diagnostics) of training from `seed` on
    (X, y), balanced by SMOTE with k neighbours unless k is None."""
    model = nnet.init_model(model_cfg, seed=seed, dict_hash=dict_hash)
    diagnostics: list[str] = []
    if k is not None:
        res = balance.smote(X, y, k=k, seed=seed)
        X, y, diagnostics = res.X, res.y, res.diagnostics
    model, epochs = nnet.train(model, X, y, seed=seed)
    return model, epochs, diagnostics


def _run_fold(X_train, y_train, X_test, y_test, model_cfg, balance_cfg, meta):
    """One fold of run_kfold_experiment: `fit` the training rows, balanced if
    the scope is `train`, on the fold's child seed (seed XOR fold id), score
    the test rows. Returns the fold's row and diagnostics."""
    fold, child_seed = meta["fold"], meta["seed"] ^ meta["fold"]
    k = balance_cfg.k if balance_cfg.enabled and balance_cfg.scope == "train" else None
    try:
        model, epochs, diagnostics = fit(X_train, y_train, model_cfg, k, child_seed)
    except balance.TooFewMinorityError as exc:
        raise TooFewSamplesError(f"fold {fold}: {exc}") from exc
    except ValueError as exc:  # BalanceError and ConfigError are ValueErrors
        raise EvalError(f"fold {fold}: {exc}") from exc
    y_pred, _ = nnet.predict_batch(model, X_test)
    last = epochs[-1] if epochs else {"accuracy": 0.0, "loss": 0.0}
    row = dataclasses.replace(compute_metrics(y_test, y_pred), train_accuracy=last["accuracy"],
                              train_loss=last["loss"], **meta)
    return row, [f"fold {fold}: {d}" for d in diagnostics]


# Models train in worker processes that start before the first job and live
# as long as this process. Each runs BLAS on one thread: two workers with two
# threads each on two CPUs spin against each other and train several times
# slower than one process does.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_workers: list[subprocess.Popen] = []


def _serve() -> None:
    """A worker's loop: read pickled (function, arguments) jobs from stdin
    until EOF, write each (ok, result or exception) pickled to the original stdout.
    File descriptor 1 then points at stderr, so that nothing else printed can
    corrupt the replies."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    while True:
        try:
            fn, args = pickle.load(sys.stdin.buffer)
        except (EOFError, pickle.UnpicklingError):  # the parent closed stdin or died
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:  # raised again in the parent
            reply = (False, exc)
        try:
            replies.write(pickle.dumps(reply))
            replies.flush()
        except BrokenPipeError:  # the parent died
            return


def _start_worker() -> subprocess.Popen:
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    return subprocess.Popen(
        [sys.executable, "-c", "from smelltriage.evaluation import _serve; _serve()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)


def _stop_workers() -> None:
    """End every worker at once. Whatever job it runs is abandoned, and a
    worker that is still starting up need not finish its imports."""
    while _workers:
        worker = _workers.pop()
        worker.kill()
        with contextlib.suppress(OSError):
            worker.stdin.close()
        worker.wait()
        worker.stdout.close()


atexit.register(_stop_workers)


def start_workers(jobs: int) -> list[subprocess.Popen]:
    """The workers for `jobs` jobs, started unless they run: as many as the
    smaller of `jobs` and the usable CPUs (`os.cpu_count()` without an affinity
    set, as on macOS and Windows). A worker takes a while to import numpy and
    this package, so a command starts its workers before it reads its input."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(jobs, cpus or 1)
    while len(_workers) < n:
        _workers.append(_start_worker())
    return _workers[:n]


def run_in_workers(fn, jobs: dict[str, tuple]) -> list:
    """`fn(*args)` for the args of every named job, job i on worker i mod n,
    with the n workers of `start_workers`; results in job order. `fn` is
    pickled by name. The error of the lowest failing job is raised; a worker
    that died is an EvalError naming its job and the worker's exit code. After
    any error the workers are ended, and the next call starts new ones."""
    names, args = list(jobs), list(jobs.values())
    workers = start_workers(len(jobs))
    n = len(workers)

    def send(i: int) -> None:
        workers[i % n].stdin.write(pickle.dumps((fn, args[i])))
        workers[i % n].stdin.flush()

    replies = []
    job = 0  # the job being sent or whose reply is being read
    try:
        for job in range(n):
            send(job)
        for i in range(len(jobs)):
            job = i
            replies.append(pickle.load(workers[i % n].stdout))
            if not replies[-1][0]:
                break
            if i + n < len(jobs):
                job = i + n
                send(job)
    except BaseException as exc:
        if isinstance(exc, (OSError, EOFError, pickle.UnpicklingError)):
            with contextlib.suppress(subprocess.TimeoutExpired):  # a dying worker's own code
                workers[job % n].wait(timeout=1)
            _stop_workers()
            code = workers[job % n].returncode
            message = f"{names[job]}: its worker process ended with exit code {code}"
            raise EvalError(message) from None
        _stop_workers()
        raise
    ok, value = replies[-1]
    if not ok:
        _stop_workers()
        raise value
    return [value for _, value in replies]


def run_kfold_experiment(X, y, model_cfg: nnet.ModelConfig,
                         balance_cfg: BalanceConfig | None = None,
                         k: int = 5, seed: int = 0,
                         project: str = "project") -> ExperimentReport:
    """Per fold: hold out as test, balance per the configured scope, train a
    fresh model, evaluate. Each fold derives its own child seed as seed XOR
    fold id, so results do not depend on execution order: the folds run in
    `run_in_workers`'s worker processes, one BLAS thread each."""
    X = np.asarray(X)
    y = np.asarray(y).astype(int)
    balance_cfg = balance_cfg or BalanceConfig()
    if balance_cfg.enabled and balance_cfg.scope not in ("train", "all"):
        raise EvalError(f"balance scope {balance_cfg.scope!r}: an experiment balances "
                        f"either the training folds ('train') or all samples ('all')")
    diagnostics: list[str] = []
    sampling = f"SMOTE/{balance_cfg.scope}" if balance_cfg.enabled else "none"
    if balance_cfg.enabled and balance_cfg.scope == "all":
        res = balance.smote(X, y, k=balance_cfg.k, seed=seed)
        diagnostics.extend(res.diagnostics)
        X, y = res.X, res.y

    plan = stratified_folds(y, k, seed)
    jobs = {}
    for fold in range(k):
        train_idx, test_idx = plan.fold_indices(fold)
        meta = dict(project=project, sampling=sampling, test_percent=100.0 / k,
                    epochs=model_cfg.epochs, seed=seed, fold=fold)
        jobs[f"fold {fold}"] = (X[train_idx], y[train_idx], X[test_idx], y[test_idx],
                                model_cfg, balance_cfg, meta)
    results = run_in_workers(_run_fold, jobs)
    rows = [row for row, _ in results]
    diagnostics += [d for _, fold_diagnostics in results for d in fold_diagnostics]
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
