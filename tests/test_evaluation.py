import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import child_env
from smelltriage import evaluation, nnet
from smelltriage.evaluation import (
    BalanceConfig, EvalError, MetricsRow, compute_metrics, format_report,
    run_kfold_experiment, stratified_folds,
)


def _labels(tp=0, fp=0, fn=0, tn=0) -> tuple[list[int], list[int]]:
    """(y_true, y_pred) with the given confusion counts."""
    return [1] * tp + [0] * fp + [1] * fn + [0] * tn, [1] * (tp + fp) + [0] * (fn + tn)


def test_compute_metrics_counts_predictions():
    row = compute_metrics([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])  # tp 2, fn 1, tn 1, fp 1
    assert row.accuracy == pytest.approx(60.0)
    assert row.precision == pytest.approx(200.0 / 3)
    assert row.recall == pytest.approx(200.0 / 3)


def test_compute_metrics_hand_values():
    row = compute_metrics(*_labels(tp=30, fp=10, fn=20, tn=40))
    assert row.accuracy == pytest.approx(70.0)
    assert row.precision == pytest.approx(75.0)
    assert row.recall == pytest.approx(60.0)
    assert row.f1 == pytest.approx(2 * 75 * 60 / (75 + 60))
    assert row.undefined == ()


def test_compute_metrics_zero_denominators_flagged():
    row = compute_metrics(*_labels(tn=10))
    assert row.precision == 0.0 and row.recall == 0.0 and row.f1 == 0.0
    assert set(row.undefined) == {"precision", "recall", "f1"}


def test_compute_metrics_rejects_empty():
    with pytest.raises(EvalError):
        compute_metrics([], [])


def test_stratified_folds_rejects_small_classes():
    with pytest.raises(EvalError, match="fewer than k"):
        stratified_folds([0, 0, 0, 1, 1], k=3, seed=0)
    with pytest.raises(EvalError, match="k must be"):
        stratified_folds([0, 1], k=1, seed=0)


def test_stratified_folds_deterministic():
    y = np.array([0, 1] * 20)
    a = stratified_folds(y, 5, seed=4).assignments
    b = stratified_folds(y, 5, seed=4).assignments
    np.testing.assert_array_equal(a, b)


@settings(max_examples=50)
@given(st.integers(0, 10_000),
       st.sampled_from([2, 3, 5, 10]),
       st.integers(10, 60), st.integers(10, 60))
def test_fold_properties(seed, k, n0, n1):
    y = np.array([0] * n0 + [1] * n1)
    rng = np.random.default_rng(seed)
    y = y[rng.permutation(len(y))]
    plan = stratified_folds(y, k, seed)
    all_test = []
    for fold in range(k):
        train, test = plan.fold_indices(fold)
        assert set(train) & set(test) == set()
        assert sorted(np.concatenate([train, test])) == list(range(len(y)))
        all_test.extend(test)
        for cls in (0, 1):
            per_fold = [np.sum(y[plan.assignments == f] == cls) for f in range(k)]
            assert max(per_fold) - min(per_fold) <= 1
    # folds partition the samples
    assert sorted(all_test) == list(range(len(y)))


def _tiny_model_cfg(vocab):
    return nnet.ModelConfig(vocab_size=vocab, seq_len=12, embed_dim=4,
                            conv1_filters=2, conv1_width=3, conv2_filters=2,
                            conv2_width=2, pool_size=2, epochs=2, batch_size=8,
                            dtype="float64")


def _tiny_data(seed=0, n=40, vocab=20):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, vocab, size=(n, 12))
    y = (X[:, 0] > vocab // 2).astype(int)
    return X, y


def test_run_kfold_report_shape_and_metadata():
    X, y = _tiny_data()
    report = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5,
                                  project="demo")
    assert len(report.folds) == 3
    assert [r.fold for r in report.folds] == [0, 1, 2]
    assert report.mean.fold is None
    assert report.mean.project == "demo"
    assert report.mean.sampling == "SMOTE/train"
    assert report.folds[0].test_percent == pytest.approx(100.0 / 3)
    assert report.mean.accuracy == pytest.approx(
        np.mean([r.accuracy for r in report.folds]))
    assert all(r.train_accuracy > 0 and r.train_loss > 0 for r in report.folds)
    assert report.mean.train_loss == pytest.approx(
        np.mean([r.train_loss for r in report.folds]))


def test_metrics_record_holds_every_field_as_json():
    row = MetricsRow(accuracy=50.0, f1=12.5, undefined=("precision", "recall"), project="p",
                     sampling="none", test_percent=20.0, epochs=3, seed=7, fold=2)
    assert json.loads(json.dumps(row.to_record(), sort_keys=True)) == {
        "accuracy": 50.0, "precision": 0.0, "recall": 0.0, "f1": 12.5, "train_accuracy": 0.0,
        "train_loss": 0.0, "undefined": ["precision", "recall"], "project": "p",
        "sampling": "none", "test_percent": 20.0, "epochs": 3, "seed": 7, "fold": 2}


def test_run_kfold_deterministic():
    X, y = _tiny_data()
    a = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
    b = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
    assert [r.to_record() for r in a.folds] == [r.to_record() for r in b.folds]


def test_run_kfold_scope_all_balances_before_folding():
    X, y = _tiny_data()
    cfg = BalanceConfig(scope="all")
    report = run_kfold_experiment(X, y, _tiny_model_cfg(20), cfg, k=3, seed=5)
    assert report.mean.sampling == "SMOTE/all"


def test_run_kfold_refuses_scope_both():
    """`both` means two experiments, which only the CLI runs; the experiment
    used to skip SMOTE and label every row SMOTE/both."""
    X, y = _tiny_data()
    with pytest.raises(EvalError, match="balance scope 'both'"):
        run_kfold_experiment(X, y, _tiny_model_cfg(20), BalanceConfig(scope="both"), k=3)


def test_run_kfold_balance_disabled():
    X, y = _tiny_data()
    cfg = BalanceConfig(scope="none")
    report = run_kfold_experiment(X, y, _tiny_model_cfg(20), cfg, k=3, seed=5)
    assert report.mean.sampling == "none"


def test_format_report_layout():
    X, y = _tiny_data()
    report = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5,
                                  project="demo")
    text = format_report(report, class1=int(np.sum(y)), total=len(y))
    lines = text.strip().splitlines()
    assert lines[0].startswith("Alg.\tProject\tClass1")
    assert len(lines) == 1 + 3 + 1  # header + folds + mean
    assert lines[1].startswith("CNN\tdemo/fold0\t")
    assert lines[-1].startswith("CNN\tdemo/mean\t")


@pytest.mark.parametrize("scope", ["train", "all"])
def test_the_number_of_workers_does_not_change_the_report(scope, monkeypatch):
    X, y = _tiny_data()
    cfg = BalanceConfig(scope=scope)
    reports = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        report = run_kfold_experiment(X, y, _tiny_model_cfg(20), cfg, k=3, seed=5)
        reports.append(([r.to_record() for r in report.folds + [report.mean]],
                        report.diagnostics))
    assert reports[0] == reports[1]


def test_a_platform_without_an_affinity_set_runs_a_worker_per_cpu(monkeypatch):
    """macOS and Windows have no `os.sched_getaffinity`. There the workers are
    as many as `os.cpu_count()`, or one when it is unknown, and the report is
    the same."""
    X, y = _tiny_data()

    def run():
        report = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
        return [r.to_record() for r in report.folds + [report.mean]], report.diagnostics

    expected = run()
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, workers in ((None, 1), (2, 2)):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        evaluation._stop_workers()
        assert run() == expected and len(evaluation._workers) == workers


def _alive(pid: int) -> bool:
    """Whether `pid` runs; a zombie that no process has reaped yet does not."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


# Runs one experiment, prints each worker's pid and BLAS thread variables,
# then waits for stdin to close if asked to.
_CHILD = """
import sys
import numpy as np
from smelltriage import evaluation, nnet
X = np.random.default_rng(0).integers(0, 20, size=(40, 12))
cfg = nnet.ModelConfig(vocab_size=20, seq_len=12, embed_dim=4, conv1_filters=2, conv1_width=3,
                       conv2_filters=2, conv2_width=2, pool_size=2, epochs=1, batch_size=8)
evaluation.run_kfold_experiment(X, (X[:, 0] > 10).astype(int), cfg, k=3)
for w in evaluation._workers:
    env = dict(v.split("=", 1) for v in open(f"/proc/{w.pid}/environ").read().split("\\0") if v)
    print(w.pid, *(env.get(v) for v in evaluation._BLAS_THREAD_VARS))
print("ready", flush=True)
if sys.argv[1] == "wait":
    sys.stdin.read()
"""


def _start_child(how: str) -> tuple[subprocess.Popen, list[int]]:
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    child = subprocess.Popen([sys.executable, "-c", _CHILD, how], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True, env=env)
    pids = []
    for line in child.stdout:
        if line == "ready\n":
            break
        pid, *threads = line.split()
        assert threads == ["1", "1", "1"], line
        pids.append(int(pid))
    assert 1 <= len(pids) <= min(3, len(os.sched_getaffinity(0)))
    return child, pids


def test_workers_run_one_blas_thread_and_end_with_their_parent():
    child, pids = _start_child("exit")
    assert child.wait(timeout=60) == 0
    child.stdout.close()
    child.stdin.close()
    assert not any(_alive(pid) for pid in pids)

    child, pids = _start_child("wait")
    assert all(_alive(pid) for pid in pids)
    child.send_signal(signal.SIGKILL)  # no atexit hook runs: the workers see EOF
    child.wait(timeout=10)
    child.stdout.close()
    child.stdin.close()
    deadline = time.monotonic() + 10
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(_alive(pid) for pid in pids)


def test_a_dead_worker_is_an_error_naming_its_fold_and_the_next_call_starts_afresh():
    X, y = _tiny_data()
    first = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
    dead = evaluation._workers[0]
    dead.kill()
    dead.wait()
    with pytest.raises(EvalError, match=r"^fold 0: its worker process ended with exit code -9$"):
        run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
    assert evaluation._workers == [] and dead.stdin.closed
    again = run_kfold_experiment(X, y, _tiny_model_cfg(20), k=3, seed=5)
    assert dead not in evaluation._workers
    assert [r.to_record() for r in again.folds] == [r.to_record() for r in first.folds]


def test_a_worker_that_exits_on_its_own_is_reported_with_its_own_exit_code(monkeypatch):
    """The worker cannot unpickle a job function that its own module lacks:
    it exits with code 1, and the error names code 1, not the kill's -9."""
    def job():
        return 1
    job.__module__, job.__qualname__ = evaluation.__name__, "_set_in_the_parent_only"
    monkeypatch.setattr(evaluation, job.__qualname__, job, raising=False)
    for _ in range(3):
        with pytest.raises(EvalError, match=r"^job: its worker process ended with exit code 1$"):
            evaluation.run_in_workers(job, {"job": ()})
        assert evaluation._workers == []


def test_a_fold_error_is_raised_as_the_lowest_failing_fold_raised_it():
    """Every training fold holds one positive sample, too few to oversample;
    fold 0's error is raised, with its type, as an in-process loop raised it."""
    X, y = _tiny_data()
    y = np.zeros_like(y)
    y[:2] = 1
    with pytest.raises(evaluation.TooFewSamplesError,
                       match=r"^fold 0: minority class has <= 1 sample, cannot oversample$"):
        run_kfold_experiment(X, y, _tiny_model_cfg(20), k=2, seed=5)
    assert evaluation._workers == []
