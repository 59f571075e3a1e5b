"""Acceptance suite: nine numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; the two training-based criteria share three full 5-fold runs
through a session fixture and together take several minutes.
"""

import json
import time

import numpy as np
import pytest

from smelltriage import balance, cli, datafiles, evaluation, nnet, synthetic, textprep
from smelltriage.labeler import label_commit, smell_delta
from smelltriage.smellscan import RuleThresholds, SmellRule, SmellVector, scan_source
from smelltriage.stemmer import stem

from conftest import SMELL_FIXTURE_DIR, max_gradient_relative_error


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# -- 1: gradient correctness -------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng_master = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        seed = int(rng_master.integers(1, 10_000))
        rng = np.random.default_rng(seed)
        seq_len = int(rng.integers(6, 17))           # L <= 16
        cfg = nnet.ModelConfig(
            vocab_size=seq_len + int(rng.integers(1, 5)),
            seq_len=seq_len,
            embed_dim=int(rng.integers(1, 9)),       # q <= 8
            conv1_filters=int(rng.integers(1, 5)),   # F <= 4
            conv1_width=int(rng.integers(1, 4)),
            conv2_filters=int(rng.integers(1, 5)),
            conv2_width=int(rng.integers(1, 3)),
            pool_size=int(rng.integers(1, 3)),
            dropout_rate=0.5 if rng.random() < 0.5 else 0.0,
            dtype="float64",
        )
        try:
            cfg.stage_lengths()
        except nnet.ConfigError:
            continue
        model = nnet.init_model(cfg, seed=seed)
        # keep pre-activations off the rectifier kink and pooling tie-free
        model.b1 += rng.normal(0.0, 0.1, size=model.b1.shape)
        model.b2 += rng.normal(0.0, 0.1, size=model.b2.shape)
        X = np.stack([rng.permutation(cfg.vocab_size)[: cfg.seq_len]
                      for _ in range(2)])
        y = rng.integers(0, 2, size=2)
        # resample if a pre-activation sits within the finite-difference step
        # of the rectifier kink, where central differences are meaningless
        _, cache = nnet.forward_batch(model, X)
        if min(np.min(np.abs(cache["Z1"])), np.min(np.abs(cache["Z2"]))) < 1e-3:
            continue
        worst = max(worst, max_gradient_relative_error(model, X, y, h=1e-4))
        checked += 1
    elapsed = time.time() - t0
    _report(1, "analytic gradients match finite differences",
            worst < 1e-4 and elapsed < 60.0,
            f"20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- 2: smell golden fixtures ------------------------------------------------

def test_criterion_2_smell_golden_fixtures():
    manifest = json.loads((SMELL_FIXTURE_DIR / "manifest.json").read_text())
    failures = []
    rules_seen = set()
    for entry in manifest["fixtures"]:
        src = (SMELL_FIXTURE_DIR / entry["file"]).read_text(encoding="utf-8")
        overrides = dict(entry.get("thresholds", {}))
        if "allowed_package_prefixes" in overrides:
            overrides["allowed_package_prefixes"] = tuple(
                overrides["allowed_package_prefixes"])
        vec = scan_source(src, RuleThresholds(**overrides))
        fired = {SmellRule(i).name for i, f in enumerate(vec.flags) if f}
        expected = set() if entry["rule"] is None else {entry["rule"]}
        if fired != expected:
            failures.append(f"{entry['file']}: {sorted(fired)}")
        rules_seen |= expected
        for key in ("raw_cyclomatic_max", "raw_npath_max"):
            if key in entry["metrics"] and getattr(vec, key) != entry["metrics"][key]:
                failures.append(f"{entry['file']}: {key}")
    ok = not failures and len(rules_seen) == 16
    _report(2, "16 single-rule fixtures + 1 clean file match the manifest",
            ok, "; ".join(failures) if failures else "17 files")


# -- 3: labeler oracle -------------------------------------------------------

def test_criterion_3_labeler_oracle():
    rng = np.random.default_rng(7)
    pairs_done = 0
    disagreements = 0
    while pairs_done < 10_000:
        n_files = int(rng.integers(1, 11))
        pairs = []
        for _ in range(n_files):
            cur = SmellVector(tuple(rng.random(16) < 0.3))
            prev = None if rng.random() < 0.2 else SmellVector(tuple(rng.random(16) < 0.3))
            pairs.append((cur, prev))
        deltas = [smell_delta("a" * 40, f"F{i}.java", c, p)
                  for i, (c, p) in enumerate(pairs)]
        label, _ = label_commit(deltas)
        brute = 0
        for cur, prev in pairs:
            prev_flags = prev.flags if prev is not None else (False,) * 16
            if any(c and not p for c, p in zip(cur.flags, prev_flags)):
                brute = 1
        disagreements += int(label != brute)
        pairs_done += n_files
    _report(3, "label_commit agrees with brute-force 0->1 enumerator",
            disagreements == 0, f"{pairs_done} pairs, {disagreements} disagreements")


# -- 4: end-to-end fixture ---------------------------------------------------

def test_criterion_4_end_to_end_fixture(bug_repo, tmp_path):
    p = bug_repo["record_paths"]
    rc = cli.main([
        "--paths.issues", str(p["issues"]), "--paths.commits", str(p["commits"]),
        "--paths.links", str(p["links"]),
        "--paths.repo", str(bug_repo["repo"]), "--out", str(tmp_path),
        "build-dataset"])
    _, records = datafiles.read_jsonl(tmp_path / "dataset.jsonl")
    labels = {r["issue_id"]: r["label"] for r in records}
    ok = (rc in (0, 2) and len(records) == 3
          and labels == bug_repo["expected_labels"])
    _report(4, "scripted 5-commit repo yields 3 samples labeled (1,0,0)",
            ok, f"labels {labels}")


# -- 5: SMOTE geometry -------------------------------------------------------

def test_criterion_5_smote_geometry():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 50, size=(100, 20))
    y = np.array([0] * 80 + [1] * 20)
    res = balance.smote(X, y, k=5, seed=3)
    problems = []
    counts = np.bincount(res.y)
    if counts[0] != counts[1]:
        problems.append("class counts unequal")
    if not np.array_equal(res.X[:100], X) or not np.array_equal(res.y[:100], y):
        problems.append("originals not preserved")
    synth = res.X[100:].astype(float)
    for rec, s in zip(res.records, synth):
        base = X[rec.base_index].astype(float)
        nb = X[rec.neighbor_index].astype(float)
        if not (0.0 <= rec.gap <= 1.0):
            problems.append("gap outside [0,1]")
        if not np.allclose(rec.pre_rounding, base + rec.gap * (nb - base), atol=1e-9):
            problems.append("pre-rounding sample off its segment")
        if np.max(np.abs(s - rec.pre_rounding)) > 0.5 + 1e-9:
            problems.append("rounding moved a coordinate by > 0.5")
        if y[rec.base_index] != 1 or y[rec.neighbor_index] != 1:
            problems.append("segment endpoint not a minority sample")
    _report(5, "SMOTE balances 80/20 and synthetics lie on minority segments",
            not problems, "; ".join(sorted(set(problems))) or f"{len(synth)} synthetics")


# -- 6: fold properties ------------------------------------------------------

def test_criterion_6_fold_properties():
    rng = np.random.default_rng(11)
    trials = 0
    problems = 0
    while trials < 10_000:
        for k in (2, 3, 5, 10):
            n0 = int(rng.integers(k, 40))
            n1 = int(rng.integers(k, 40))
            y = rng.permutation(np.array([0] * n0 + [1] * n1))
            plan = evaluation.stratified_folds(y, k, int(rng.integers(0, 1 << 31)))
            a = plan.assignments
            if not ((a >= 0) & (a < k)).all():
                problems += 1
            for cls, total in ((0, n0), (1, n1)):
                per_fold = np.bincount(a[y == cls], minlength=k)
                if per_fold.sum() != total or per_fold.max() - per_fold.min() > 1:
                    problems += 1
            trials += 1
    _report(6, "folds disjoint, exhaustive, per-class sizes differ by <= 1",
            problems == 0, f"{trials} trials")


# -- 7 & 8: synthetic learnability and determinism ---------------------------

def _synthetic_run(seed: int) -> evaluation.ExperimentReport:
    gen = synthetic.SyntheticConfig()
    samples = synthetic.generate_reports(gen, seed=42)
    labels = np.array([s.label for s in samples])
    X, dictionary = textprep.featurize([s.text for s in samples], nnet.ModelConfig.seq_len)
    cfg = nnet.ModelConfig(vocab_size=dictionary.vocab_size)
    assert cfg.embed_dim == 128 and cfg.seq_len == 200 and cfg.epochs == 20
    assert evaluation.BalanceConfig().scope == "train"
    return evaluation.run_kfold_experiment(X, labels, cfg, k=5, seed=seed,
                                           project="synthetic")


@pytest.fixture(scope="session")
def synthetic_experiments():
    t0 = time.time()
    first = _synthetic_run(seed=0)
    elapsed = time.time() - t0
    return {
        "first": first,
        "repeat": _synthetic_run(seed=0),
        "other_seed": _synthetic_run(seed=1),
        "elapsed": elapsed,
    }


def test_criterion_7_synthetic_learnability(synthetic_experiments):
    mean = synthetic_experiments["first"].mean
    elapsed = synthetic_experiments["elapsed"]
    ok = (mean.accuracy >= 85.0 and mean.precision >= 80.0
          and mean.recall >= 80.0 and elapsed <= 600.0)
    _report(7, "5-fold mean accuracy >= 85%, precision/recall >= 80%", ok,
            f"acc {mean.accuracy:.1f}, prec {mean.precision:.1f}, "
            f"rec {mean.recall:.1f}, {elapsed:.0f}s")


def test_criterion_8_determinism(synthetic_experiments):
    first = synthetic_experiments["first"]
    repeat = synthetic_experiments["repeat"]
    other = synthetic_experiments["other_seed"]
    exact = ([r.to_record() for r in first.folds + [first.mean]]
             == [r.to_record() for r in repeat.folds + [repeat.mean]])
    drift = abs(first.mean.accuracy - other.mean.accuracy)
    ok = exact and drift <= 3.0
    _report(8, "same seed reproduces every report field; new seed within 3pp",
            ok, f"exact={exact}, |acc drift| {drift:.2f}pp")


# -- 9: stemmer regression ---------------------------------------------------

def test_criterion_9_stemmer_regression():
    expected = {"ordering": "order", "samples": "sampl", "caused": "caus",
                "large": "larg", "dfs": "df", "hdfs": "hdf"}
    got = {w: stem(w) for w in expected}
    _report(9, "published stemmed report tokens reproduced exactly",
            got == expected, str(got))
