"""Seeded, cached input generators for the benchmark workloads.

Inputs are built once per (workload, seed, size) under `perfbench/.cache` and
reused by later runs; generation is never timed. The program only ever sees
the generated files and arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path
from statistics import NormalDist

import numpy as np

from smelltriage import nnet, synthetic, textprep

CACHE = Path("perfbench/.cache")
FIXTURES = Path("tests/fixtures/smells")

# Workload parameters; SMOKE shrinks every size so all workloads run in seconds.
FULL = {
    "kfold-short": {"folds": 2, "epochs": 1, "experiment_seed": 0, "corpus_seed": 42,
                    "n_samples": 2000},
    "label": {"slots": 48, "large_slots": 6, "large_touches": 2, "fixes": 90,
              "feature_commits": 30, "feature_issues": 3000, "javadoc_lines": [
                  200, 300, 400, 500, 600, 750]},
    "predict": {"roots": 16000, "train_reports": 2500, "train_epochs": 2,
                "requests": 2048, "batch": 256},
}
SMOKE = {
    "kfold-short": {"folds": 2, "epochs": 1, "experiment_seed": 0, "corpus_seed": 42,
                    "n_samples": 120},
    "label": {"slots": 6, "large_slots": 1, "large_touches": 2, "fixes": 6,
              "feature_commits": 2, "feature_issues": 40, "javadoc_lines": [100]},
    "predict": {"roots": 600, "train_reports": 200, "train_epochs": 1,
                "requests": 40, "batch": 8},
}


def params(workload: str, smoke: bool) -> dict:
    return dict((SMOKE if smoke else FULL)[workload])


def _cached(key: str, build) -> Path:
    """Directory `key` under the cache, built by `build(tmp_dir)` on first use."""
    key += "-" + hashlib.sha1(json.dumps([FULL, SMOKE]).encode()).hexdigest()[:8]
    final = CACHE / key
    if (final / "done").exists():
        return final
    tmp = CACHE / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


# -- kfold-short ----------------------------------------------------------------

def kfold_corpus(smoke: bool) -> Path:
    """The criterion-7 corpus: SyntheticConfig() at generator seed 42, short
    balanced reports that leave 84% of seq_len as padding."""
    p = params("kfold-short", smoke)
    gen = synthetic.SyntheticConfig(n_samples=p["n_samples"])

    def build(d: Path):
        samples = synthetic.generate_reports(gen, seed=p["corpus_seed"])
        (d / "corpus.json").write_text(json.dumps({
            "texts": [s.text for s in samples],
            "labels": [s.label for s in samples],
        }))

    return _cached(f"kfold-short-{'smoke' if smoke else 'full'}", build) / "corpus.json"


# -- pseudo-English text, shared by the label and predict workloads ---------------

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "br", "cl", "cr", "dr", "fl", "gr", "pl", "pr", "sh", "st",
           "tr", "ch", "th", "sp"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "io"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "m", "nd", "rt", "st", "ck", "ng"]
_SUFFIXES = ["", "", "", "s", "ed", "ing", "er", "ation", "ness", "ment", "ly",
             "ize", "ful", "able", "ive", "ity", "ional", "ence"]
DESIGN_CUES = ["refactor", "coupling", "inheritance", "hierarchy", "abstraction",
               "interface", "dependency", "modular", "encapsulation", "cohesion"]


def make_roots(n: int, rng: np.random.Generator) -> list[str]:
    roots: set[str] = set()
    while len(roots) < n:
        k = int(rng.integers(1, 4))
        roots.add("".join(_ONSETS[rng.integers(len(_ONSETS))]
                          + _VOWELS[rng.integers(len(_VOWELS))]
                          + _CODAS[rng.integers(len(_CODAS))] for _ in range(k)))
    return sorted(roots)


def sentence(roots: list[str], n_words: int, rng: np.random.Generator) -> list[str]:
    """Words drawn from the root list by a Zipf(1) rank law, with random suffixes."""
    cdf = np.cumsum(1.0 / np.arange(1, len(roots) + 1))
    ranks = np.searchsorted(cdf, rng.random(n_words) * cdf[-1])
    suffixes = rng.integers(len(_SUFFIXES), size=n_words)
    return [roots[r] + _SUFFIXES[s] for r, s in zip(ranks, suffixes)]


def report(roots, rng, n_words: int, positive: bool) -> tuple[str, str]:
    """(summary, description); positives carry 2-4 design cues in the summary."""
    summary = sentence(roots, int(rng.integers(5, 13)), rng)
    if positive:
        for cue in rng.choice(len(DESIGN_CUES), size=int(rng.integers(2, 5)), replace=False):
            summary.insert(int(rng.integers(len(summary) + 1)), DESIGN_CUES[int(cue)])
    return " ".join(summary), " ".join(sentence(roots, n_words, rng))


def mixed_length(rng: np.random.Generator) -> int:
    """Heavy-tailed description length: median ~40 words, up to 600."""
    return int(np.clip(rng.lognormal(np.log(40), 0.9), 3, 600))


def length_ladder(n: int, rng: np.random.Generator) -> list[int]:
    """`n` description lengths at evenly spaced quantiles of the
    `mixed_length` law, shuffled: every seed gets the same amount of text."""
    law = NormalDist(np.log(40), 0.9)
    return [int(np.clip(np.exp(law.inv_cdf((i + 0.5) / n)), 3, 600))
            for i in rng.permutation(n)]


def shuffled_flags(n: int, share: float, rng: np.random.Generator) -> list[bool]:
    """Exactly round(n * share) True values in a seeded order."""
    k = round(n * share)
    return [bool(i < k) for i in rng.permutation(n)]


# -- label -----------------------------------------------------------------------

def _fixture_table() -> dict[str, str | None]:
    """Fixture file -> the one rule it fires under default thresholds
    (None for the clean file), from the golden manifest."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    return {e["file"]: e["rule"] for e in manifest["fixtures"] if "thresholds" not in e}


def _javadoc(lines: int, rng: np.random.Generator, roots: list[str]) -> str:
    body = "".join(f" * {' '.join(sentence(roots, int(rng.integers(3, 9)), rng))}\n"
                   for _ in range(lines))
    return "/**\n" + body + " */\n"


def _fast_import(repo: Path, commits: list[dict]) -> list[str]:
    """Write `commits` ({"date", "message", "files": {path: text}}) as a linear
    history with one `git fast-import`; returns the commit hashes."""
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True)
    chunks: list[bytes] = []
    blob_marks: dict[bytes, int] = {}
    mark = 0

    def data(payload: bytes) -> bytes:
        return b"data %d\n" % len(payload) + payload + b"\n"

    commit_marks = []
    for i, c in enumerate(commits):
        entries = []
        for path, text in sorted(c["files"].items()):
            payload = text.encode("utf-8")
            if payload not in blob_marks:
                mark += 1
                blob_marks[payload] = mark
                chunks.append(b"blob\nmark :%d\n" % mark + data(payload))
            entries.append(b"M 100644 :%d %s\n" % (blob_marks[payload], path.encode()))
        mark += 1
        commit_marks.append(mark)
        who = b"Bench <bench@example.com> %d +0000\n" % c["date"]
        chunks.append(b"commit refs/heads/main\nmark :%d\n" % mark
                      + b"author " + who + b"committer " + who
                      + data(c["message"].encode())
                      + (b"from :%d\n" % commit_marks[i - 1] if i else b"")
                      + b"".join(entries) + b"\n")
    marks = repo / ".git" / "bench-marks"
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet",
                    f"--export-marks={marks.resolve()}"],
                   input=b"".join(chunks), check=True, capture_output=True)
    table = dict(line.split() for line in marks.read_text().splitlines())
    marks.unlink()
    return [table[f":{m}"] for m in commit_marks]


def _iso(ts: int) -> str:
    return np.datetime_as_string(np.datetime64(ts, "s"), unit="s") + "Z"


def label_history(seed: int, smoke: bool) -> Path:
    """A git history of Java files built from the smell fixtures, plus the four
    record files, with a planted 0/1 label for every bug fix.

    Most files are fixture-sized, so their fixes are bound by git processes; a
    few "large" files carry a long Javadoc header whose blanked lines feed the
    scanner's line-anchored regexes. A fix rewrites 1-3 files: a planted 1
    moves a file to a fixture whose rule it did not fire before, a planted 0
    keeps each file's rule set (touching only a trailing comment) or cleans
    it. Files recur across fixes, so blobs are shared between commits.
    """
    p = params("label", smoke)

    def build(d: Path):
        rng = np.random.default_rng(seed)
        rules = _fixture_table()
        sources = {f: (FIXTURES / f).read_text(encoding="utf-8") for f in rules}
        smelly = sorted(f for f, r in rules.items() if r is not None)
        roots = make_roots(3000, rng)
        n_slots, n_large = p["slots"], p["large_slots"]
        paths = [f"src/main/java/org/bench/m{i:02d}/Unit{i:02d}.java" for i in range(n_slots)]
        headers = [""] * n_slots
        # the Javadoc lengths are a fixed ladder; the seed only picks the slots
        for slot, lines in zip(rng.permutation(n_slots)[:n_large],
                               rng.permutation(p["javadoc_lines"])):
            headers[int(slot)] = _javadoc(int(lines), rng, roots)
        large = [i for i in range(n_slots) if headers[i]]
        small = [i for i in range(n_slots) if not headers[i]]

        state = {i: ("Clean.java" if rng.random() < 0.5 else smelly[rng.integers(len(smelly))])
                 for i in range(n_slots)}
        revision = {i: 0 for i in range(n_slots)}

        def text(i: int) -> str:
            return headers[i] + sources[state[i]] + f"// revision {revision[i]}\n"

        def rewrite(i: int, positive: bool) -> bool:
            """Change slot i; returns whether a rule was added."""
            before = rules[state[i]]
            if positive:
                options = [f for f in smelly if rules[f] != before]
                state[i] = options[rng.integers(len(options))]
            elif before is not None and rng.random() < 0.3:
                state[i] = "Clean.java"
            revision[i] += 1
            return rules[state[i]] is not None and rules[state[i]] != before

        # small files are picked Zipf-like so a few of them recur often
        weights = 1.0 / np.arange(1, len(small) + 1)
        weights /= weights.sum()
        touches_large = [s for s in large for _ in range(p["large_touches"])]
        fix_large = set(rng.permutation(p["fixes"])[:len(touches_large)].tolist())
        large_queue = list(rng.permutation(touches_large))

        t0 = 1_500_000_000
        commits = [{"date": t0, "message": "initial import",
                    "files": {paths[i]: text(i) for i in range(n_slots)}}]
        expected: dict[str, int] = {}
        kinds = ["initial"]
        kind_order = ["fix"] * p["fixes"] + ["feature"] * p["feature_commits"]
        kind_order = [kind_order[i] for i in rng.permutation(len(kind_order))]
        # fixed shares of 1/2/3-file commits and of planted positives
        n = len(kind_order)
        sizes = [1] * round(0.55 * n) + [2] * round(0.3 * n)
        sizes = [(sizes + [3] * (n - len(sizes)))[i] for i in rng.permutation(n)]
        positives = shuffled_flags(n, 0.4, rng)
        fix_no = 0
        for step, kind in enumerate(kind_order):
            date = t0 + 3600 * len(commits)
            touched = set(rng.choice(small, size=sizes[step], replace=False, p=weights).tolist())
            if kind == "fix" and fix_no in fix_large:
                touched = {int(large_queue.pop())} | set(list(touched)[:1])
            positive = positives[step]
            added = False
            for i in sorted(touched):
                added |= rewrite(i, positive and (i == min(touched)))
            commits.append({"date": date, "message": f"{kind} {len(commits)}",
                            "files": {paths[i]: text(i) for i in sorted(touched)}})
            kinds.append(kind)
            if kind == "fix":
                expected[f"BUG-{fix_no:04d}"] = int(added)
                fix_no += 1

        hashes = _fast_import(d / "repo", commits)
        issues, commit_recs, changes, links = [], [], [], []
        for h, c in zip(hashes, commits):
            commit_recs.append({"Commit_Hash": h, "Committed_Date": _iso(c["date"])})
        fix_hashes = [h for h, k in zip(hashes, kinds) if k == "fix"]
        fix_commits = [c for c, k in zip(commits, kinds) if k == "fix"]

        def fake_commit(date: int) -> str:
            # linked commits that are never extracted need no git object
            h = hashlib.sha1(f"{seed}-{len(commit_recs)}".encode()).hexdigest()
            commit_recs.append({"Commit_Hash": h, "Committed_Date": _iso(date)})
            return h

        lengths = length_ladder(len(expected), rng)
        for issue_id, h, c, n_words in zip(expected, fix_hashes, fix_commits, lengths):
            summary, description = report(roots, rng, n_words, False)
            issues.append({"Issue_id": issue_id, "Issue_type": "Bug",
                           "Create_date": _iso(c["date"] - 86400), "Fixed_date": _iso(c["date"]),
                           "Summary_raw": summary, "Description_raw": description})
            links.append({"Issue_id": issue_id, "Commit_Hash": h})
            # earlier partial fixes: resolve_fix_commit must pick the latest
            for k in range(int(rng.integers(0, 3))):
                links.append({"Issue_id": issue_id,
                              "Commit_Hash": fake_commit(c["date"] - 600 * (k + 1))})
            for path in c["files"]:
                changes.append({"Commit_Hash": h, "File_path": path,
                                "Sum_added_lines": 1, "Sum_removed_lines": 1})
        for n in range(p["feature_issues"]):
            summary, description = report(roots, rng, 12, False)
            date = t0 + 60 * n
            issues.append({"Issue_id": f"FEAT-{n:05d}",
                           "Issue_type": "New Feature" if n % 3 else "Improvement",
                           "Create_date": _iso(date), "Fixed_date": _iso(date + 7200),
                           "Summary_raw": summary, "Description_raw": description})
            links.append({"Issue_id": f"FEAT-{n:05d}", "Commit_Hash": fake_commit(date + 7200)})
        order = rng.permutation(len(links))
        links = [links[i] for i in order]
        for name, recs in [("issues", issues), ("commits", commit_recs),
                           ("changes", changes), ("links", links)]:
            (d / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs),
                                             encoding="utf-8")
        (d / "expected.json").write_text(json.dumps(expected, sort_keys=True))

    return _cached(f"label-{'smoke' if smoke else 'full'}-s{seed}", build)


# -- predict -----------------------------------------------------------------------

def predict_model(smoke: bool) -> Path:
    """Dictionary and model trained once on pseudo-English reports with a large
    Zipf vocabulary; the same artifacts serve every seed."""
    p = params("predict", smoke)

    def build(d: Path):
        rng = np.random.default_rng(20220919)
        roots = make_roots(p["roots"], rng)
        (d / "roots.json").write_text(json.dumps(roots))
        docs, labels = [], []
        for i in range(p["train_reports"]):
            positive = bool(rng.random() < 0.5)
            summary, description = report(roots, rng, mixed_length(rng), positive)
            tokens = textprep.preprocess(summary) + textprep.preprocess(description)
            docs.append(textprep.TokenDocument(f"TRAIN-{i}", tokens))
            labels.append(int(positive))
        dictionary = textprep.build_vocabulary(docs)
        cfg = nnet.ModelConfig(vocab_size=dictionary.vocab_size, epochs=p["train_epochs"])
        X = np.array([textprep.doc2indices(doc, dictionary, cfg.seq_len) for doc in docs])
        model = nnet.init_model(cfg, seed=0, dict_hash=dictionary.content_hash())
        model, _ = nnet.train(model, X, np.array(labels), seed=0)
        nnet.save_model(model, d / "model.bin")
        dictionary.save(d / "dictionary.tsv")

    return _cached(f"predict-model-{'smoke' if smoke else 'full'}", build)


def predict_requests(seed: int, smoke: bool) -> Path:
    """Bug reports to classify in batches of `batch`; each batch has the same
    heavy-tailed mix of lengths and a third of it carries design cues."""
    p = params("predict", smoke)
    model_dir = predict_model(smoke)

    def build(d: Path):
        roots = json.loads((model_dir / "roots.json").read_text())
        rng = np.random.default_rng(seed)
        requests = []
        size = p["batch"]
        for _ in range(p["requests"] // size):  # every batch has the same length mix
            for n_words, positive in zip(length_ladder(size, rng),
                                         shuffled_flags(size, 1 / 3, rng)):
                summary, description = report(roots, rng, n_words, positive)
                requests.append({"summary": summary, "description": description,
                                 "label": int(positive)})
        (d / "requests.json").write_text(json.dumps(requests))

    return _cached(f"predict-requests-{'smoke' if smoke else 'full'}-s{seed}", build) / "requests.json"
