import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import smelltriage

# Example run times follow the machine's load, so a per-example deadline would
# fail tests for the load, not for the code.
settings.register_profile("smelltriage", deadline=None)
settings.load_profile("smelltriage")


def pytest_collection_modifyitems(items):
    """Mark as slow each test that needs the criterion 7 and 8 experiments,
    which train fifteen full models."""
    for item in items:
        if "synthetic_experiments" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment, plus `extra`, for a fresh interpreter that
    imports this package."""
    path = [str(Path(smelltriage.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


def modules_after(code: str) -> set[str]:
    """The names in `sys.modules` after a fresh interpreter runs `code`, with
    this package importable."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, env=child_env(), check=True)
    return set(proc.stdout.splitlines()[-1].split())


FIXTURE_DIR = Path(__file__).parent / "fixtures"
SMELL_FIXTURE_DIR = FIXTURE_DIR / "smells"

_CLEAN_SERVICE = """package demo;

public class Service {{
    private int total;

    public int getTotal() {{
        return total;
    }}

    void bump(int amount) {{
        if (amount > {threshold}) {{
            total = total + amount;
        }}
    }}
}}
"""


def _git(repo: Path, *args: str, date: str = "2020-01-01T00:00:00Z") -> str:
    env = dict(os.environ,
               GIT_AUTHOR_NAME="tester", GIT_AUTHOR_EMAIL="tester@example.com",
               GIT_COMMITTER_NAME="tester", GIT_COMMITTER_EMAIL="tester@example.com",
               GIT_AUTHOR_DATE=date, GIT_COMMITTER_DATE=date)
    proc = subprocess.run(["git", "-C", str(repo), *args],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def build_bug_repo(root: Path) -> dict:
    """A scripted five-commit repository with three linked bug issues.

    Only the first bug's fix introduces a smell (a God Class), so the
    hand-derived labels are BUG-1 -> 1, BUG-2 -> 0, BUG-3 -> 0.
    """
    repo = root / "repo"
    repo.mkdir()
    _git(repo, "init", "-q", "-b", "main")

    godclass_src = (SMELL_FIXTURE_DIR / "Kitchen.java").read_text(encoding="utf-8")
    dates = [f"2020-01-0{i}T12:00:00Z" for i in range(1, 6)]
    hashes = []

    # 1: baseline
    (repo / "Service.java").write_text(_CLEAN_SERVICE.format(threshold=0), encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "baseline", date=dates[0])
    hashes.append(_git(repo, "rev-parse", "HEAD"))

    # 2: BUG-1 fix adds a God Class
    (repo / "Kitchen.java").write_text(godclass_src, encoding="utf-8")
    (repo / "Service.java").write_text(_CLEAN_SERVICE.format(threshold=1), encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "fix overflow", date=dates[1])
    hashes.append(_git(repo, "rev-parse", "HEAD"))

    # 3: BUG-2 fix is a clean one-liner
    (repo / "Service.java").write_text(_CLEAN_SERVICE.format(threshold=2), encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "fix threshold", date=dates[2])
    hashes.append(_git(repo, "rev-parse", "HEAD"))

    # 4: unlinked feature work (not a bug fix)
    (repo / "README.txt").write_text("demo\n", encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "docs", date=dates[3])
    hashes.append(_git(repo, "rev-parse", "HEAD"))

    # 5: BUG-3 fix, again clean
    (repo / "Service.java").write_text(_CLEAN_SERVICE.format(threshold=3), encoding="utf-8")
    _git(repo, "add", "."), _git(repo, "commit", "-q", "-m", "fix off by one", date=dates[4])
    hashes.append(_git(repo, "rev-parse", "HEAD"))

    issues = [
        {"Issue_id": "BUG-1", "Issue_type": "Bug",
         "Create_date": "2020-01-01T08:00:00Z", "Fixed_date": dates[1],
         "Summary_raw": "total overflows on large batches",
         "Description_raw": "adding many samples causes the running total to overflow"},
        {"Issue_id": "BUG-2", "Issue_type": "Bug",
         "Create_date": "2020-01-02T08:00:00Z", "Fixed_date": dates[2],
         "Summary_raw": "threshold ordered wrong",
         "Description_raw": "small amounts are dropped although they should count"},
        {"Issue_id": "BUG-3", "Issue_type": "Bug",
         "Create_date": "2020-01-04T08:00:00Z", "Fixed_date": dates[4],
         "Summary_raw": "off by one in bump",
         "Description_raw": "the boundary amount is rejected"},
        {"Issue_id": "FEAT-1", "Issue_type": "New Feature",
         "Create_date": "2020-01-03T08:00:00Z", "Fixed_date": dates[3],
         "Summary_raw": "add readme", "Description_raw": "project needs docs"},
    ]
    commits = [{"Commit_Hash": h, "Committed_Date": d} for h, d in zip(hashes, dates)]
    links = [
        {"Issue_id": "BUG-1", "Commit_Hash": hashes[1]},
        {"Issue_id": "BUG-2", "Commit_Hash": hashes[2]},
        {"Issue_id": "FEAT-1", "Commit_Hash": hashes[3]},
        {"Issue_id": "BUG-3", "Commit_Hash": hashes[4]},
    ]
    changes = [
        {"Commit_Hash": hashes[1], "File_path": "Kitchen.java",
         "Sum_added_lines": 93, "Sum_removed_lines": 0},
        {"Commit_Hash": hashes[1], "File_path": "Service.java",
         "Sum_added_lines": 1, "Sum_removed_lines": 1},
        {"Commit_Hash": hashes[2], "File_path": "Service.java",
         "Sum_added_lines": 1, "Sum_removed_lines": 1},
        {"Commit_Hash": hashes[4], "File_path": "Service.java",
         "Sum_added_lines": 1, "Sum_removed_lines": 1},
    ]

    paths = {}
    for name, records in [("issues", issues), ("commits", commits),
                          ("changes", changes), ("links", links)]:
        p = root / f"{name}.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        paths[name] = p

    return {
        "repo": repo,
        "hashes": hashes,
        "record_paths": paths,
        "expected_labels": {"BUG-1": 1, "BUG-2": 0, "BUG-3": 0},
    }


@pytest.fixture(scope="session")
def bug_repo(tmp_path_factory):
    return build_bug_repo(tmp_path_factory.mktemp("bugrepo"))


def max_gradient_relative_error(model, X, y, h=1e-4):
    """Worst relative error between analytic gradients and central finite
    differences over every trainable parameter, with dropout fixed to a
    deterministic mask so both sides differentiate the same function."""
    import numpy as np
    from smelltriage import nnet

    rng = np.random.default_rng(123)
    flat = model.cfg.stage_lengths()[-1]
    keep = 1.0 - model.cfg.dropout_rate
    mask = None
    if model.cfg.dropout_rate > 0.0:
        mask = (rng.random((len(X), flat)) < keep).astype(np.float64) / keep

    prob, cache = nnet.forward_batch(model, X, dropout_mask=mask)
    grads = nnet.backward_batch(model, cache, y)

    worst = 0.0
    for name in nnet.PARAM_NAMES:
        param = getattr(model, name)
        flat_param = np.atleast_1d(param.reshape(-1))
        flat_grad = np.atleast_1d(grads[name].reshape(-1))
        for i in range(flat_param.size):
            orig = flat_param[i]
            if name == "emb" and i < model.cfg.embed_dim:
                continue  # row 0 is frozen
            flat_param[i] = orig + h
            p_plus, _ = nnet.forward_batch(model, X, dropout_mask=mask)
            flat_param[i] = orig - h
            p_minus, _ = nnet.forward_batch(model, X, dropout_mask=mask)
            flat_param[i] = orig
            numeric = (nnet.loss(p_plus, y) - nnet.loss(p_minus, y)) / (2 * h)
            denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
            worst = max(worst, abs(numeric - flat_grad[i]) / denom)
    return worst
