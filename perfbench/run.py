"""smelltriage benchmark: one workload per call, metrics as one JSON line.

    python3 perfbench/run.py --workload kfold-short --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout. Workloads:

  kfold-short  criterion-7 corpus (2,000 short balanced reports, 84% padding),
               evaluation.run_kfold_experiment with SMOTE on the training folds
  label        labeler.build_labeled_dataset with GitScanSource over a seeded
               git history built from tests/fixtures/smells, planted labels
  predict      in-process `smelltriage predict` calls (closed loop, one
               client) and the batch path preprocess -> doc2indices ->
               nnet.predict_batch, with a saved model and a large dictionary

Inputs are generated from --seed and cached under perfbench/.cache. The
measurement runs in a fresh child process (perfbench/measure.py) so that its
peak RSS is the workload's own. BLAS is pinned to one thread. With --trace 0
the last stdout line carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; either way the run record, with the
environment and the workload parameters, goes to perfbench/results/.
--smoke runs every workload at a tiny size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORKLOADS = ("kfold-short", "label", "predict")
RESULTS = Path("perfbench/results")
CHILD_TIMEOUT_S = 170

# what each generic end-to-end metric is on each workload
MEANING = {
    "kfold-short": {"op_p10_ms": "one run_kfold_experiment (kfold_s below is the median)",
                    "items_per_s": "reports per second of k-fold experiment",
                    "quality_pct": "accuracy_pct: mean k-fold test accuracy"},
    "label": {"op_p10_ms": "one build_labeled_dataset pass over all fix commits",
              "items_per_s": "fix commits labeled per second (label_commits_per_s: median)",
              "quality_pct": "share of labels equal to the planted ones"},
    "predict": {"op_p10_ms": "one cli.main predict call (predict_p50_ms: median)",
                "items_per_s": "batch path reports/s (predict_batch_reports_per_s: median)",
                "quality_pct": "batch-path accuracy against planted labels"},
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _version(cmd: list[str]) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for f in sorted(Path("src/smelltriage").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = _version(["git", "rev-parse", "HEAD"]) if Path(".git").exists() else "not a git checkout"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git": _version(["git", "--version"]),
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)

    for needed in ("BENCHMARK.json", "src/smelltriage/cli.py", "tests/fixtures/smells/manifest.json"):
        if not Path(needed).is_file():
            return fail(f"{needed} not found; run from the root of a smelltriage checkout")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path[:0] = ["src", str(Path(__file__).parent)]
    import inputs  # generation imports numpy after the BLAS pin above

    t0 = time.perf_counter()
    if args.workload == "kfold-short":
        inputs.kfold_corpus(args.smoke)
    elif args.workload == "label":
        inputs.label_history(args.seed, args.smoke)
    else:
        inputs.predict_requests(args.seed, args.smoke)
    generate_s = time.perf_counter() - t0

    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-smoke' if args.smoke else ''}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).parent / "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out", str(RESULTS / f"spans-{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"measurement did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return fail(f"measurement exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    values = out["layers"] if args.trace else out
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    correct = not out["problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "params": inputs.params(args.workload, args.smoke),
        "environment": environment(),
        "generate_s": generate_s,
        "correct": correct, "problems": out["problems"],
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": metrics, "detail": out["detail"], "samples_ms": out["samples_ms"],
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        note = MEANING[args.workload].get(name, "")
        print(f"{args.workload:12s} {name:30s} {m['value']:14.6g} {m['unit']:8s} {note}")
    if not args.trace:
        for name, value in out["detail"].items():
            print(f"{args.workload:12s} {name:30s} {value:14.6g}")
    for problem in out["problems"][:10]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
