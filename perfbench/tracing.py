"""In-memory spans and counts around the public functions of each smelltriage
module, installed from outside the package by swapping module attributes.

Every traced call becomes a span (id, name, start, end, parent, op). Spans and
counts stay in memory; `Tracer.write` dumps them when the run ends. Aggregates
are kept online so per-layer metrics need no second pass over the spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute path) of every traced boundary; the span name is
# "<module>.<attribute path>".
TARGETS = [
    ("textprep", "tokenize"),
    ("textprep", "build_vocabulary"),
    ("textprep", "doc2indices"),
    ("textprep", "preprocess"),
    ("textprep", "Dictionary.load"),
    ("textprep", "Dictionary.content_hash"),
    ("stemmer", "stem"),
    ("nnet", "init_model"),
    ("nnet", "train"),
    ("nnet", "forward_batch"),
    ("nnet", "backward_batch"),
    ("nnet", "predict"),
    ("nnet", "predict_batch"),
    ("nnet", "load_model"),
    ("balance", "smote"),
    ("evaluation", "run_kfold_experiment"),
    ("corpus", "CorpusStore.ingest_records"),
    ("corpus", "CorpusStore.resolve_fix_commit"),
    ("corpus", "CorpusStore.changed_files_with_contents"),
    ("corpus", "CorpusStore._git"),
    ("smellscan", "scan_source"),
    ("smellscan", "strip_comments_and_strings"),
    ("smellscan", "scan_metrics"),
    ("smellscan", "npath_of_block"),
    ("smellscan", "evaluate_rules"),
    ("labeler", "build_labeled_dataset"),
    ("cli", "main"),
]

# spans kept per name for the trace file; aggregates always cover every call
SPAN_CAP = 20_000


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.kept = Counter()
        self.dropped = 0
        self.counts: Counter = Counter()
        # (phase, name) -> aggregate over outermost calls of `name`
        self.agg: dict[tuple[str, str], _Agg] = defaultdict(_Agg)
        # (phase, parent name, name) -> total ns of direct children
        self.child_ns: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child_ns]
        self._active: Counter = Counter()
        self._next_id = 1
        self.phase = "none"
        self.op = 0
        self.seen_blobs: set[bytes] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, children = frame
        dur = end - start
        self._active[name] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            self.child_ns[(self.phase, parent[1], name)] += dur
        if self._active[name] == 0:  # outermost call of a recursive function
            a = self.agg[(self.phase, name)]
            a.calls += 1
            a.total_ns += dur
            a.self_ns += dur - children
        else:
            self.counts[(self.phase, name + ".nested_calls")] += 1
        if self.kept[name] < SPAN_CAP:
            self.kept[name] += 1
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.op))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, n: int | float = 1) -> None:
        self.counts[(self.phase, name)] += n

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every smelltriage module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "smelltriage" or k.startswith("smelltriage.")]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"smelltriage.{mod_name}"]
            name = f"{mod_name}.{attr}"
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            raw = getattr(module, leaf)
            wrapped = self._wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._restore.append((m, key, raw))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, fn, args, kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"_header": {
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                "spans_dropped": self.dropped,
                "counts": {f"{p}/{n}": v for (p, n), v in sorted(self.counts.items())},
            }}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # -- aggregate queries ------------------------------------------------------

    def total_s(self, name: str, phase: str = "op") -> float:
        return self.agg[(phase, name)].total_ns / 1e9

    def self_s(self, name: str, phase: str = "op") -> float:
        return self.agg[(phase, name)].self_ns / 1e9

    def calls(self, name: str, phase: str = "op") -> int:
        return self.agg[(phase, name)].calls

    def under_s(self, parent: str, name: str, phase: str = "op") -> float:
        return self.child_ns[(phase, parent, name)] / 1e9

    def mean_ms(self, name: str, phases=("setup", "op", "batch")) -> float:
        calls = sum(self.calls(name, p) for p in phases)
        total = sum(self.total_s(name, p) for p in phases)
        return 1e3 * total / calls if calls else 0.0

    def mean_self_ms(self, name: str, phase: str = "op") -> float:
        return 1e3 * _div(self.self_s(name, phase), self.calls(name, phase))

    def get(self, name: str, phases=("setup", "op", "batch")) -> float:
        return sum(self.counts[(p, name)] for p in phases)


# -- per-boundary counters ------------------------------------------------------

def _hook_doc2indices(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.count("textprep.positions", len(out))
    tracer.count("textprep.pad_positions", out.count(0))
    return out


def _hook_smote(tracer, fn, args, kwargs):
    """Every other call runs under tracemalloc for the peak; the time of the
    calls without it gives balance.smote_s, since tracing allocations slows
    SMOTE's per-synthetic loop."""
    measure_peak = tracer.counts[("all", "balance.smote_calls")] % 2 == 0
    tracer.counts[("all", "balance.smote_calls")] += 1
    if measure_peak:
        tracemalloc.start()
    t0 = time.perf_counter_ns()
    try:
        res = fn(*args, **kwargs)
    finally:
        if measure_peak:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    if measure_peak:
        tracer.counts[("all", "balance.smote_peak_bytes")] = max(
            tracer.counts[("all", "balance.smote_peak_bytes")], peak)
    else:
        tracer.count("balance.plain_smote_ns", time.perf_counter_ns() - t0)
        tracer.count("balance.plain_smote_calls")
    synthetic = int(res.synthetic.sum())
    tracer.count("balance.synthetic", synthetic)
    counts = Counter(res.y[~res.synthetic].tolist())
    tracer.count("balance.minority", min(counts.values()) if synthetic else 0)
    return res


def _hook_ingest(tracer, fn, args, kwargs):
    res = fn(*args, **kwargs)
    tracer.count("corpus.records", res.accepted)
    return res


def _hook_scan_source(tracer, fn, args, kwargs):
    source = args[0] if args else kwargs["source"]
    data = source.encode("utf-8")
    tracer.count("smellscan.bytes", len(data))
    digest = hashlib.blake2b(data, digest_size=16).digest()
    if digest in tracer.seen_blobs:
        tracer.count("smellscan.repeats")
    tracer.seen_blobs.add(digest)
    return fn(*args, **kwargs)


_HOOKS = {
    "textprep.doc2indices": _hook_doc2indices,
    "balance.smote": _hook_smote,
    "corpus.CorpusStore.ingest_records": _hook_ingest,
    "smellscan.scan_source": _hook_scan_source,
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, ops: int, setups: int) -> dict[str, float]:
    """Per-layer metrics from the aggregates. Totals are per traced operation
    (`ops`) or per set-up repetition (`setups`); `_ms` figures are per call."""
    featurize = sum(t.total_s(f"textprep.{n}", "setup")
                    for n in ("tokenize", "build_vocabulary", "doc2indices"))
    train_s = t.total_s("nnet.train")
    fwd_train = t.under_s("nnet.train", "nnet.forward_batch")
    bwd_train = t.under_s("nnet.train", "nnet.backward_batch")
    batches_trained = t.calls("nnet.backward_batch")
    extract_calls = t.calls("corpus.CorpusStore.changed_files_with_contents")
    scan_s = t.total_s("smellscan.scan_source")
    scans = t.calls("smellscan.scan_source")
    stem_calls = sum(t.calls("stemmer.stem", p) for p in ("setup", "op", "batch"))
    stem_s = sum(t.total_s("stemmer.stem", p) for p in ("setup", "op", "batch"))
    return {
        "textprep.featurize_s": _div(featurize, setups),
        "textprep.pad_frac": _div(t.get("textprep.pad_positions"), t.get("textprep.positions")),
        "textprep.preprocess_ms": t.mean_ms("textprep.preprocess"),
        "textprep.dict_load_ms": t.mean_ms("textprep.Dictionary.load"),
        "textprep.dict_hash_ms": t.mean_ms("textprep.Dictionary.content_hash"),
        "stemmer.calls": _div(t.calls("stemmer.stem"), ops),
        "stemmer.us_per_call": _div(1e6 * stem_s, stem_calls),
        "nnet.forward_ms_per_batch": _div(1e3 * fwd_train, batches_trained),
        "nnet.backward_ms_per_batch": _div(1e3 * bwd_train, batches_trained),
        "nnet.batches": _div(batches_trained, ops),
        "nnet.train_other_s": _div(train_s - fwd_train - bwd_train, ops),
        "nnet.predict_batch_s": 1e-3 * t.mean_ms("nnet.predict_batch"),
        "nnet.load_model_ms": t.mean_ms("nnet.load_model"),
        "balance.smote_peak_mib": t.counts[("all", "balance.smote_peak_bytes")] / 2**20,
        "balance.smote_s": _div(t.calls("balance.smote"), ops) * _div(
            t.get("balance.plain_smote_ns", ("op",)) / 1e9,
            t.get("balance.plain_smote_calls", ("op",))),
        "balance.minority_n": _div(t.get("balance.minority", ("op",)), t.calls("balance.smote")),
        "balance.synthetic_n": _div(t.get("balance.synthetic", ("op",)), t.calls("balance.smote")),
        "evaluation.self_s": _div(t.self_s("evaluation.run_kfold_experiment"), ops),
        "corpus.ingest_s": _div(t.total_s("corpus.CorpusStore.ingest_records", "setup"), setups),
        "corpus.records": _div(t.get("corpus.records", ("setup",)), setups),
        "corpus.resolve_s": _div(t.total_s("corpus.CorpusStore.resolve_fix_commit"), ops),
        "corpus.extract_ms_per_commit": _div(
            1e3 * t.total_s("corpus.CorpusStore.changed_files_with_contents"), extract_calls),
        "corpus.git_procs_per_commit": _div(
            t.calls("corpus.CorpusStore._git"), extract_calls),
        "smellscan.strip_s": _div(t.total_s("smellscan.strip_comments_and_strings"), ops),
        "smellscan.metrics_s": _div(t.total_s("smellscan.scan_metrics"), ops),
        "smellscan.npath_s": _div(t.total_s("smellscan.npath_of_block"), ops),
        "smellscan.rules_s": _div(t.total_s("smellscan.evaluate_rules"), ops),
        "smellscan.mb_per_s": _div(t.get("smellscan.bytes", ("op",)) / 1e6, scan_s),
        "smellscan.files": _div(scans, ops),
        "smellscan.repeat_frac": _div(t.get("smellscan.repeats", ("op",)), scans),
        "labeler.self_s": _div(t.self_s("labeler.build_labeled_dataset"), ops),
        "cli.overhead_ms": t.mean_self_ms("cli.main"),
    }
