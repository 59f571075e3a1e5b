"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 fatal error, 2 success with diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import sys
from pathlib import Path

import numpy as np

from . import config, datafiles, nnet, textprep  # each command imports the other stages it runs

log = logging.getLogger("smelltriage")

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_DIAGNOSTICS = 2


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is fatal (exit 1) and one line, like every other failure;
    argparse's own exit code 2 would read as "completed with diagnostics".
    A flag is spelled in full, as in a config file: no prefix of it matches."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_FATAL, f"error: {message} (see {self.prog} --help)\n")

    def parse_args(self, args=None, namespace=None):
        """As argparse, but an unknown flag before the command is an error that
        names it; argparse would read the flag's value as the command."""
        args = sys.argv[1:] if args is None else list(args)
        rest = iter(args)
        for arg in rest:
            if not arg.startswith("-") or arg == "--":
                break  # the command
            flag, eq, _ = arg.partition("=")
            action = self._option_string_actions.get(flag)
            if action is None:
                self.error(f"unrecognized arguments: {flag}")
            if not eq and action.nargs != 0:
                next(rest, None)  # the flag's value
        return super().parse_args(args, namespace)


@functools.cache  # one option per config key: built once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="smelltriage",
        description="Label bug fixes by the code smells they introduced and "
                    "predict that label from new bug-report text.",
    )
    parser.add_argument("--config", help="JSON run-configuration file")
    # `--out` is a second spelling of `--paths.out_dir`
    parser.add_argument("--out", dest="paths.out_dir", metavar="OUT", help="output directory")
    for dotted, _ in config.flat_keys():
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="VALUE")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("build-dataset", help="corpus -> smell scan -> labeled dataset")
    sub.add_parser("scan-smells", help="emit per (commit, file) smell vectors")
    sub.add_parser("label", help="label a corpus from pre-computed smell vectors")
    sub.add_parser("train", help="train the classifier on a labeled dataset")
    sub.add_parser("evaluate", help="k-fold cross-validated report")
    p = sub.add_parser("predict", help="classify one bug report")
    p.add_argument("--summary", default="")
    p.add_argument("--description", default="")
    return parser


def _config_from_args(args) -> config.RunConfig:
    overrides = {key: getattr(args, key) for key, _ in config.flat_keys()
                 if getattr(args, key, None) is not None}
    return config.load_config(args.config, overrides)


def _required(cfg: config.RunConfig, key: str) -> str:
    """The path setting `paths.<key>`, which the command cannot run without."""
    value = getattr(cfg.paths, key)
    if not value:
        raise config.ConfigError(f"missing input: paths.{key}")
    return value


def _load_store(cfg: config.RunConfig) -> tuple[corpus.CorpusStore, list[str]]:
    from . import corpus
    store = corpus.CorpusStore(source_extensions=cfg.source_extensions)
    diagnostics: list[str] = []
    # each kind is read from the paths key of its name; changed files come from git
    for kind in (corpus.RecordKind.ISSUES, corpus.RecordKind.COMMITS, corpus.RecordKind.LINKS):
        result = store.ingest_records(_required(cfg, kind.value), kind)
        diagnostics.extend(result.diagnostics)
        log.info("ingested %d %s records", result.accepted, kind.value)
    return store, diagnostics


def _git_source(cfg: config.RunConfig, store: corpus.CorpusStore) -> labeler.GitScanSource:
    """The built-in scanner over the checkout at `paths.repo`."""
    from . import corpus, labeler
    store.repo_path = Path(_required(cfg, "repo"))
    try:
        store._git("rev-parse", "--git-dir")
    except corpus.GitCommandError:
        raise config.ConfigError(f"paths.repo: {store.repo_path} is not a git repository") from None
    return labeler.GitScanSource(store=store, thresholds=cfg.smell)


def _smell_source(cfg: config.RunConfig, store: corpus.CorpusStore):
    from . import labeler
    if path := cfg.paths.smell_vectors:
        return labeler.VectorTableSource.from_records(datafiles.read_jsonl(path)[1], path)
    return _git_source(cfg, store)


def _write_dataset(cfg: config.RunConfig, dataset: labeler.LabeledDataset) -> Path:
    out_dir = Path(cfg.paths.out_dir)
    ds_path = Path(cfg.paths.dataset) if cfg.paths.dataset else out_dir / "dataset.jsonl"
    datafiles.write_jsonl(ds_path, [s.to_record() for s in dataset.samples],
                          seed=cfg.seed, kind="labeled-dataset")
    datafiles.write_jsonl(out_dir / "statistics.jsonl", [dataset.stats.to_record()],
                          seed=cfg.seed, kind="dataset-statistics")
    if dataset.skipped:
        datafiles.write_jsonl(out_dir / "skipped.jsonl",
                              [{"reason": r} for r in dataset.skipped],
                              seed=cfg.seed, kind="skip-report")
    return ds_path


def cmd_build_dataset(cfg: config.RunConfig) -> int:
    from . import labeler
    store, diagnostics = _load_store(cfg)
    source = _smell_source(cfg, store)
    dataset = labeler.build_labeled_dataset(store, source, project=cfg.project)
    _write_dataset(cfg, dataset)
    diagnostics.extend(dataset.diagnostics)
    log.info("dataset: %d samples, %d class-1 (%.1f%%), %d skipped",
             dataset.stats.total, dataset.stats.class1,
             dataset.stats.class1_percent, len(dataset.skipped))
    code = _exit_code(diagnostics)
    return EXIT_DIAGNOSTICS if dataset.skipped else code  # the skips are in skipped.jsonl


def cmd_scan_smells(cfg: config.RunConfig) -> int:
    from . import labeler
    store, diagnostics = _load_store(cfg)
    records = labeler.scan_fix_commits(store, _git_source(cfg, store), diagnostics)
    datafiles.write_jsonl(Path(cfg.paths.out_dir) / "smell_vectors.jsonl", records,
                          seed=cfg.seed, kind="smell-vectors")
    return _exit_code(diagnostics)


def cmd_label(cfg: config.RunConfig) -> int:
    _required(cfg, "smell_vectors")
    return cmd_build_dataset(cfg)


def _exit_code(diagnostics: list[str]) -> int:
    """Log each diagnostic of a run that completed; exit 2 if there were any."""
    for d in diagnostics:
        log.warning("%s", d)
    return EXIT_DIAGNOSTICS if diagnostics else EXIT_OK


def _training_inputs(cfg: config.RunConfig, samples: list[labeler.LabeledSample]):
    """Index rows, labels, the dictionary built from the sample texts and the
    model config sized to that dictionary."""
    X, dictionary = textprep.featurize([s.text for s in samples], cfg.model.seq_len,
                                       max_vocab=cfg.textprep.max_vocab)
    y = np.array([s.label for s in samples], dtype=int)
    return X, y, dictionary, dataclasses.replace(cfg.model, vocab_size=dictionary.vocab_size)


def _too_few_samples(ds_path: str, setting: str, exc: ValueError) -> ValueError:
    """`exc`, raised for a dataset too small for a setting, naming both."""
    return type(exc)(f"{ds_path}: too few samples for {setting}: {exc}")


def cmd_train(cfg: config.RunConfig) -> int:
    from . import balance, evaluation, labeler
    ds_path = _required(cfg, "dataset")
    evaluation.start_workers(1)  # the worker starts up while the dataset is read
    samples = labeler.load_dataset(ds_path)
    X, y, dictionary, model_cfg = _training_inputs(cfg, samples)
    k = cfg.balance.k if cfg.balance.enabled else None
    jobs = {"training": (X, y, model_cfg, k, cfg.seed, dictionary.content_hash())}
    try:  # in a one-thread worker, as a fold: no bit depends on the BLAS thread count
        [(model, epochs, diagnostics)] = evaluation.run_in_workers(evaluation.fit, jobs)
    except balance.TooFewMinorityError as exc:
        raise _too_few_samples(ds_path, "balance.enabled=true", exc) from None
    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = Path(cfg.paths.model) if cfg.paths.model else out_dir / "model.bin"
    nnet.save_model(model, model_path)
    dict_path = Path(cfg.paths.dictionary) if cfg.paths.dictionary else out_dir / "dictionary.tsv"
    dictionary.save(dict_path)
    datafiles.write_jsonl(out_dir / "history.jsonl", epochs, seed=cfg.seed, kind="train-history")
    if epochs:
        log.info("final training accuracy %.1f%%, loss %.4f",
                 epochs[-1]["accuracy"], epochs[-1]["loss"])
    return _exit_code(diagnostics)


def cmd_evaluate(cfg: config.RunConfig) -> int:
    from . import balance, evaluation, labeler
    ds_path = _required(cfg, "dataset")
    evaluation.start_workers(cfg.eval.folds)  # one per fold, as CPUs allow
    samples = labeler.load_dataset(ds_path)
    X, y, dictionary, model_cfg = _training_inputs(cfg, samples)
    scopes = ["train", "all"] if cfg.balance.scope == "both" else [cfg.balance.scope]
    out_dir = Path(cfg.paths.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    class1, total = int(np.sum(y == 1)), len(y)
    diagnostics: list[str] = []
    for scope in scopes:
        bal = dataclasses.replace(cfg.balance, scope=scope)
        try:
            report = evaluation.run_kfold_experiment(
                X, y, model_cfg, bal, k=cfg.eval.folds, seed=cfg.seed, project=cfg.project)
        except evaluation.TooFewSamplesError as exc:
            raise _too_few_samples(ds_path, f"eval.folds={cfg.eval.folds}", exc) from None
        except balance.TooFewMinorityError as exc:  # SMOTE of the whole dataset
            raise _too_few_samples(ds_path, f"balance.enabled=true, balance.scope={scope}",
                                   exc) from None
        suffix = f"_{scope}" if len(scopes) > 1 else ""
        (out_dir / f"report{suffix}.tsv").write_text(
            f"# seed={cfg.seed}\n" + evaluation.format_report(report, class1, total),
            encoding="utf-8")
        datafiles.write_jsonl(out_dir / f"report{suffix}.jsonl",
                              [r.to_record() for r in report.folds + [report.mean]],
                              seed=cfg.seed, kind="evaluation-report")
        log.info("scope=%s mean accuracy %.1f%%", scope, report.mean.accuracy)
        diagnostics.extend(f"scope={scope}: {d}" for d in report.diagnostics)
    return _exit_code(diagnostics)


def cmd_predict(cfg: config.RunConfig, summary: str, description: str) -> int:
    model_path, dict_path = _required(cfg, "model"), _required(cfg, "dictionary")
    model_cfg, dict_hash = nnet.read_header(model_path)
    text = textprep.report_text(summary, description)
    dictionary = textprep.load_words(dict_path, dict_hash, text, model_cfg.seq_len)
    if dictionary is None:  # each file is valid; the pair is not
        raise config.ConfigError(f"{model_path}: trained with dictionary "
                                 f"{dict_hash!r}, not with {dict_path}")
    if not text:  # build-dataset skips such a report: no model learned from one
        raise ValueError("empty report text: no letter or digit in the summary or description")
    X, _ = textprep.featurize([text], model_cfg.seq_len, dictionary)
    nnet.check_indices(X, model_cfg.vocab_size)
    # only the report's embedding rows, with the padding row first
    ids = np.union1d(0, X)
    model = nnet.load_model(model_path, rows=ids)
    [label], [prob] = nnet.predict_batch(model, np.searchsorted(ids, X))
    verdict = "refer to designer" if label == 1 else "assign to programmer"
    print(f"label={label} probability={prob:.6f}")
    print(verdict)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except config.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    commands = {"build-dataset": cmd_build_dataset, "scan-smells": cmd_scan_smells,
                "label": cmd_label, "train": cmd_train, "evaluate": cmd_evaluate,
                "predict": lambda cfg: cmd_predict(cfg, args.summary, args.description)}
    try:
        return commands[args.command](cfg)
    except (ValueError, OSError) as exc:  # the package's errors are these
        log.error("%s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
