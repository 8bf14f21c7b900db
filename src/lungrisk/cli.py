"""Command-line entry point: simulate | train | score | eval | compare | pancan.

Exit codes: 0 success, 2 usage or configuration (arguments that ask for more
memory than the machine has included), 3 data consistency,
4 I/O or file format (a fold worker that dies without its result included),
5 numeric failure, and 1 for a broken internal invariant, which is a bug.
Every command that draws random numbers requires an explicit, non-negative
--seed; reruns with identical arguments produce byte-identical primary
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import fileio, nnet, pancan, synthdata
from .errors import (
    ConfigError,
    DataConsistencyError,
    FoldWorkerError,
    FormatError,
    LungRiskError,
    NumericError,
)
from .preprocess import build_scan_example

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_NUMERIC = 5

# An error exits with the code of the first row it is an instance of, so a
# row for a subclass must precede its base's row. Subclasses without a row,
# such as OutOfBoundsError (a DataConsistencyError) and ChecksumError (a
# FormatError), take their base's code; a LungRiskError that no earlier row
# names is a broken invariant. Input text that is not UTF-8 is a format error;
# arguments that ask for more memory than the machine has are a usage error.
_EXIT_CODES = (
    ((ConfigError, MemoryError), EXIT_USAGE),
    (DataConsistencyError, EXIT_DATA),
    ((FormatError, FoldWorkerError, OSError, UnicodeDecodeError), EXIT_IO),
    (NumericError, EXIT_NUMERIC),
    (LungRiskError, 1),
)


def _volume_path(data_dir: Path, scan_id: str) -> Path:
    """The scan's LRVOL1 file under data/volumes/, or else its .mhd header."""
    for candidate in (data_dir / "volumes" / f"{scan_id}.lrvol",
                      data_dir / "volumes" / f"{scan_id}.mhd"):
        if candidate.exists():
            return candidate
    raise DataConsistencyError(f"no volume file for scan {scan_id!r} under {data_dir / 'volumes'}")


def _read_volume(path: Path):
    if path.suffix == ".mhd":
        return fileio.read_volume_pair(path)
    return fileio.read_volume_compact(path)


def _read_scan_list(path) -> list[str]:
    ids = [line.strip() for line in Path(path).read_text().splitlines() if line.strip()]
    if not ids:
        raise DataConsistencyError(f"scan list {path} is empty")
    seen = set()
    for scan_id in ids:
        if scan_id in seen:
            raise DataConsistencyError(f"duplicate scan_id {scan_id!r} in {path}")
        seen.add(scan_id)
    return ids


def _build_example(path: Path, scan_id: str, candidates, label: int, metadata_dim: int):
    """The scan's example, from its volume file at `path` (see `_volume_path`)."""
    return build_scan_example(_read_volume(path), candidates.get(scan_id, []),
                              label, metadata_dim=metadata_dim, scan_id=scan_id)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    spec = synthdata.PhantomSpec(
        n_scans=args.n,
        prevalence=args.prevalence,
        volume_dims=(args.dims, args.dims, args.dims),
        nodules_per_scan=(args.nodules_min, args.nodules_max),
        size_range_mm=(args.size_min, args.size_max),
        texture_noise_sigma=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise OSError(f"output directory {out} is not writable")
    dataset = synthdata.generate(spec, out_dir=out)
    positives = sum(s.label for s in dataset.scans)
    manifest = "\n".join([
        f"n_scans={spec.n_scans}",
        f"positives={positives}",
        f"prevalence_requested={spec.prevalence!r}",
        f"prevalence_observed={positives / spec.n_scans!r}",
        f"volume_dims={spec.volume_dims[0]}",
        f"nodules_per_scan={spec.nodules_per_scan[0]}..{spec.nodules_per_scan[1]}",
        f"size_range_mm={spec.size_range_mm[0]!r}..{spec.size_range_mm[1]!r}",
        f"noise_sigma={spec.texture_noise_sigma!r}",
        f"seed={spec.seed}",
        f"malignancy_intercept={dataset.intercept!r}",
    ]) + "\n"
    with fileio.whole_file(out / "manifest.txt") as fh:
        fh.write(manifest)
    print(manifest, end="")
    return 0


def _train_config_from_args(args) -> nnet.NNetConfig:
    overrides = dict(
        dropout_rate=args.dropout, epochs=args.epochs, learning_rate=args.lr,
        batch_size=args.batch_size, metadata_dim=args.metadata_dim, seed=args.seed,
    )
    if args.config:
        return nnet.load_train_config(args.config, **overrides)
    return nnet.NNetConfig(**{k: v for k, v in overrides.items() if v is not None})


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    config = _train_config_from_args(args)
    labels = fileio.read_labels_csv(data_dir / "labels.csv")
    candidates = fileio.read_candidates_csv(data_dir / "candidates.csv")
    unlabeled = sorted(set(candidates) - set(labels))
    if unlabeled:
        raise DataConsistencyError(
            f"candidates reference scans missing from the label file: {unlabeled}")
    scan_ids = _read_scan_list(args.scans) if args.scans else sorted(labels)
    missing = sorted(set(scan_ids) - set(labels))
    if missing:
        raise DataConsistencyError(f"scan list entries without labels: {missing}")

    examples = [_build_example(_volume_path(data_dir, sid), sid, candidates, labels[sid],
                               config.metadata_dim) for sid in scan_ids]
    out = Path(args.out)
    ensemble = nnet.kfold_train(config, examples, k=args.folds)     # a rejection leaves no --out
    nnet.save_ensemble(ensemble, out)
    with fileio.whole_file(out / "training_loss.csv") as fh:
        fh.write("fold,epoch,loss\n")
        fh.writelines(f"{fold},{epoch},{loss!r}\n" for fold, member in enumerate(ensemble.members)
                      for epoch, loss in enumerate(member.loss_history))
    with fileio.whole_file(out / "resolved_config.txt") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in dataclasses.asdict(config).items())
        fh.write(f"folds={args.folds}\n")
    print(f"trained {args.folds} fold(s) on {len(examples)} scans -> {out}")
    return 0


def cmd_score(args) -> int:
    """Score each listed scan (default: every labelled scan) with the
    ensemble's mean risk and write the scores CSV, whole or not at all.

    `nnet.load_plans` checks and folds one weight file at a time, all before
    the first scan is built. `nnet.ensemble_predict` pulls the examples,
    built one scan at a time on this thread, and scores them in chunks of a
    few scans on one thread per usable CPU while the next chunk is built.
    The bytes depend neither on the chunking nor on the thread count.
    """
    plans = nnet.load_plans(args.model)
    data_dir = Path(args.data)
    candidates = fileio.read_candidates_csv(data_dir / "candidates.csv")
    if args.scans:
        scan_ids = _read_scan_list(args.scans)
    else:
        labels = fileio.read_labels_csv(data_dir / "labels.csv")
        scan_ids = sorted(labels)
    # every path is resolved up front, so a missing volume fails before any scoring
    paths = [_volume_path(data_dir, sid) for sid in scan_ids]
    examples = (_build_example(path, sid, candidates, 0, plans[0].metadata_dim)
                for sid, path in zip(scan_ids, paths))
    scores = dict(zip(scan_ids, nnet.ensemble_predict(plans, examples)))
    fileio.write_scores_csv(args.out, scores)
    print(f"scored {len(scores)} scans -> {args.out}")
    return 0


def _lungrads_by_scan(candidates) -> dict[str, int]:
    out = {}
    for scan_id, cands in candidates.items():
        cats = [c.lungrads_category for c in cands if c.lungrads_category is not None]
        if cats:
            out[scan_id] = max(cats)
    return out


def cmd_eval(args) -> int:
    scores = fileio.read_scores_csv(args.scores)
    labels = fileio.read_labels_csv(args.labels)
    lungrads = None
    if args.group_by == "lungrads":
        if not args.candidates:
            raise ConfigError("--group-by lungrads needs --candidates for the categories")
        lungrads = _lungrads_by_scan(fileio.read_candidates_csv(args.candidates))
    cohort = ev.ScoredCohort.from_dicts(scores, labels, lungrads)
    report = ev.evaluate_cohort(cohort, target_specificity=args.spec,
                                target_sensitivity=args.sens,
                                group=args.group_by == "lungrads")
    print(f"AUC: {report.auc:.4f}")
    print(ev.format_report(report))
    if args.out:
        prefix = Path(args.out)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        ev.write_report_csv(report, prefix.with_name(prefix.name + "_report.csv"))
        ev.write_roc_csv(report.curve, prefix.with_name(prefix.name + "_roc.csv"))
    return 0


def cmd_compare(args) -> int:
    labels = fileio.read_labels_csv(args.labels)
    cohort_a = ev.ScoredCohort.from_dicts(fileio.read_scores_csv(args.a), labels)
    cohort_b = ev.ScoredCohort.from_dicts(fileio.read_scores_csv(args.b), labels)
    auc_a, auc_b = ev.auc(cohort_a), ev.auc(cohort_b)
    p = ev.permutation_test_auc(cohort_a, cohort_b, n_perm=args.perms,
                                rng=np.random.default_rng(args.seed))
    print(f"AUC A: {auc_a:.4f}")
    print(f"AUC B: {auc_b:.4f}")
    print(f"one-sided p-value (A > B): {p:.4f}")
    if args.out:
        with fileio.whole_file(args.out) as fh:
            fh.write("metric,value\n")
            fh.write(f"auc_a,{auc_a!r}\nauc_b,{auc_b!r}\np_value,{p!r}\n")
            fh.write(f"n_perm,{args.perms}\nseed,{args.seed}\n")
    return 0


def cmd_pancan(args) -> int:
    weights = pancan.load_weights(args.weights)
    features = pancan.read_features_csv(args.features)
    scan_ids = _read_scan_list(args.scans) if args.scans else sorted(features)
    missing = sorted(set(scan_ids) - set(features))
    if missing:
        raise DataConsistencyError(f"scan list entries without feature rows: {missing}")
    scores = {scan_id: pancan.patient_score(features[scan_id], weights, agg=args.agg)
              for scan_id in scan_ids}
    fileio.write_scores_csv(args.out, scores)
    print(f"scored {len(scores)} scans ({args.agg} aggregation) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lungrisk",
        description="Multi-instance lung-cancer risk pipeline on synthetic phantom data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic phantom dataset")
    p.add_argument("--n", type=int, required=True, help="number of scans")
    p.add_argument("--prevalence", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    spec = synthdata.PhantomSpec        # the class holds its fields' defaults
    p.add_argument("--dims", type=int, default=spec.volume_dims[0], help="cubic volume side in mm")
    p.add_argument("--nodules-min", type=int, default=spec.nodules_per_scan[0])
    p.add_argument("--nodules-max", type=int, default=spec.nodules_per_scan[1])
    p.add_argument("--size-min", type=float, default=spec.size_range_mm[0])
    p.add_argument("--size-max", type=float, default=spec.size_range_mm[1])
    p.add_argument("--noise", type=float, default=spec.texture_noise_sigma)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the risk network")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--metadata-dim", type=int, default=None)
    p.add_argument("--config", default=None, help="key-value training config file")
    p.add_argument("--scans", default=None, help="file listing scan_ids to train on")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score scans with a trained ensemble")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scans", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="ROC/AUC and operating-point report")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--spec", type=float, default=ev.TARGET_SPECIFICITY, help="target specificity")
    p.add_argument("--sens", type=float, default=ev.TARGET_SENSITIVITY, help="target sensitivity")
    p.add_argument("--group-by", choices=["lungrads"], default=None)
    p.add_argument("--candidates", default=None,
                   help="candidate CSV carrying lungrads categories")
    p.add_argument("--out", default=None, help="prefix for report/roc CSV files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="one-sided paired permutation test")
    p.add_argument("--a", required=True, help="scores CSV of the first model")
    p.add_argument("--b", required=True, help="scores CSV of the second model")
    p.add_argument("--labels", required=True)
    p.add_argument("--perms", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pancan", help="PanCan logistic baseline scores")
    p.add_argument("--weights", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--agg", choices=["max", "mean"], default="max")
    p.add_argument("--scans", default=None, help="file listing scan_ids to score")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pancan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (LungRiskError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
