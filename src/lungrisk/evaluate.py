"""ROC/AUC statistics, paired permutation testing, operating-point metrics.

Score conventions: a scan is called positive when its score is >= the
threshold. AUC follows the Mann-Whitney pair semantics (ties count half),
which coincides with trapezoidal integration of the tie-grouped ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataConsistencyError, DegenerateCohortError, PairingError
from .fileio import write_csv

TARGET_SPECIFICITY = 0.80
TARGET_SENSITIVITY = 0.84


@dataclass
class ScoredCohort:
    """Aligned per-scan scores, labels and optional Lung-RADS categories."""

    scan_ids: list[str]
    scores: np.ndarray
    labels: np.ndarray
    lungrads: list | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.scan_ids)
        if self.scores.shape != (n,) or self.labels.shape != (n,):
            raise DataConsistencyError("scan_ids, scores and labels must have equal length")
        if len(set(self.scan_ids)) != n:
            raise DataConsistencyError("scan_ids must be unique")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise DataConsistencyError("labels must be 0 or 1")
        if self.lungrads is not None and len(self.lungrads) != n:
            raise DataConsistencyError("lungrads list must match the cohort length")

    @classmethod
    def from_dicts(cls, scores: dict[str, float], labels: dict[str, int],
                   lungrads: dict[str, int] | None = None) -> "ScoredCohort":
        missing = sorted(set(scores) - set(labels))
        if missing:
            raise DataConsistencyError(f"scans without labels: {missing[:10]}")
        ids = sorted(scores)
        return cls(
            scan_ids=ids,
            scores=np.array([scores[i] for i in ids]),
            labels=np.array([labels[i] for i in ids]),
            lungrads=None if lungrads is None else [lungrads.get(i) for i in ids],
        )

    def subset(self, mask: np.ndarray) -> "ScoredCohort":
        idx = np.flatnonzero(mask)
        return ScoredCohort(
            scan_ids=[self.scan_ids[i] for i in idx],
            scores=self.scores[idx],
            labels=self.labels[idx],
            lungrads=None if self.lungrads is None else [self.lungrads[i] for i in idx],
        )

    def check_both_classes(self):
        if not (np.any(self.labels == 1) and np.any(self.labels == 0)):
            raise DegenerateCohortError("cohort must contain both classes")


@dataclass
class RocCurve:
    """Threshold-swept operating points from (0,0) to (1,1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def __iter__(self):
        return iter(zip(self.fpr, self.tpr, self.thresholds))


def _sweep(c: ScoredCohort):
    """The `score >= threshold` rule swept from the top: an infinite
    threshold that calls no scan positive, then each distinct score in
    descending order. Returns the thresholds, the true- and false-positive
    counts at each, and the numbers of positives and negatives."""
    c.check_both_classes()
    order = np.argsort(-c.scores, kind="stable")
    scores = c.scores[order]
    labels = c.labels[order]
    n_pos = int(labels.sum())
    # indices where a tie group ends
    ends = np.r_[np.flatnonzero(np.diff(scores) != 0), scores.size - 1]
    tp = np.r_[0, np.cumsum(labels)[ends]]
    fp = np.r_[0, ends + 1] - tp
    return np.r_[np.inf, scores[ends]], tp, fp, n_pos, labels.size - n_pos


def roc_curve(c: ScoredCohort) -> RocCurve:
    """One point per distinct score (ties grouped) plus the (0,0) sentinel."""
    thresholds, tp, fp, n_pos, n_neg = _sweep(c)
    return RocCurve(fpr=fp / n_neg, tpr=tp / n_pos, thresholds=thresholds)


def auc(c: ScoredCohort) -> float:
    """Mann-Whitney AUC: P(random positive outscores random negative), ties half."""
    c.check_both_classes()
    return float(_auc_rows(c.scores[None, :], c.labels)[0])


def _auc_rows(score_rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Midrank AUC of each row of `score_rows` against shared labels.

    Tied scores share the mean of the 1-based ranks they span. Midranks are
    exact half-integers, so the positives' rank sum is exact in float64.
    """
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(score_rows, axis=1)
    ordered = np.take_along_axis(score_rows, order, axis=1)
    pos = np.arange(labels.size)
    starts = np.ones(ordered.shape, dtype=bool)       # a tie group starts here
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.roll(starts, -1, axis=1)                # ... or ends here
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, pos[-1])[:, ::-1], axis=1)[:, ::-1]
    # a midrank is (first + last) / 2 + 1; sum twice the 0-based ones in integers
    twice_midranks = ((first + last) * labels[order]).sum(axis=1)
    pos_rank_sum = twice_midranks / 2.0 + n_pos
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# permutations per pass: each (rows, scans) float64 temporary stays near
# 256 kB. On 100 scans a whole 10,000-permutation pass peaked at 101 MB RSS
# against 39 MB in these chunks, at the same speed. rng.random fills rows
# from one stream, so the p-value does not depend on the chunking.
_PERM_CHUNK_ELEMENTS = 32_768


def permutation_test_auc(a: ScoredCohort, b: ScoredCohort, n_perm: int, *,
                         rng: np.random.Generator) -> float:
    """One-sided paired permutation test of auc(a) - auc(b) > 0, over cohorts
    that list the same scans and labels in one order (PairingError otherwise).

    Each permutation swaps the two models' scores independently per scan
    with probability 1/2; the p-value uses add-one smoothing:
    p = (1 + #{permuted stat >= observed}) / (1 + n_perm).
    """
    if n_perm < 1:
        raise ConfigError("n_perm must be at least 1")
    if a.scan_ids != b.scan_ids:
        only_a, only_b = (sorted(set(x.scan_ids) - set(y.scan_ids)) for x, y in ((a, b), (b, a)))
        if only_a or only_b:
            raise PairingError(f"cohorts hold different scans: {len(only_a)} only in A "
                               f"{only_a[:3]}, {len(only_b)} only in B {only_b[:3]}")
        raise PairingError("cohorts do not list the same scans in the same order")
    if not np.array_equal(a.labels, b.labels):
        raise PairingError("cohorts disagree on labels")
    a.check_both_classes()

    observed = auc(a) - auc(b)
    exceed = 0
    done = 0
    chunk = max(1, min(n_perm, _PERM_CHUNK_ELEMENTS // a.scores.size))
    # A swap exchanges a scan's two scores bit for bit: both are XORed with
    # a^b where swapped and with 0 where not, in three integer passes.
    a_bits, b_bits = a.scores.view(np.uint64), b.scores.view(np.uint64)
    differ = a_bits ^ b_bits
    while done < n_perm:
        m = min(chunk, n_perm - done)
        swap = rng.random((m, a.scores.size)) < 0.5
        flip = swap * differ
        sa = (flip ^ a_bits).view(np.float64)
        flip ^= b_bits
        sb = flip.view(np.float64)
        stats = _auc_rows(sa, a.labels) - _auc_rows(sb, a.labels)
        exceed += int(np.count_nonzero(stats >= observed))
        done += m
    return (1 + exceed) / (1 + n_perm)


def _check_target(name: str, value: float):
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"target {name} must lie in [0,1], got {value}")


def sensitivity_at_specificity(c: ScoredCohort, target_specificity: float) -> float:
    """Sensitivity at the smallest threshold whose specificity meets the target."""
    _check_target("specificity", target_specificity)
    _, tp, fp, n_pos, n_neg = _sweep(c)
    # specificity falls as the threshold does; the infinite one has 1.0
    ok = np.flatnonzero((n_neg - fp) / n_neg >= target_specificity)
    return float(tp[ok[-1]] / n_pos)


def specificity_at_sensitivity(c: ScoredCohort, target_sensitivity: float) -> float:
    """Specificity at the largest threshold whose sensitivity meets the target."""
    _check_target("sensitivity", target_sensitivity)
    _, tp, fp, n_pos, n_neg = _sweep(c)
    # sensitivity rises as the threshold falls; the lowest one has 1.0
    ok = np.flatnonzero(tp / n_pos >= target_sensitivity)
    return float((n_neg - fp[ok[0]]) / n_neg)


@dataclass
class GroupMetrics:
    category: int
    n: int
    n_pos: int
    sensitivity_at_spec: float | None
    specificity_at_sens: float | None


def grouped_metrics(c: ScoredCohort, target_specificity: float = TARGET_SPECIFICITY,
                    target_sensitivity: float = TARGET_SENSITIVITY) -> list[GroupMetrics]:
    """Operating-point metrics within each Lung-RADS category subset.

    Categories whose subset lacks one of the classes report None metrics.
    """
    if c.lungrads is None:
        raise ConfigError("cohort has no lungrads categories to group by")
    cats = sorted({g for g in c.lungrads if g is not None})
    out = []
    for cat in cats:
        mask = np.array([g == cat for g in c.lungrads])
        sub = c.subset(mask)
        n_pos = int(sub.labels.sum())
        if 0 < n_pos < sub.labels.size:
            sens = sensitivity_at_specificity(sub, target_specificity)
            spec = specificity_at_sensitivity(sub, target_sensitivity)
        else:
            sens = spec = None
        out.append(GroupMetrics(category=cat, n=sub.labels.size, n_pos=n_pos,
                                sensitivity_at_spec=sens, specificity_at_sens=spec))
    return out


# ---------------------------------------------------------------------------
# report files


@dataclass
class EvalReport:
    auc: float
    n: int
    n_pos: int
    target_specificity: float
    target_sensitivity: float
    sensitivity_at_spec: float
    specificity_at_sens: float
    groups: list[GroupMetrics] = field(default_factory=list)
    curve: RocCurve | None = None


def evaluate_cohort(c: ScoredCohort, target_specificity: float = TARGET_SPECIFICITY,
                    target_sensitivity: float = TARGET_SENSITIVITY,
                    group: bool = False) -> EvalReport:
    report = EvalReport(
        auc=auc(c),
        n=c.labels.size,
        n_pos=int(c.labels.sum()),
        target_specificity=target_specificity,
        target_sensitivity=target_sensitivity,
        sensitivity_at_spec=sensitivity_at_specificity(c, target_specificity),
        specificity_at_sens=specificity_at_sensitivity(c, target_sensitivity),
        curve=roc_curve(c),
    )
    if group:
        report.groups = grouped_metrics(c, target_specificity, target_sensitivity)
    return report


def write_report_csv(report: EvalReport, path):
    """Machine-readable (metric, group, value) rows."""
    rows = [
        ("n", "all", report.n),
        ("n_pos", "all", report.n_pos),
        ("auc", "all", repr(report.auc)),
        (f"sensitivity_at_spec_{report.target_specificity:g}", "all",
         repr(report.sensitivity_at_spec)),
        (f"specificity_at_sens_{report.target_sensitivity:g}", "all",
         repr(report.specificity_at_sens)),
    ]
    for g in report.groups:
        tag = f"lungrads_{g.category}"
        rows.append(("n", tag, g.n))
        rows.append(("n_pos", tag, g.n_pos))
        rows.append((f"sensitivity_at_spec_{report.target_specificity:g}", tag,
                     "NA" if g.sensitivity_at_spec is None else repr(g.sensitivity_at_spec)))
        rows.append((f"specificity_at_sens_{report.target_sensitivity:g}", tag,
                     "NA" if g.specificity_at_sens is None else repr(g.specificity_at_sens)))
    write_csv(path, ["metric", "group", "value"], rows)


def write_roc_csv(curve: RocCurve, path):
    write_csv(path, ["fpr", "tpr", "threshold"],
              ([repr(float(x)) for x in point] for point in curve))


def format_report(report: EvalReport) -> str:
    """Human-readable summary table."""
    lines = [
        f"cohort: n={report.n}  positives={report.n_pos}",
        f"AUC: {report.auc:.4f}",
        f"sensitivity @ specificity>={report.target_specificity:.2f}: "
        f"{report.sensitivity_at_spec:.4f}",
        f"specificity @ sensitivity>={report.target_sensitivity:.2f}: "
        f"{report.specificity_at_sens:.4f}",
    ]
    if report.groups:
        lines.append("per Lung-RADS category:")
        lines.append("  cat     n   pos   sens@spec   spec@sens")
        for g in report.groups:
            sens = "NA" if g.sensitivity_at_spec is None else f"{g.sensitivity_at_spec:.4f}"
            spec = "NA" if g.specificity_at_sens is None else f"{g.specificity_at_sens:.4f}"
            lines.append(f"  {g.category:3d} {g.n:5d} {g.n_pos:5d}   {sens:>9}   {spec:>9}")
    return "\n".join(lines)
