import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import evaluate as ev
from lungrisk.errors import ConfigError, DataConsistencyError, DegenerateCohortError, PairingError


def cohort(scores, labels, lungrads=None, ids=None):
    n = len(scores)
    ids = ids or [f"s{i:03d}" for i in range(n)]
    return ev.ScoredCohort(scan_ids=ids, scores=np.asarray(scores, float),
                           labels=np.asarray(labels), lungrads=lungrads)


def random_cohort(rng, n, with_ties=True):
    scores = rng.random(n)
    if with_ties:
        scores = np.round(scores, 1)  # force plenty of ties
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return cohort(scores, labels)


# ---------------------------------------------------------------------------
# oracles


def trapezoid_auc(curve):
    # trapezoidal area under a tie-grouped ROC curve
    fpr, tpr = curve.fpr, curve.tpr
    return float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


def auc_pair_count(c):
    pos = c.scores[c.labels == 1]
    neg = c.scores[c.labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def operating_points_exhaustive(c, spec_target, sens_target):
    thresholds = sorted(set(c.scores)) + [max(c.scores) + 1.0]
    rows = []
    for t in thresholds:
        sens = np.mean(c.scores[c.labels == 1] >= t)
        spec = np.mean(c.scores[c.labels == 0] < t)
        rows.append((t, sens, spec))
    sens_at = next(r[1] for r in rows if r[2] >= spec_target)
    spec_at = [r[2] for r in rows if r[1] >= sens_target][-1]
    return sens_at, spec_at


# ---------------------------------------------------------------------------
# roc_curve


def test_roc_perfect_separation_passes_through_corner():
    c = cohort([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
    curve = ev.roc_curve(c)
    points = set(zip(curve.fpr, curve.tpr))
    assert (0.0, 1.0) in points
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0


def test_roc_all_tied_is_diagonal_endpoints():
    c = cohort([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    curve = ev.roc_curve(c)
    np.testing.assert_array_equal(curve.fpr, [0.0, 1.0])
    np.testing.assert_array_equal(curve.tpr, [0.0, 1.0])
    assert curve.thresholds[0] == np.inf and curve.thresholds[1] == 0.5


def test_roc_four_point_staircase():
    # positives {0.9, 0.3}, negatives {0.8, 0.2}: hand-traced sweep
    c = cohort([0.9, 0.3, 0.8, 0.2], [1, 1, 0, 0])
    curve = ev.roc_curve(c)
    np.testing.assert_array_equal(curve.fpr, [0.0, 0.0, 0.5, 0.5, 1.0])
    np.testing.assert_array_equal(curve.tpr, [0.0, 0.5, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(curve.thresholds[1:], [0.9, 0.8, 0.3, 0.2])


def test_roc_single_class_raises():
    with pytest.raises(DegenerateCohortError):
        ev.roc_curve(cohort([0.1, 0.2], [1, 1]))


@given(st.integers(5, 80), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_roc_monotone(n, seed):
    c = random_cohort(np.random.default_rng(seed), n)
    curve = ev.roc_curve(c)
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)


# ---------------------------------------------------------------------------
# auc


def test_auc_perfect_separation():
    assert ev.auc(cohort([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])) == 1.0


def test_auc_hand_value():
    # 3 of 4 (pos, neg) pairs ordered correctly
    assert ev.auc(cohort([0.9, 0.3, 0.8, 0.2], [1, 1, 0, 0])) == 0.75


def test_auc_single_tie_is_half():
    assert ev.auc(cohort([0.5, 0.5], [1, 0])) == 0.5


def test_auc_dual_oracle_random_cohorts():
    rng = np.random.default_rng(123)
    for _ in range(30):
        c = random_cohort(rng, int(rng.integers(5, 200)))
        a = ev.auc(c)
        assert abs(a - auc_pair_count(c)) < 1e-12
        assert abs(a - trapezoid_auc(ev.roc_curve(c))) < 1e-12


def test_auc_rows_heavy_ties_match_pair_count():
    # permutation-test shaped input: many rows over a handful of score levels
    rng = np.random.default_rng(321)
    for levels in (1, 2, 3, 5):
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        rows = rng.integers(0, levels, size=(25, 40)) / 4.0
        got = ev._auc_rows(rows, labels)
        want = [auc_pair_count(cohort(row, labels)) for row in rows]
        assert got.tolist() == want


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(5)
    c = random_cohort(rng, 80)
    transformed = cohort(np.exp(3.0 * c.scores) - 0.5, c.labels)
    assert ev.auc(transformed) == ev.auc(c)


def test_auc_label_flip():
    rng = np.random.default_rng(6)
    c = random_cohort(rng, 60)
    flipped = cohort(c.scores, 1 - c.labels)
    np.testing.assert_allclose(ev.auc(flipped), 1.0 - ev.auc(c), atol=1e-12)


# ---------------------------------------------------------------------------
# permutation test


def test_permutation_identical_cohorts_give_exactly_one():
    rng = np.random.default_rng(7)
    c = random_cohort(rng, 40)
    c2 = cohort(c.scores.copy(), c.labels.copy())
    assert ev.permutation_test_auc(c, c2, n_perm=500, rng=np.random.default_rng(0)) == 1.0


def test_permutation_seed_reproducible():
    rng = np.random.default_rng(8)
    base = rng.normal(size=60) + np.repeat([0.0, 1.0], 30)
    labels = np.repeat([0, 1], 30)
    a = cohort(base + rng.normal(0, 0.1, 60), labels)
    b = cohort(base + rng.normal(0, 0.8, 60), labels)
    p1 = ev.permutation_test_auc(a, b, n_perm=300, rng=np.random.default_rng(42))
    p2 = ev.permutation_test_auc(a, b, n_perm=300, rng=np.random.default_rng(42))
    assert p1 == p2


@pytest.mark.parametrize("n", [7, 60, 333])
def test_permutation_p_value_does_not_depend_on_chunk_size(n, monkeypatch):
    rng = np.random.default_rng(n)
    labels = np.r_[0, 1, rng.integers(0, 2, size=n - 2)]
    a = cohort(rng.normal(size=n) + labels, labels)
    b = cohort(rng.normal(size=n) + 0.5 * labels, labels)
    n_perm = 1001       # not a multiple of 3, 10 or 64 rows
    p_values = []
    for rows in (1, 3, 10, 64, n_perm):
        monkeypatch.setattr(ev, "_PERM_CHUNK_ELEMENTS", rows * n)
        p_values.append(ev.permutation_test_auc(a, b, n_perm=n_perm,
                                                rng=np.random.default_rng(5)))
    assert 1 / (1 + n_perm) <= p_values[0] < 1.0
    assert p_values == [p_values[0]] * len(p_values)


def test_permutation_detects_clear_advantage():
    rng = np.random.default_rng(9)
    n = 200
    labels = np.repeat([0, 1], n // 2)
    latent = rng.normal(size=n) + 1.6 * labels
    a = cohort(latent, labels)
    b = cohort(latent + rng.normal(0, 1.5, size=n), labels)
    assert ev.auc(a) > ev.auc(b) + 0.03
    p = ev.permutation_test_auc(a, b, n_perm=2000, rng=np.random.default_rng(1))
    assert p < 0.05


def test_permutation_rejects_a_reordered_cohort():
    # `ScoredCohort.from_dicts` sorts its scans, so paired cohorts list them in one order
    labels = np.array([1, 1, 0, 0])
    a = cohort([0.9, 0.8, 0.2, 0.1], labels, ids=["a", "b", "c", "d"])
    b = ev.ScoredCohort(scan_ids=["d", "c", "b", "a"],
                        scores=np.array([0.15, 0.25, 0.75, 0.85]),
                        labels=np.array([0, 0, 1, 1]))
    with pytest.raises(PairingError, match="same order"):
        ev.permutation_test_auc(a, b, n_perm=200, rng=np.random.default_rng(0))


def test_permutation_unpaired_raises():
    a = cohort([0.9, 0.1], [1, 0], ids=["a", "b"])
    b = cohort([0.9, 0.1], [1, 0], ids=["a", "c"])
    with pytest.raises(PairingError, match=r"1 only in A \['b'\], 1 only in B \['c'\]"):
        ev.permutation_test_auc(a, b, n_perm=100, rng=np.random.default_rng(0))
    c = cohort([0.9, 0.1], [0, 1], ids=["a", "b"])
    with pytest.raises(PairingError):
        ev.permutation_test_auc(a, c, n_perm=100, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# operating points


def test_operating_points_perfect_classifier():
    c = cohort([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert ev.sensitivity_at_specificity(c, 0.80) == 1.0
    assert ev.specificity_at_sensitivity(c, 0.84) == 1.0


def test_operating_points_all_equal_scores():
    c = cohort([0.4] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    assert ev.sensitivity_at_specificity(c, 0.80) == 0.0
    assert ev.specificity_at_sensitivity(c, 0.84) == 0.0


def tie_heavy_cohorts(rng):
    """Cohorts of two or three distinct scores, and all-tied ones."""
    for n in (2, 3, 5, 9, 30):
        for values in ((0.5,), (0.0, 1.0), (0.2, 0.5, 0.9)):
            labels = np.r_[0, 1, rng.integers(0, 2, size=n - 2)]
            yield cohort(rng.choice(values, size=n), rng.permutation(labels))


def test_operating_points_match_exhaustive_sweep():
    rng = np.random.default_rng(10)
    cohorts = [random_cohort(rng, int(rng.integers(8, 100))) for _ in range(40)]
    for c in cohorts + list(tie_heavy_cohorts(rng)):
        for spec_t, sens_t in [(0.8, 0.84), (0.5, 0.5), (0.95, 0.99), (0.0, 0.0), (1.0, 1.0)]:
            sens_oracle, spec_oracle = operating_points_exhaustive(c, spec_t, sens_t)
            assert ev.sensitivity_at_specificity(c, spec_t) == sens_oracle
            assert ev.specificity_at_sensitivity(c, sens_t) == spec_oracle


# ---------------------------------------------------------------------------
# grouped metrics


def test_grouped_single_category():
    c = cohort([0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0], lungrads=[4, 4, 4, 4])
    rows = ev.grouped_metrics(c)
    assert len(rows) == 1
    assert rows[0].category == 4 and rows[0].n == 4 and rows[0].n_pos == 2
    assert rows[0].sensitivity_at_spec == 1.0


def test_grouped_category_without_positives_is_na():
    c = cohort([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 0], lungrads=[4, 4, 2, 2])
    rows = ev.grouped_metrics(c)
    by_cat = {r.category: r for r in rows}
    assert by_cat[2].sensitivity_at_spec is None
    assert by_cat[2].specificity_at_sens is None
    assert by_cat[4].sensitivity_at_spec is not None


def test_grouped_partition_covers_cohort():
    rng = np.random.default_rng(11)
    n = 60
    c = cohort(rng.random(n), rng.integers(0, 2, n),
               lungrads=list(rng.choice([2, 3, 4], size=n)))
    rows = ev.grouped_metrics(c)
    assert sum(r.n for r in rows) == n


def test_grouped_requires_categories():
    c = cohort([0.9, 0.1], [1, 0])
    with pytest.raises(ConfigError):
        ev.grouped_metrics(c)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_files(tmp_path):
    c = cohort([0.9, 0.7, 0.4, 0.2, 0.6, 0.1], [1, 1, 0, 0, 1, 0],
               lungrads=[2, 3, 4, 2, 3, 4])
    report = ev.evaluate_cohort(c, group=True)
    ev.write_report_csv(report, tmp_path / "report.csv")
    ev.write_roc_csv(report.curve, tmp_path / "roc.csv")
    text = (tmp_path / "report.csv").read_text()
    assert "auc,all" in text
    assert "lungrads_2" in text
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr,threshold"
    assert len(roc_lines) == len(report.curve.fpr) + 1
    table = ev.format_report(report)
    assert "AUC" in table and "Lung-RADS" in table


def test_cohort_from_dicts_missing_label():
    with pytest.raises(DataConsistencyError):
        ev.ScoredCohort.from_dicts({"a": 0.5, "b": 0.2}, {"a": 1})
