import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lungrisk import pancan
from lungrisk.errors import ConfigError, FormatError, NoNoduleError, NumericError
from writers import save_weights


def zero_weights(intercept=0.0):
    return pancan.PanCanWeights(values={k: 0.0 for k in pancan.WEIGHT_KEYS}, intercept=intercept)


def features(**kw):
    base = dict(age=62.0, sex="male", family_history=False, emphysema=False,
                nodule_count=2, diameter_mm=8.0, nodule_type="solid",
                upper_lobe=True, spiculation=False)
    base.update(kw)
    return pancan.PanCanFeatures(**base)


def test_zero_weights_give_half():
    assert pancan.nodule_score(features(), zero_weights()) == 0.5


def test_log9_weighted_sum_gives_point_nine():
    w = zero_weights(intercept=float(np.log(9.0)))
    np.testing.assert_allclose(pancan.nodule_score(features(), w), 0.9, atol=1e-12)


def test_doubling_diameter_increases_score():
    w = zero_weights()
    w.values["diameter_mm"] = 0.1
    small = pancan.nodule_score(features(diameter_mm=5.0), w)
    large = pancan.nodule_score(features(diameter_mm=10.0), w)
    assert large > small


@given(st.sampled_from(list(pancan.WEIGHT_KEYS)), st.floats(0.05, 0.3))
@settings(max_examples=40, deadline=None)
def test_monotone_in_each_weighted_feature(key, magnitude):
    # raising any feature with a positive weight strictly raises the score
    # (magnitudes stay small enough that float64 can resolve the difference)
    w = zero_weights()
    w.values[key] = magnitude
    lo_kw, hi_kw = {
        "age": ({"age": 50.0}, {"age": 70.0}),
        "sex_male": ({"sex": "female"}, {"sex": "male"}),
        "family_history": ({"family_history": False}, {"family_history": True}),
        "emphysema": ({"emphysema": False}, {"emphysema": True}),
        "nodule_count": ({"nodule_count": 1}, {"nodule_count": 5}),
        "diameter_mm": ({"diameter_mm": 4.0}, {"diameter_mm": 16.0}),
        "type_part_solid": ({"nodule_type": "solid"}, {"nodule_type": "part_solid"}),
        "type_nonsolid": ({"nodule_type": "solid"}, {"nodule_type": "nonsolid"}),
        "upper_lobe": ({"upper_lobe": False}, {"upper_lobe": True}),
        "spiculation": ({"spiculation": False}, {"spiculation": True}),
    }[key]
    assert pancan.nodule_score(features(**hi_kw), w) > pancan.nodule_score(features(**lo_kw), w)


def test_score_in_unit_interval_for_extreme_sums():
    w = zero_weights(intercept=700.0)
    hi = pancan.nodule_score(features(), w)
    w2 = zero_weights(intercept=-700.0)
    lo = pancan.nodule_score(features(), w2)
    assert 0.0 < lo < hi < 1.0


def test_patient_score_max():
    w = zero_weights()
    w.values["diameter_mm"] = 0.3
    nods = [features(diameter_mm=d) for d in (3.0, 12.0, 6.0)]
    expected = max(pancan.nodule_score(f, w) for f in nods)
    assert pancan.patient_score(nods, w) == expected


def test_patient_score_single_nodule_equals_nodule_score():
    w = zero_weights(intercept=0.4)
    f = features()
    assert pancan.patient_score([f], w) == pancan.nodule_score(f, w)
    assert pancan.patient_score([f], w, agg="mean") == pancan.nodule_score(f, w)


def test_patient_score_empty_raises():
    with pytest.raises(NoNoduleError):
        pancan.patient_score([], zero_weights())


def test_patient_score_mean_flag():
    w = zero_weights()
    w.values["diameter_mm"] = 0.3
    nods = [features(diameter_mm=d) for d in (3.0, 12.0)]
    scores = [pancan.nodule_score(f, w) for f in nods]
    np.testing.assert_allclose(pancan.patient_score(nods, w, agg="mean"), np.mean(scores))


@given(st.lists(st.floats(2.0, 25.0), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_max_aggregation_monotone_under_adding_nodules(diams):
    w = zero_weights()
    w.values["diameter_mm"] = 0.2
    nods = [features(diameter_mm=d) for d in diams]
    base = pancan.patient_score(nods, w)
    grown = pancan.patient_score(nods + [features(diameter_mm=9.0)], w)
    assert grown >= base
    # permutation invariance
    assert pancan.patient_score(list(reversed(nods)), w) == base


def test_weight_file_round_trip(tmp_path):
    w = pancan.PanCanWeights(
        values={k: i * 0.1 - 0.3 for i, k in enumerate(pancan.WEIGHT_KEYS)},
        intercept=-2.5)
    path = tmp_path / "w.txt"
    save_weights(w, path)
    back = pancan.load_weights(path)
    assert back == w


def test_weight_file_missing_key(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("version=1\nage=0.1\n")
    with pytest.raises(ConfigError, match="diameter_mm"):
        pancan.load_weights(path)


def test_weight_file_requires_version(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("age=0.1\n")
    with pytest.raises(FormatError):
        pancan.load_weights(path)


def test_weight_file_future_version(tmp_path):
    path = tmp_path / "w.txt"
    save_weights(zero_weights(), path)
    path.write_text(path.read_text().replace("version=1", "version=9"))
    with pytest.raises(FormatError):
        pancan.load_weights(path)


@pytest.mark.parametrize("line", ["version=nan", "version=inf", "version=1.5"])
def test_weight_file_version_must_be_one(line, tmp_path):
    path = tmp_path / "w.txt"
    save_weights(zero_weights(), path)
    path.write_text(path.read_text().replace("version=1", line))
    with pytest.raises(FormatError, match="version"):
        pancan.load_weights(path)


def test_non_finite_weights_rejected(tmp_path):
    with pytest.raises(NumericError, match="intercept"):
        zero_weights(intercept=float("nan"))
    values = {k: 0.0 for k in pancan.WEIGHT_KEYS}
    with pytest.raises(NumericError, match="age"):
        pancan.PanCanWeights(values={**values, "age": float("inf")})
    path = tmp_path / "w.txt"
    save_weights(zero_weights(), path)
    path.write_text(path.read_text().replace("intercept=0.0", "intercept=nan"))
    with pytest.raises(NumericError):
        pancan.load_weights(path)


def test_placeholder_weights_load():
    w = pancan.load_weights(pancan.placeholder_weights_path())
    assert w["diameter_mm"] > 0 and w["spiculation"] > 0


def test_bad_feature_values_rejected():
    with pytest.raises(FormatError):
        features(sex="other")
    with pytest.raises(FormatError):
        features(nodule_type="ground_glass")
    with pytest.raises(FormatError):
        features(diameter_mm=0.0)
    with pytest.raises(FormatError):
        features(nodule_count=0)
    for kw in (dict(age=float("nan")), dict(age=float("-inf")), dict(diameter_mm=float("nan"))):
        with pytest.raises(NumericError):
            features(**kw)
