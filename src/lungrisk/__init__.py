"""Multi-instance lung-cancer risk pipeline on synthetic phantom data.

Submodules:

* ``tensor``     - float64 autodiff ops and the Adam optimizer
* ``preprocess`` - CT volume to fixed-shape network input
* ``fileio``     - volume containers and CSV formats
* ``nnet``       - the deep-and-wide risk network (train / persist / run)
* ``pancan``     - logistic nodule-malignancy baseline
* ``evaluate``   - ROC/AUC, permutation tests, operating points
* ``synthdata``  - deterministic phantom generator with known risk rule
* ``cli``        - the ``lungrisk`` command-line interface
* ``host``       - the CPUs this process may use
"""

from . import errors, evaluate, fileio, host, nnet, pancan, preprocess, synthdata, tensor
from .evaluate import ScoredCohort, auc, permutation_test_auc, roc_curve
from .nnet import (
    FoldEnsemble,
    NNetConfig,
    NNetParams,
    build_plan,
    ensemble_predict,
    init_params,
    kfold_train,
    load_member,
    load_plans,
    save_params,
    train,
)
from .pancan import PanCanFeatures, PanCanWeights, nodule_score, patient_score
from .preprocess import (
    NoduleCandidate,
    NodulePatch,
    ScanExample,
    Volume,
    build_scan_example,
    crop28,
    extract_cube,
    normalize_hu,
    select_top_nodules,
    triplanar,
)
from .synthdata import PhantomSpec, generate
from .tensor import AdamState, BatchNormState, Tensor, adam_step, backward

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BatchNormState", "FoldEnsemble", "NNetConfig", "NNetParams",
    "NoduleCandidate", "NodulePatch", "PanCanFeatures", "PanCanWeights",
    "PhantomSpec", "ScanExample", "ScoredCohort", "Tensor", "Volume",
    "adam_step", "auc", "backward", "build_plan", "build_scan_example", "crop28",
    "ensemble_predict", "errors", "evaluate", "extract_cube", "fileio",
    "generate", "host", "init_params", "kfold_train", "load_member", "load_plans", "nnet",
    "nodule_score", "normalize_hu", "pancan", "patient_score",
    "permutation_test_auc", "preprocess", "roc_curve",
    "save_params", "select_top_nodules", "synthdata", "tensor",
    "train", "triplanar",
]
