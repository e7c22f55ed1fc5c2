"""Retrieval-based hierarchical classification over labeled embedding banks.

The package stores L2-normalized embedding vectors with three-level labels
in a feature bank, classifies queries by exact cosine kNN voting from
coarse to fine, ensembles several banks by majority vote, scores with
macro F1, and ships a gradient-verified toy training loop plus a synthetic
data generator whose cluster geometry follows the label tree.
"""

__version__ = "0.1.0"

from .bank import (
    FeatureBank,
    QuerySet,
    bank_build,
    bank_build_arrays,
    bank_load,
    bank_merge,
    bank_save,
    normalize_rows,
    read_manifest,
    write_manifest,
)
from .ensemble import (
    AblationRow,
    ablation_grid,
    combine_members,
    member_outputs,
)
from .errors import (
    BankError,
    BankFormatError,
    HierknnError,
    InferenceError,
    ManifestError,
    SynthError,
    TaxonomyError,
    TrainingError,
)
from .infer import (
    BatchPrediction,
    HierPrediction,
    classify_batch,
    predict_hierarchical,
)
from .knn import DEFAULT_K, search
from .metrics import (
    F1_CONVENTION,
    confusion,
    macro_f1,
    score_predictions,
)
from .synth import (
    DEFAULT_PER_LEAF_COUNTS,
    MODERATE_SHIFT,
    ShiftSpec,
    SynthConfig,
    apply_shift,
    generate,
    generate_member_banks,
    parse_synth_config,
)
from .taxonomy import Taxonomy, default_taxonomy, load_taxonomy
# toytrain loads on first use of one of its names (PEP 562), so commands that
# do not train never import it. The other modules stay eager: the benchmark's
# tracer wraps only the modules that are loaded when it installs.
_TOYTRAIN = frozenset((
    "EmaState",
    "Gradients",
    "LossConfig",
    "ToyModel",
    "TraceRow",
    "Views",
    "balanced_ce",
    "class_weights_from_counts",
    "dino_loss",
    "ema_update",
    "finite_diff_grad",
    "grad_check_report",
    "make_toy_dataset",
    "softmax_temp",
    "total_loss",
    "train_toy",
))


def __getattr__(name):
    if name in _TOYTRAIN:
        from . import toytrain

        return getattr(toytrain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
