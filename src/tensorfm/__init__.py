"""Factorization machines with low-rank higher-order field interactions.

The package trains and scores a family of models over sparse multi-field
categorical data — logistic regression, factorization machines, field-
weighted variants, and their generalization whose per-order field-interaction
tensors are constrained to low rank — together with synthetic interaction
datasets, evaluation metrics, inference-cost accounting, and an
interpretability pipeline.
"""

from .analysis import (
    FlopsModel,
    InteractionReport,
    LatencyReport,
    flops_estimate,
    interaction_report,
    learned_strength,
    mutual_information,
    time_inference,
)
from .data import (
    Dataset,
    FieldSchema,
    Instance,
    SyntheticSpec,
    build_schema,
    generate_synthetic,
    load_tabular,
    read_dataset,
    split,
    write_dataset,
)
from .errors import (
    ConfigError,
    DataError,
    MetricError,
    ModelIOError,
    NumericError,
    SchemaError,
    TensorFMError,
)
from .metrics import EvalReport, auc, bce_from_score, evaluate, logloss
from .params import (
    ModelBundle,
    block_layout,
    canonical_args,
    fwfm_lowrank_from_dense,
    init,
    load_bundle,
    materialize_tensor,
    materialize_tucker,
    param_count,
    save_bundle,
    symmetrize,
)
from .scoring import (
    embed_view,
    interaction_term,
    predict_proba,
    score,
    score_dataset,
    score_linear,
    score_naive_oracle,
    sigmoid,
)
from .training import (
    EpochLog,
    GridResult,
    TrainConfig,
    adagrad_state,
    adagrad_step,
    backward,
    backward_from_cache,
    bce_loss,
    grid_search,
    train,
)

__version__ = "0.1.0"
