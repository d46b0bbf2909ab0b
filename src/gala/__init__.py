"""Gradient-aligned layer selection for online test-time adaptation."""

from .engine import (
    GalaConfig,
    GalaPolicy,
    ParameterGrouping,
    SelectionDecision,
    build_grouping,
    cosine_alignment,
    cosine_via_decomposition,
    vector_angle,
)
from .baselines import (
    SelectorKind,
    baseline_policy,
)
from .config import (
    load_config,
    parse_config,
)
from .errors import ConfigurationError, GalaError, NumericsError, TrainingError
from .metrics import (
    MetricsSummary,
    RunRecord,
    config_fingerprint,
    export_geometry_grid,
    forgetting,
    generalization,
    geometry_grid,
    parse_summary,
    parse_trace,
    selection_frequency,
    spearman_rank_correlation,
    summarize,
    tta_accuracy,
    write_aggregate_csv,
    write_summary,
    write_trace,
)
from .runner import (
    oracle_sweep,
    run_baseline,
    run_gala,
)
from .shiftbench import (
    ShiftSpec,
    TaskSpec,
    apply_shift,
    build_stream,
    generate_task,
)
from .nn import (
    Batch,
    LayerSpec,
    LossKind,
    ModelParameters,
    Network,
    OptimizerConfig,
    accuracy,
    load_checkpoint,
    minibatches,
    pretrain_erm,
    save_checkpoint,
    softmax,
)

__version__ = "0.1.0"
