"""Bi-directional N:M sparse training toolkit.

Generates and validates vanilla forward, transposable, and bi-directional
backward N:M masks, searches row permutations that maximize eligible
backward blocks, and trains small masked models with gradient-gap
instrumentation.
"""

from .data import (
    DatasetHandle,
    generate_synthetic,
    load_idx,
    load_idx_images,
    load_idx_labels,
    save_idx_images,
    save_idx_labels,
)
from .experiment import (
    ExperimentConfig,
    ExperimentSummary,
    build_dataset,
    load_config,
    parse_config,
    run_ablation,
    run_experiment,
    save_config,
    serialize_config,
    write_metrics_csv,
)
from .masks import (
    BinarizationCriterion,
    BlockViolation,
    Mask,
    MaskDirection,
    MaskFamily,
    TransposableMethod,
    backward_mask,
    forward_mask,
    kept_magnitude,
    load_mask,
    mask_diversity,
    save_mask,
    tile_kept_magnitudes,
    transposable_mask,
    validate_mask,
)
from .permute import (
    SearchReport,
    brute_force_best_permutation,
    check_permutation,
    count_eligible_blocks,
    identity_permutation,
    search_permutation,
)
from .tensorops import NmPattern, load_matrix, matrix, save_matrix
from .training import (
    DivergenceError,
    LayerStep,
    SparseLinearLayer,
    StaleMaskError,
    StepMetrics,
    Strategy,
    TrainConfig,
    TrainingTrace,
    backward_bimask,
    backward_exact,
    evaluate_accuracy,
    forward_pass,
    init_layers,
    refresh_masks,
    sparse_forward,
    train,
    weight_gradient,
)

__version__ = "0.1.0"
