"""Decomposition of matched multi-block data into fully-joint, partially-joint
and individual latent score subspaces, with block-sparse loadings, a
data-splitting threshold selector, and a benchmark data generator."""

from .core import (
    DecompositionResult,
    MultiBlockDataset,
    SignalEstimate,
    UniquenessReport,
    check_absolute_orthogonality,
    check_relative_independence,
    extract_signal,
    identify,
    identify_path,
    row_center,
)
from .loading import LoadingSet, estimate_loadings, reconstruct, stacked_loadings
from .simgen import (
    GroundTruth,
    SimulationModel,
    generate,
    imbalanced_preset,
    metric_accuracy,
    metric_angles,
    metric_rse,
    model_preset,
    run_once,
    run_repetitions,
)
from .structure import (
    IndexOrdering,
    IndexSet,
    PartialJointStructure,
    canonical_display,
    default_ordering,
    dissimilarity,
    ordering_from_lists,
    structure_from_json,
    structure_to_json,
    structures_equal,
    to_binary_multiset,
)
from .subspace import (
    NothingToPeel,
    OrthonormalBasis,
    UnitDirection,
    deflate,
    flag_mean_direction,
    orthonormalize,
    principal_angle,
    sine_distance,
)
from .tuning import (
    SplitPlan,
    TuningResult,
    default_grid,
    empirical_risk,
    mode_structure,
    select_lambda,
    split,
    test_scores,
    write_curves_tsv,
)

__version__ = "0.1.0"
