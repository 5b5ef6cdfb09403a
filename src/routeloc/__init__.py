"""Route-based localization on road-network graphs.

The package models a world as a graph of discrete locations, learns a shared
descriptor space for map tiles and street-level observations, and localizes
a moving observer by ranking candidate routes on accumulated descriptor
distance, with optional turn-pattern filtering and per-step culling.
"""

from .baselines import (
    BSD_TAG_ORDER,
    BsdCode,
    BsdNoise,
    hamming_cost_vector,
    map_code_matrix,
    simulate_query_codes,
)
from .bench import (
    METHODS,
    AccuracyReport,
    ExperimentConfig,
    NoiseParams,
    SimulationError,
    TrainParams,
    difference_score,
    run_experiment,
    simulate_routes,
)
from .embedding import (
    DEFAULT_ALPHA,
    DEFAULT_AUGMENTATIONS,
    DEFAULT_BATCH_LOCATIONS,
    DEFAULT_SCALE,
    AugmentationConfig,
    BatchGradients,
    Encoder,
    LossConfig,
    TrainBatch,
    TrainingDiverged,
    WorldViews,
    batch_loss,
    build_batch,
    encode_batch,
    normalize_scale,
    pair_counts,
    soft_margin_loss,
    train_encoders,
)
from .localizer import (
    CandidateBudgetError,
    CandidateSet,
    LocalizerConfig,
    RouteDescriptor,
    advance_candidates,
    check_success,
    localize_full,
    start_candidates,
    write_ranked_csv,
)
from .retrieval import (
    DistHistogram,
    PrCurve,
    RecallCurve,
    distance_histograms,
    precision_recall_curve,
    topk_percent_recall,
    truth_ranks,
)
from .store import DescriptorStore, StoreFormatError
from .synth import SyntheticWorldConfig, generate_synthetic_world
from .world import (
    DEFAULT_TURN_THRESHOLD,
    TAG_NAMES,
    GraphFormatError,
    GraphInvariantError,
    Location,
    MapGraph,
    Route,
    TurnPattern,
    bearing_deg,
    enumerate_routes,
    load_graph,
    save_graph,
    turn_pattern,
)

__version__ = "0.1.0"
