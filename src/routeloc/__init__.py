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
    bsd_from_map,
    bsd_localize,
    hamming_cost_vector,
    map_code_matrix,
    simulate_query_codes,
    turn_only_localize,
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
    DEFAULT_DIM,
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
    encode,
    encode_batch,
    normalize_scale,
    pair_counts,
    soft_margin_grad,
    soft_margin_loss,
    train_encoders,
)
from .localizer import (
    CandidateSet,
    LocalizerConfig,
    RouteDescriptor,
    advance_candidates,
    check_success,
    localize_full,
    localize_step,
    route_distance,
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
from .store import DescriptorStore, StoreFormatError, build_store
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
    extend_routes,
    load_graph,
    save_graph,
    turn_bits,
    turn_pattern,
    turn_pattern_matrix,
)

__version__ = "0.1.0"
