"""Per-fingertip grasp instability detection from 3-axial tactile streams."""

from .detect import Detection, FingertipDetector, MultiFingerDetector, detect_stream
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    ablation_study,
    compute_metrics,
    energy_threshold_baseline,
    split_dataset,
    window_sweep,
)
from .features import (
    DwtConfig,
    FeatureVector,
    HaarDecomposition,
    StreamingExtractor,
    compute_m,
    compute_sigma,
    extract_stream,
    haar_decompose,
)
from .models import (
    LinearModel,
    Standardizer,
    TrainConfig,
    fit_standardizer,
    load_model,
    predict_label,
    predict_proba,
    predict_score,
    save_model,
    train,
)
from .simulate import (
    DisturbanceConfig,
    EpisodeConfig,
    LabeledEpisode,
    PhaseDurations,
    generate_dataset,
    generate_episode,
    load_episode_log,
    save_episode_log,
)
from .tactile import (
    FingertipGeometry,
    ForceSample,
    TaxelFrame,
    aggregate_tip_force,
    load_geometry,
    save_geometry,
    validate_geometry,
)

__version__ = "0.1.0"
