"""Per-fingertip grasp instability detection from 3-axial tactile streams."""

from .detect import Detection, FingertipDetector, MultiFingerDetector, detect_stream
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    ablation_study,
    compute_metrics,
    energy_threshold_baseline,
    window_sweep,
)
from .features import (
    DwtConfig,
    StreamingExtractor,
    batch_features,
    extract_stream,
    haar_decompose,
)
from .models import (
    LinearModel,
    TrainConfig,
    fit_standardizer,
    load_model,
    predict_score_batch,
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
    aggregate_taxels,
    aggregate_tip_force,
    load_geometry,
    save_geometry,
)

__version__ = "0.1.0"
