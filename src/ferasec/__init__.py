"""IR-UWB radar frame-set toolkit.

Clutter filtering, envelope-based feature extraction (FERASEC),
multidimensional DTW and hybrid MLP-HMM sequence classification, a
deterministic synthetic corpus generator, and a leave-one-out
cross-validation harness.
"""

from .clutter import DEFAULT_ALPHA, reduce_frameset
from .dtw import DtwConfig, classify_1nn, mddtw_distance
from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    FerasecError,
    FormatError,
    GenerationError,
    NumericError,
    TrainingError,
)
from .features import (
    FeatureMatrix,
    FerasecConfig,
    circular_align,
    delta,
    downsample,
    extract_features,
    load_features,
    normalize_length,
    remove_dc,
    rms_envelope,
    store_features,
    vectorize,
)
from .frames import (
    CorpusManifest,
    Frame,
    FrameSet,
    FrameSetKind,
    ManifestEntry,
    fast_time_to_distance,
    load_frameset,
    load_manifest,
    pearson_correlation,
    positioning_check,
    slow_time_to_seconds,
    store_frameset,
    store_manifest,
)
from .harness import (
    EvaluationReport,
    FoldRecord,
    format_report,
    loocv,
    report_to_text,
    write_report,
)
from .hmm import (
    HmmTrainingConfig,
    MlpSpec,
    TrainedHmmModel,
    classify,
    flat_start_align,
    load_model,
    mlp_backprop,
    mlp_forward,
    mlp_init,
    mlp_log_posteriors,
    splice_context,
    store_model,
    train,
    viterbi_decode,
)
from .synth import (
    GestureBump,
    GestureScript,
    Reflector,
    SimConfig,
    default_clutter_profile,
    generate_corpus,
    parse_scripts_text,
    render_frameset,
    vowel8_preset,
)

__version__ = "0.1.0"
