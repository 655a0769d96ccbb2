"""Click-model toolkit: unbiased relevance from search click logs.

Parses query logs into sessions, classifies query intent, fits PBM /
cascade / UBM / DBN click models (and their intent-aware variants) by EM,
simulates synthetic logs from known parameters for verification, and
scores click prediction with perplexity and rankings with NDCG.
"""

__version__ = "0.1.0"

from .sessions import (
    Intent,
    Judgments,
    KNOWN_INTENTS,
    LogEvent,
    Session,
    SessionBatch,
    encode_sessions,
    parse_aol_line,
    read_sessions,
    sessionize,
    write_sessions,
)
from .models import (
    CASCADE,
    DBN,
    PBM,
    UBM,
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    load_params,
    save_params,
    session_log_likelihood,
    session_prob,
)
from .inference import EmConfig, FitReport, alternating_fit, em_fit
from .simulate import GroundTruth, SimConfig, click_behavior_preset, generate_ground_truth, simulate_sessions
from .evaluate import (
    EvalReport,
    compare_models,
    evaluate_model,
    ndcg_at_k,
    perplexity_improvement,
    position_perplexity,
)
from .intent import (
    ClassifierModel,
    FeatureVector,
    classify,
    evaluate_classifier,
    extract_features,
    train_classifier,
    url_match_ratio,
)

__all__ = [
    "__version__",
    "Intent",
    "KNOWN_INTENTS",
    "LogEvent",
    "Session",
    "SessionBatch",
    "encode_sessions",
    "Judgments",
    "parse_aol_line",
    "sessionize",
    "read_sessions",
    "write_sessions",
    "PBM",
    "CASCADE",
    "UBM",
    "DBN",
    "PbmParams",
    "CascadeParams",
    "UbmParams",
    "DbnParams",
    "IntentAwareParams",
    "session_prob",
    "session_log_likelihood",
    "save_params",
    "load_params",
    "EmConfig",
    "FitReport",
    "em_fit",
    "alternating_fit",
    "SimConfig",
    "GroundTruth",
    "generate_ground_truth",
    "simulate_sessions",
    "click_behavior_preset",
    "EvalReport",
    "position_perplexity",
    "perplexity_improvement",
    "ndcg_at_k",
    "evaluate_model",
    "compare_models",
    "FeatureVector",
    "ClassifierModel",
    "url_match_ratio",
    "extract_features",
    "train_classifier",
    "classify",
    "evaluate_classifier",
]
