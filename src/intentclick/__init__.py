"""Click-model toolkit: unbiased relevance from search click logs.

Parses query logs into sessions, classifies query intent, fits PBM /
cascade / UBM / DBN click models (and their intent-aware variants) by EM,
simulates synthetic logs from known parameters for verification, and
scores click prediction with perplexity and rankings with NDCG.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the module that defines it. A name's module is
# imported on first use (PEP 562), so a stage imports only what it runs:
# ``compare`` never loads numpy.
_HOMES = {
    "Intent": "sessions",
    "KNOWN_INTENTS": "sessions",
    "LogEvent": "sessions",
    "Session": "sessions",
    "SessionBatch": "sessions",
    "encode_sessions": "sessions",
    "Judgments": "sessions",
    "parse_aol_line": "sessions",
    "sessionize": "sessions",
    "read_sessions": "sessions",
    "write_sessions": "sessions",
    "PBM": "common",
    "CASCADE": "common",
    "UBM": "common",
    "DBN": "common",
    "PbmParams": "models",
    "CascadeParams": "models",
    "UbmParams": "models",
    "DbnParams": "models",
    "IntentAwareParams": "models",
    "session_prob": "models",
    "session_log_likelihood": "models",
    "save_params": "models",
    "load_params": "models",
    "EmConfig": "inference",
    "FitReport": "inference",
    "em_fit": "inference",
    "SimConfig": "simulate",
    "GroundTruth": "simulate",
    "generate_ground_truth": "simulate",
    "simulate_sessions": "simulate",
    "click_behavior_preset": "simulate",
    "EvalReport": "reports",
    "position_perplexity": "evaluate",
    "perplexity_improvement": "reports",
    "ndcg_at_k": "evaluate",
    "evaluate_model": "evaluate",
    "compare_models": "reports",
    "FeatureVector": "intent",
    "ClassifierModel": "intent",
    "url_match_ratio": "intent",
    "extract_features": "intent",
    "train_classifier": "intent",
    "classify": "intent",
    "evaluate_classifier": "intent",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    try:
        module = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
