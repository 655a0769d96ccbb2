"""Query-intent features and a lightweight multiclass classifier.

The feature set pairs click-through evidence (url match ratio, click
ratio, nCS, nRS) with cheap linguistic signals (token count, hashed
bag-of-words). Classification uses multinomial logistic regression trained
by full-batch gradient descent: deterministic, dependency-free, and
linear, which is all the feature design needs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .common import LineError, check_count, numbered_lines, write_json
from .sessions import Intent, KNOWN_INTENTS, SessionBatch, normalize_query

BOW_DIM = 1024

# Cue tokens for transactional queries: the five cue-word categories plus
# common file-extension and retrieval tokens.
DEFAULT_TRANSACTIONAL_CUES = frozenset(
    {
        "file", "files",
        "video", "videos",
        "music", "song", "songs",
        "picture", "pictures", "photo", "photos", "image", "images",
        "travel", "flight", "flights", "hotel", "hotels", "ticket", "tickets",
        "download", "downloads", "pdf", "mp3", "mp4", "torrent", "zip", "doc", "ppt",
    }
)
# The n of the nCS and nRS features (Liu et al., AIRS 2006).
NCS_N = 2
NRS_N = 3
# Rule mode's thresholds: nCS and nRS both this high suggest a navigational goal.
RULE_NCS_THRESHOLD = 0.7
RULE_NRS_THRESHOLD = 0.7


def url_match_ratio(query: str, url: str) -> float:
    """Length of the longest query substring found in the url, over the url
    length. Case-insensitive; 1.0 means the whole url appears in the query.
    """
    return max_url_match_ratio(query, (url,))


def max_url_match_ratio(query: str, urls: Iterable[str]) -> float:
    """The largest url_match_ratio of the query over the urls."""
    q = query.lower()
    best = 0.0
    for url in urls:
        if not url:
            raise ValueError("url must be non-empty")
        u = url.lower()
        # No match is longer than the shorter string: skip a url that
        # cannot beat the best ratio so far.
        if min(len(q), len(u)) / len(u) > best:
            best = max(best, _longest_common_substring(q, u) / len(u))
    return best


def _longest_common_substring(q: str, u: str) -> int:
    """Length of the longest substring of q found in u.

    A substring of a match is a match, so once some match has length
    best, a start i of q holds a longer one iff q[i:i + best + 1] is in u:
    the scan grows best while that holds and moves i on when it does not.
    """
    best = i = 0
    while i + best < len(q):
        if q[i:i + best + 1] in u:
            best += 1
        else:
            i += 1
    return best


def click_ratio(click_counts: Mapping[str, int]) -> dict[str, float]:
    """Share of a query's clicks landing on each url; shares sum to 1."""
    total = sum(click_counts.values())
    if total <= 0:
        raise ValueError("click_ratio needs at least one click")
    return {url: count / total for url, count in click_counts.items()}


def n_clicks_satisfied(sessions_of_query: SessionBatch, n: int) -> float:
    """Fraction of the query's sessions with fewer than n clicks."""
    if not sessions_of_query:
        raise ValueError("no sessions supplied")
    check_count("n", n)
    hits = np.count_nonzero(sessions_of_query.clicks.sum(axis=1) < n)
    return int(hits) / len(sessions_of_query)


def n_results_satisfied(sessions_of_query: SessionBatch, n: int) -> float:
    """Fraction of sessions whose clicks all fall in the top n positions.

    Zero-click sessions count as satisfied (vacuously within the top n).
    """
    if not sessions_of_query:
        raise ValueError("no sessions supplied")
    check_count("n", n)
    clicks = sessions_of_query.clicks
    last = np.max(np.where(clicks > 0, np.arange(1, clicks.shape[1] + 1), 0), axis=1, initial=0)
    return int(np.count_nonzero(last <= n)) / len(sessions_of_query)


def load_lexicon(path) -> frozenset[str]:
    """One cue token per line, normalized as a query is; '#' starts a
    comment. Queries match token by token, so a line of more than one
    token, which could never match, is a LineError."""
    tokens = set()
    for line_no, line in numbered_lines(path):
        token = normalize_query(line.split("#", 1)[0])
        if " " in token:
            raise LineError(f"lexicon entry {token!r} is more than one token", line_no)
        if token:
            tokens.add(token)
    return frozenset(tokens)


def rule_label_transactional(query: str, lexicon: frozenset[str] | None = None) -> bool:
    """True iff the normalized query contains a cue token from the lexicon."""
    cues = DEFAULT_TRANSACTIONAL_CUES if lexicon is None else lexicon
    return any(token in cues for token in query.split())


def rule_label(query: str, features: FeatureVector,
               lexicon: frozenset[str] | None = None) -> Intent:
    """Rule mode's label, for when no classifier is trained: transactional
    if the query holds a cue token, else navigational if it has click data
    and nCS and nRS both reach their thresholds, else informational. With
    no click at all, nCS and nRS are 1, which is no evidence."""
    if rule_label_transactional(query, lexicon):
        return Intent.TRANSACTIONAL
    if (not features.click_data_missing and features.ncs >= RULE_NCS_THRESHOLD
            and features.nrs >= RULE_NRS_THRESHOLD):
        return Intent.NAVIGATIONAL
    return Intent.INFORMATIONAL


def hash_token(token: str) -> int:
    # crc32 is stable across processes, unlike the builtin str hash.
    return zlib.crc32(token.encode("utf-8")) % BOW_DIM


@dataclass
class FeatureVector:
    """Numeric description of one query; ordering is fixed for training."""

    urlmr: float
    max_click_ratio: float
    ncs: float
    nrs: float
    query_length: int
    bow: np.ndarray
    click_data_missing: bool = False

    def to_array(self) -> np.ndarray:
        head = np.array(
            [
                self.urlmr,
                self.max_click_ratio,
                self.ncs,
                self.nrs,
                float(self.query_length),
                1.0 if self.click_data_missing else 0.0,
            ]
        )
        return np.concatenate([head, self.bow])


def extract_features(
    query: str,
    sessions_of_query: SessionBatch,
    clicked_urls: Mapping[str, int],
) -> FeatureVector:
    """Feature vector for one query, nCS at n = NCS_N and nRS at n = NRS_N;
    missing click data degrades to zeros with the missing-data flag set."""
    tokens = query.split()
    bow = np.zeros(BOW_DIM)
    for token in tokens:
        bow[hash_token(token)] += 1.0
    missing = False
    if clicked_urls and sum(clicked_urls.values()) > 0:
        urlmr = max_url_match_ratio(query, clicked_urls)
        max_cr = max(click_ratio(clicked_urls).values())
    else:
        urlmr, max_cr, missing = 0.0, 0.0, True
    if sessions_of_query:
        ncs = n_clicks_satisfied(sessions_of_query, NCS_N)
        nrs = n_results_satisfied(sessions_of_query, NRS_N)
    else:
        ncs, nrs, missing = 0.0, 0.0, True
    return FeatureVector(
        urlmr=urlmr,
        max_click_ratio=max_cr,
        ncs=ncs,
        nrs=nrs,
        query_length=len(tokens),
        bow=bow,
        click_data_missing=missing,
    )


def clicked_url_counts(sessions_of_query: SessionBatch) -> dict[str, int]:
    """Click counts per doc/url across a query's sessions."""
    pairs, counts = np.unique(sessions_of_query.pair[sessions_of_query.clicks > 0],
                              return_counts=True)
    keys = sessions_of_query.keys
    return {keys[k][1]: c for k, c in zip(pairs.tolist(), counts.tolist())}


# Gradient-descent settings of train_classifier. Training starts from zero
# weights and has no random part, so it takes no seed.
LEARNING_RATE = 0.5
MAX_ITERS = 500
L2_PENALTY = 1e-4
TOL = 1e-7


@dataclass
class ClassifierModel:
    """Linear multiclass model over standardized features, one row per
    class of KNOWN_INTENTS in that order."""

    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    bow_dim: int
    iterations: int

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


MODEL_FORMAT_VERSION = 1


def save_classifier(path, model: ClassifierModel) -> None:
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "classes": [c.value for c in KNOWN_INTENTS],
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "feature_mean": model.feature_mean.tolist(),
        "feature_scale": model.feature_scale.tolist(),
        "bow_dim": model.bow_dim,
        "iterations": model.iterations,
    }
    write_json(path, doc)


def _softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def train_classifier(
    features: Sequence[FeatureVector],
    labels: Sequence[Intent],
) -> ClassifierModel:
    """Fit multinomial logistic regression by full-batch gradient descent.

    Deterministic (zero init, fixed iteration order); raises on fewer than
    two distinct classes or Unknown labels. The descent runs in the row
    space of the standardized features and stops where descent on the
    weights themselves would.
    """
    if len(features) != len(labels):
        raise ValueError(f"{len(features)} features vs {len(labels)} labels")
    if not features:
        raise ValueError("no training data")
    if any(label is Intent.UNKNOWN for label in labels):
        raise ValueError("Unknown labels cannot be trained on")
    if len(set(labels)) < 2:
        raise ValueError("training needs at least 2 distinct classes")

    x = np.stack([fv.to_array() for fv in features])
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale < 1e-12] = 1.0
    x = (x - mean) / scale
    y = np.array([KNOWN_INTENTS.index(label) for label in labels])
    n, d = x.shape
    k = len(KNOWN_INTENTS)
    targets = np.zeros((k, n))
    targets[y, np.arange(n)] = 1.0

    # A feature that is 0 in every row gets no gradient but L2 * 0, so its
    # weights stay 0; x keeps the used columns only. Every iterate of their
    # weights w_u lies in the row space of x, so the same descent runs on
    # coefficients c over an orthonormal basis of it: with x.T = q r and
    # w_u = c q.T, the scores x w_u.T + b are r.T c.T + b and grad_w_u is
    # grad_c q.T. Scores and errors are held class-major (k, n), the
    # transpose of x's layout.
    used = np.flatnonzero(x.any(axis=0))
    x = x[:, used]
    q, r = np.linalg.qr(x.T)
    c = np.zeros((k, r.shape[0]))
    b = np.zeros((k, 1))
    iterations = 0
    for iterations in range(1, MAX_ITERS + 1):
        err = _softmax(c @ r + b, axis=0) - targets
        grad_c = err @ r.T / n + L2_PENALTY * c
        grad_b = err.mean(axis=1, keepdims=True)
        c -= LEARNING_RATE * grad_c
        b -= LEARNING_RATE * grad_b
        # The step is max(max|grad_w|, max|grad_b|); grad_w is formed only
        # when the bias gradient alone would stop.
        step = float(np.max(np.abs(grad_b)))
        if LEARNING_RATE * step < TOL:
            step = max(step, float(np.max(np.abs(grad_c @ q.T), initial=0.0)))
            if LEARNING_RATE * step < TOL:
                break
    w = np.zeros((k, d))
    w[:, used] = c @ q.T
    return ClassifierModel(
        weights=w,
        bias=b[:, 0],
        feature_mean=mean,
        feature_scale=scale,
        bow_dim=int(features[0].bow.shape[0]),
        iterations=iterations,
    )


def classify(
    model: ClassifierModel, features: FeatureVector
) -> tuple[Intent, dict[Intent, float]]:
    """Predicted intent plus per-class probabilities.

    Exact ties resolve to the earliest class in the fixed order
    (Informational < Navigational < Transactional).
    """
    x = features.to_array()
    if x.shape[0] != model.n_features:
        raise ValueError(
            f"feature dimension {x.shape[0]} does not match model {model.n_features}"
        )
    x = (x - model.feature_mean) / model.feature_scale
    scores = _softmax(model.weights @ x + model.bias)
    label = KNOWN_INTENTS[int(np.argmax(scores))]
    return label, {c: float(p) for c, p in zip(KNOWN_INTENTS, scores)}


@dataclass
class PrfScores:
    precision: float
    recall: float
    f1: float


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class ClassifierMetrics:
    per_class: dict[Intent, PrfScores]
    macro: PrfScores


def evaluate_classifier(
    predictions: Sequence[Intent], truth: Sequence[Intent]
) -> ClassifierMetrics:
    """Per-class precision/recall/F1 and their macro averages."""
    if len(predictions) != len(truth):
        raise ValueError(f"{len(predictions)} predictions vs {len(truth)} labels")
    if not predictions:
        raise ValueError("no predictions to evaluate")
    if any(t is Intent.UNKNOWN for t in truth):
        raise ValueError("truth labels must not contain Unknown")
    per_class = {}
    for intent in KNOWN_INTENTS:
        tp = sum(1 for p, t in zip(predictions, truth) if p is intent and t is intent)
        fp = sum(1 for p, t in zip(predictions, truth) if p is intent and t is not intent)
        fn = sum(1 for p, t in zip(predictions, truth) if p is not intent and t is intent)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[intent] = PrfScores(precision, recall, f1_score(precision, recall))
    macro = PrfScores(
        precision=sum(s.precision for s in per_class.values()) / len(per_class),
        recall=sum(s.recall for s in per_class.values()) / len(per_class),
        f1=sum(s.f1 for s in per_class.values()) / len(per_class),
    )
    return ClassifierMetrics(per_class=per_class, macro=macro)
