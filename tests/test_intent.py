"""Intent features, the cue-word rule, and the linear classifier."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from intentclick.intent import (
    BOW_DIM,
    L2_PENALTY,
    LEARNING_RATE,
    MAX_ITERS,
    TOL,
    FeatureVector,
    classify,
    click_ratio,
    clicked_url_counts,
    evaluate_classifier,
    extract_features,
    f1_score,
    load_lexicon,
    max_url_match_ratio,
    n_clicks_satisfied,
    n_results_satisfied,
    rule_label,
    rule_label_transactional,
    save_classifier,
    train_classifier,
    url_match_ratio,
)
from intentclick.sessions import Intent, KNOWN_INTENTS, Session, encode_sessions


def _session(clicks, query="q1"):
    docs = tuple(f"d{i}" for i in range(1, len(clicks) + 1))
    return Session("s", query, Intent.UNKNOWN, docs, tuple(clicks))


class TestUrlMatchRatio:
    def test_longest_substring_over_url_length(self):
        # longest query substring present in the url is "fulton" (6 chars)
        assert url_match_ratio("fulton ny", "www.fultoncountyny.org") == pytest.approx(
            6 / 22
        )

    def test_whole_query_contained(self):
        assert url_match_ratio("github", "github.com") == pytest.approx(0.6)

    def test_no_overlap(self):
        assert url_match_ratio("xyz", "abc.com") == 0.0

    def test_empty_url_rejected(self):
        with pytest.raises(ValueError):
            url_match_ratio("query", "")

    def test_case_insensitive(self):
        assert url_match_ratio("GitHub", "GITHUB.COM") == pytest.approx(0.6)

    def test_is_one_iff_url_inside_query(self):
        assert url_match_ratio("visit github.com now", "github.com") == 1.0
        assert url_match_ratio("github", "github.com") < 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        alphabet = "abcdABÉéü. "
        for _ in range(200):
            q = "".join(rng.choice(list(alphabet), size=rng.integers(1, 10)))
            u = "".join(rng.choice(list(alphabet.strip()), size=rng.integers(1, 12)))
            expected = oracles.longest_query_substring_in_url(q, u) / len(u)
            assert url_match_ratio(q, u) == pytest.approx(expected)
            assert 0.0 <= url_match_ratio(q, u) <= 1.0


# Characters whose lower() is longer than themselves ("İ"), case pairs,
# and the url punctuation that joins query words.
_MATCH_TEXT = st.text(alphabet="abAB.İıß ", max_size=12)


class TestMaxUrlMatchRatio:
    """The extending substring scan against the brute-force longest
    substring, divided by the lowered url's length, maximized over the urls."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_MATCH_TEXT, st.lists(_MATCH_TEXT.filter(bool), max_size=5))
    def test_matches_brute_force_oracle(self, query, urls):
        expected = max((oracles.longest_query_substring_in_url(query, u) / len(u.lower())
                        for u in urls), default=0.0)
        assert max_url_match_ratio(query, urls) == expected
        for u in urls:
            assert url_match_ratio(query, u) == \
                oracles.longest_query_substring_in_url(query, u) / len(u.lower())

    def test_empty_matches(self):
        assert max_url_match_ratio("", ["abc"]) == 0.0
        assert max_url_match_ratio("xyz", ["abc", "b"]) == 0.0
        assert max_url_match_ratio("q", []) == 0.0

    def test_lowering_that_lengthens_the_url(self):
        # "İ".lower() is two characters: the ratio divides by the lowered length.
        assert url_match_ratio("i", "İ") == 0.5
        assert max_url_match_ratio("İ", ["İ", "ab"]) == 1.0

    def test_empty_url_rejected_after_a_perfect_match(self):
        with pytest.raises(ValueError):
            max_url_match_ratio("abc", ["abc", ""])


class TestClickRatio:
    def test_shares(self):
        assert click_ratio({"u1": 3, "u2": 7}) == {"u1": 0.3, "u2": 0.7}

    def test_single_url(self):
        assert click_ratio({"u1": 5}) == {"u1": 1.0}

    def test_no_clicks_rejected(self):
        with pytest.raises(ValueError):
            click_ratio({})
        with pytest.raises(ValueError):
            click_ratio({"u1": 0})

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            counts = {f"u{i}": int(c) for i, c in enumerate(rng.integers(0, 20, 8)) if c}
            if not counts:
                continue
            assert sum(click_ratio(counts).values()) == pytest.approx(1.0, abs=1e-12)


class TestClickSatisfaction:
    def test_ncs_counts_sessions_below_n(self):
        sessions = [_session((1,)), _session((1, 1, 1)), _session((0,))]
        assert n_clicks_satisfied(encode_sessions(sessions), 2) == pytest.approx(2 / 3)

    def test_ncs_zero_clicks_always_satisfy(self):
        sessions = [_session((0, 0)), _session((0,))]
        assert n_clicks_satisfied(encode_sessions(sessions), 1) == 1.0

    def test_ncs_no_session_below_one(self):
        sessions = [_session((1,)), _session((0, 1))]
        assert n_clicks_satisfied(encode_sessions(sessions), 1) == 0.0

    def test_nrs_top_n_containment(self):
        sessions = [_session((1, 1, 0, 0)), _session((0, 0, 0, 1)), _session((1, 0, 0, 0))]
        assert n_results_satisfied(encode_sessions(sessions), 3) == pytest.approx(2 / 3)

    def test_nrs_all_top_one(self):
        sessions = [_session((1, 0)), _session((1, 0, 0))]
        assert n_results_satisfied(encode_sessions(sessions), 1) == 1.0

    def test_nrs_zero_click_sessions_satisfy(self):
        sessions = [_session((0, 0, 0, 0, 1)), _session((0, 0))]
        assert n_results_satisfied(encode_sessions(sessions), 3) == pytest.approx(1 / 2)

    def test_monotone_in_n(self):
        rng = np.random.default_rng(2)
        sessions = [
            _session(tuple(int(x) for x in rng.integers(0, 2, 6))) for _ in range(40)
        ]
        ncs = [n_clicks_satisfied(encode_sessions(sessions), n) for n in range(1, 8)]
        nrs = [n_results_satisfied(encode_sessions(sessions), n) for n in range(1, 8)]
        assert ncs == sorted(ncs)
        assert nrs == sorted(nrs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            n_clicks_satisfied(encode_sessions([]), 2)
        with pytest.raises(ValueError):
            n_results_satisfied(encode_sessions([]), 2)

    def test_n_below_one_rejected(self):
        batch = encode_sessions([_session((1, 0))])
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            n_clicks_satisfied(batch, 0)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            n_results_satisfied(batch, 0)
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            n_clicks_satisfied(batch, 2.5)
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            n_results_satisfied(batch, 2.5)


class TestTransactionalRule:
    def test_file_extension_cue(self):
        assert rule_label_transactional("introduction to algorithms pdf")

    def test_informational_query(self):
        assert not rule_label_transactional("amazon forest")

    def test_music_cue(self):
        assert rule_label_transactional("free music streaming")

    def test_cue_must_be_whole_token(self):
        assert not rule_label_transactional("pdfs are great")
        assert not rule_label_transactional("travels of marco polo")

    def test_custom_lexicon(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("# transactional cues\nwarez\nkeygen  # trailing comment\n\n")
        lexicon = load_lexicon(path)
        assert lexicon == {"warez", "keygen"}
        assert rule_label_transactional("photoshop keygen", lexicon)
        assert not rule_label_transactional("free music", lexicon)

    def test_lexicon_with_byte_order_mark_matches_its_first_cue(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("\ufeffwarez\nkeygen\n", encoding="utf-8")
        assert load_lexicon(path) == {"warez", "keygen"}
        assert rule_label_transactional("warez site", load_lexicon(path))


class TestRuleLabel:
    @staticmethod
    def _features(ncs, nrs):
        return FeatureVector(urlmr=0.0, max_click_ratio=0.0, ncs=ncs, nrs=nrs, query_length=1,
                             bow=np.zeros(BOW_DIM))

    @pytest.mark.parametrize("ncs, nrs, expected", [
        (0.7, 0.7, Intent.NAVIGATIONAL),
        (1.0, 1.0, Intent.NAVIGATIONAL),
        (0.69, 1.0, Intent.INFORMATIONAL),
        (1.0, 0.69, Intent.INFORMATIONAL),
        (0.0, 0.0, Intent.INFORMATIONAL),
    ])
    def test_thresholds(self, ncs, nrs, expected):
        assert rule_label("weather", self._features(ncs, nrs)) is expected

    def test_no_click_data_is_not_nav(self):
        features = replace(self._features(1.0, 1.0), click_data_missing=True)
        assert rule_label("weather report", features) is Intent.INFORMATIONAL
        assert rule_label("mp3 player", features) is Intent.TRANSACTIONAL

    def test_cue_comes_before_the_thresholds(self):
        assert rule_label("mp3 player", self._features(1.0, 1.0)) is Intent.TRANSACTIONAL
        assert rule_label("mp3 player", self._features(1.0, 1.0), frozenset({"warez"})) is (
            Intent.NAVIGATIONAL)


class TestExtractFeatures:
    def test_missing_click_data_degrades_gracefully(self):
        fv = extract_features("some query", encode_sessions([]), {})
        assert fv.urlmr == 0.0 and fv.max_click_ratio == 0.0
        assert fv.ncs == 0.0 and fv.nrs == 0.0
        assert fv.click_data_missing

    def test_deterministic(self):
        sessions = [_session((1, 0)), _session((0, 1))]
        counts = {"d1": 3, "d2": 1}
        a = extract_features("some query", encode_sessions(sessions), counts)
        b = extract_features("some query", encode_sessions(sessions), counts)
        assert a.to_array().tolist() == b.to_array().tolist()

    def test_query_length_token_count(self):
        fv = extract_features("sorting algorithms for big data", encode_sessions([]), {})
        assert fv.query_length == 5

    def test_vector_layout_is_stable(self):
        fv = extract_features("a b", encode_sessions([_session((1,))]), {"d1": 2})
        arr = fv.to_array()
        assert arr.shape == (6 + BOW_DIM,)
        assert arr[0] == fv.urlmr
        assert arr[4] == 2.0  # query length slot

    def test_ncs_and_nrs_use_fixed_n(self):
        # Each n in 1..4 gives a different nCS and a different nRS here, so
        # only n = 2 for nCS and n = 3 for nRS give the feature values.
        batch = encode_sessions([_session(c) for c in [
            (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
            (0, 1, 1, 0, 0), (1, 1, 0, 1, 0), (1, 1, 1, 0, 1),
        ]])
        ncs = [n_clicks_satisfied(batch, n) for n in range(1, 5)]
        nrs = [n_results_satisfied(batch, n) for n in range(1, 5)]
        assert len(set(ncs)) == len(set(nrs)) == 4
        fv = extract_features("some query", batch, clicked_url_counts(batch))
        assert fv.ncs == n_clicks_satisfied(batch, 2)
        assert fv.nrs == n_results_satisfied(batch, 3)

    def test_clicked_url_counts(self):
        sessions = [_session((1, 0)), _session((1, 1))]
        assert clicked_url_counts(encode_sessions(sessions)) == {"d1": 2, "d2": 1}


def _separable_dataset(n_per_class=60, bow_dim=32, seed=11):
    rng = np.random.default_rng(seed)
    centers = {
        Intent.INFORMATIONAL: np.array([0.10, 0.25, 0.35, 0.45, 4.5]),
        Intent.NAVIGATIONAL: np.array([0.65, 0.85, 0.92, 0.95, 1.8]),
        Intent.TRANSACTIONAL: np.array([0.25, 0.55, 0.70, 0.70, 3.2]),
    }
    marker = {Intent.INFORMATIONAL: 3, Intent.NAVIGATIONAL: 11, Intent.TRANSACTIONAL: 23}
    features, labels = [], []
    for intent in KNOWN_INTENTS:
        for _ in range(n_per_class):
            head = np.clip(centers[intent][:4] + rng.normal(0, 0.05, 4), 0, 1)
            bow = np.zeros(bow_dim)
            bow[marker[intent]] += 1
            bow[rng.integers(0, bow_dim)] += 1
            features.append(
                FeatureVector(
                    urlmr=float(head[0]),
                    max_click_ratio=float(head[1]),
                    ncs=float(head[2]),
                    nrs=float(head[3]),
                    query_length=max(1, int(round(centers[intent][4] + rng.normal(0, 0.6)))),
                    bow=bow,
                )
            )
            labels.append(intent)
    return features, labels


class TestClassifier:
    def test_separable_data_trains_to_high_accuracy(self):
        features, labels = _separable_dataset()
        model = train_classifier(features, labels)
        preds = [classify(model, fv)[0] for fv in features]
        accuracy = sum(p is t for p, t in zip(preds, labels)) / len(labels)
        assert accuracy >= 0.99

    def test_duplicating_every_sample_changes_nothing(self):
        features, labels = _separable_dataset(n_per_class=30)
        a = train_classifier(features, labels)
        b = train_classifier(features + features, labels + labels)
        assert np.abs(a.weights - b.weights).max() < 1e-6
        assert np.abs(a.bias - b.bias).max() < 1e-6

    def test_single_class_is_degenerate(self):
        features, labels = _separable_dataset(n_per_class=10)
        only_nav = [f for f, l in zip(features, labels) if l is Intent.NAVIGATIONAL]
        with pytest.raises(ValueError, match="^training needs at least 2 distinct classes$"):
            train_classifier(only_nav, [Intent.NAVIGATIONAL] * len(only_nav))

    def test_mismatched_or_empty_input_rejected(self):
        features, labels = _separable_dataset(n_per_class=2)
        with pytest.raises(ValueError, match="6 features vs 5 labels"):
            train_classifier(features, labels[:5])
        with pytest.raises(ValueError, match="no training data"):
            train_classifier([], [])

    def test_unknown_labels_rejected(self):
        features, _ = _separable_dataset(n_per_class=2)
        with pytest.raises(ValueError):
            train_classifier(features[:2], [Intent.UNKNOWN, Intent.NAVIGATIONAL])

    def test_deterministic_across_runs(self):
        features, labels = _separable_dataset(n_per_class=20)
        a = train_classifier(features, labels)
        b = train_classifier(features, labels)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_dimension_mismatch(self):
        features, labels = _separable_dataset(n_per_class=10)
        model = train_classifier(features, labels)  # trained on 32-dimension bags
        other = extract_features("query", encode_sessions([]), {})
        with pytest.raises(ValueError):
            classify(model, other)

    def test_exact_tie_breaks_to_informational(self):
        features, labels = _separable_dataset(n_per_class=5)
        model = train_classifier(features, labels)
        model.weights[:] = 0.0
        model.bias[:] = 0.0
        label, scores = classify(model, features[0])
        assert label is Intent.INFORMATIONAL
        assert scores[Intent.INFORMATIONAL] == pytest.approx(1 / 3)

    def test_uniform_weight_scaling_keeps_argmax(self):
        features, labels = _separable_dataset(n_per_class=20)
        model = train_classifier(features, labels)
        before = [classify(model, fv)[0] for fv in features]
        model.weights *= 3.7
        model.bias *= 3.7
        after = [classify(model, fv)[0] for fv in features]
        assert before == after

    def test_export_holds_what_classify_reads(self, tmp_path):
        # No subcommand reads the document back: it is an export for inspection.
        features, labels = _separable_dataset(n_per_class=10)
        model = train_classifier(features, labels)
        path = tmp_path / "clf.json"
        save_classifier(path, model)
        doc = json.loads(path.read_text())
        assert doc["classes"] == ["inf", "nav", "tra"]
        for field in ("weights", "bias", "feature_mean", "feature_scale"):
            assert np.array_equal(doc[field], getattr(model, field)), field


def _random_problem(rng, n, bow_dim, noise=1.0):
    """n feature vectors of random click features and bags, with labels
    drawn from a softmax of a random linear score plus noise; every class
    appears."""
    features, scores = [], []
    direction = rng.normal(size=(len(KNOWN_INTENTS), 4 + bow_dim))
    for _ in range(n):
        values = rng.normal(size=4 + bow_dim)
        features.append(FeatureVector(urlmr=float(values[0]), max_click_ratio=float(values[1]),
                                      ncs=float(values[2]), nrs=float(values[3]),
                                      query_length=int(rng.integers(1, 4)), bow=values[4:]))
        scores.append(direction @ values + noise * rng.gumbel(size=len(KNOWN_INTENTS)))
    labels = [KNOWN_INTENTS[int(k)] for k in np.argmax(scores, axis=1)]
    labels[:3] = KNOWN_INTENTS
    return features, labels


class TestTrainerMatchesPrimalDescent:
    """The row-space trainer against gradient descent on the weights
    themselves (oracles.primal_softmax_descent): the same iteration count,
    weights within 1e-9 and the same labels."""

    @staticmethod
    def _check(features, labels):
        model = train_classifier(features, labels)
        x = np.stack([fv.to_array() for fv in features])
        x = (x - model.feature_mean) / model.feature_scale
        onehot = np.eye(len(KNOWN_INTENTS))[[KNOWN_INTENTS.index(t) for t in labels]]
        w, b, iterations = oracles.primal_softmax_descent(
            x, onehot, LEARNING_RATE, MAX_ITERS, L2_PENALTY, TOL)
        assert model.iterations == iterations
        assert np.abs(model.weights - w).max() <= 1e-9
        assert np.abs(model.bias - b).max() <= 1e-9
        oracle = replace(model, weights=w, bias=b)
        assert [classify(model, fv)[0] for fv in features] == \
            [classify(oracle, fv)[0] for fv in features]
        return model

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fewer_queries_than_features(self, seed):
        features, labels = _random_problem(np.random.default_rng(seed), 30, 64)
        assert self._check(features, labels).iterations == MAX_ITERS

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_more_queries_than_features(self, seed):
        features, labels = _random_problem(np.random.default_rng(seed), 120, 8)
        self._check(features, labels)

    def test_duplicated_rows(self):
        features, labels = _random_problem(np.random.default_rng(3), 25, 16)
        self._check(features * 3, labels * 3)

    def test_separable_bags(self):
        features, labels = _separable_dataset(n_per_class=15)
        self._check(features, labels)

    def test_constant_features_train_the_bias_alone(self):
        # Every standardized column is 0: no weight moves, and the bias
        # settles on the class shares within TOL.
        fv = FeatureVector(urlmr=0.5, max_click_ratio=1.0, ncs=0.25, nrs=0.75, query_length=2,
                           bow=np.ones(4))
        model = self._check([fv] * 6, [KNOWN_INTENTS[k] for k in (0, 0, 0, 1, 1, 2)])
        assert model.iterations < MAX_ITERS
        assert not model.weights.any()

    def test_stops_on_tol_before_max_iters(self):
        # Noisy labels keep the optimum at moderate weights, where descent
        # converges geometrically; under the L2 term separable data needs
        # thousands of steps to get within TOL.
        features, labels = _random_problem(np.random.default_rng(4), 300, 0, noise=3.0)
        assert self._check(features, labels).iterations < MAX_ITERS


class TestEvaluateClassifier:
    def test_perfect_predictions(self):
        truth = [Intent.INFORMATIONAL, Intent.NAVIGATIONAL, Intent.TRANSACTIONAL] * 3
        metrics = evaluate_classifier(truth, truth)
        assert metrics.macro.precision == 1.0
        assert metrics.macro.recall == 1.0
        assert metrics.macro.f1 == 1.0

    def test_hand_computed_counts(self):
        inf, nav = Intent.INFORMATIONAL, Intent.NAVIGATIONAL
        truth = [inf, inf, nav, nav]
        preds = [inf, nav, nav, nav]
        metrics = evaluate_classifier(preds, truth)
        assert metrics.per_class[inf].precision == 1.0
        assert metrics.per_class[inf].recall == 0.5
        assert metrics.per_class[nav].precision == pytest.approx(2 / 3)
        assert metrics.per_class[nav].recall == 1.0

    def test_f1_is_harmonic_mean(self):
        assert f1_score(0.84, 0.87) == pytest.approx(0.8547, abs=1e-4)
        assert f1_score(0.78, 0.81) == pytest.approx(0.7947, abs=1e-4)
        assert f1_score(0.0, 0.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_classifier([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="2 predictions vs 1 labels"):
            evaluate_classifier([Intent.INFORMATIONAL] * 2, [Intent.INFORMATIONAL])

    def test_unknown_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate_classifier([Intent.INFORMATIONAL], [Intent.UNKNOWN])
