"""Property tests: session probabilities of every model, base and
intent-aware, against the brute-force enumeration oracles."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from intentclick.models import (
    CascadeParams,
    DbnParams,
    IntentAwareParams,
    PbmParams,
    UbmParams,
    click_probs,
    session_prob,
    ubm_cells,
)
from intentclick.sessions import ALL_INTENTS, Intent, KNOWN_INTENTS, Session, encode_sessions

KINDS = ["pbm", "cascade", "ubm", "dbn"]
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0)


def _units(n):
    return st.lists(unit, min_size=n, max_size=n)


@st.composite
def tables(draw, kind, n):
    """A random parameter set over docs d1..dn, with its oracle for the
    click vector of a session showing d1..dm, m <= n."""
    rels = draw(_units(n))
    rel = {("q", f"d{i + 1}"): r for i, r in enumerate(rels)}
    if kind == "pbm":
        gammas = draw(_units(n))
        params = PbmParams(exam={i + 1: g for i, g in enumerate(gammas)}, rel=rel, max_positions=n)
        return params, lambda c: oracles.pbm_session_prob(gammas, rels, c)
    if kind == "cascade":
        return CascadeParams(rel=rel), lambda c: oracles.cascade_session_prob(rels[: len(c)], c)
    if kind == "ubm":
        beta = {cell: draw(unit) for cell in ubm_cells(n)}
        params = UbmParams(beta=beta, rel=rel, max_positions=n)
        return params, lambda c: oracles.ubm_session_prob(beta, rels, c)
    sats = draw(_units(n))
    gamma = draw(unit)
    params = DbnParams(rel=rel, sat={k: s for k, s in zip(rel, sats)}, gamma_cont=gamma)
    return params, lambda c: oracles.dbn_session_prob(rels[: len(c)], sats[: len(c)], gamma, c)


@st.composite
def models(draw, kind, intent_aware):
    """(params, intent, oracle, n): base params, or an intent-aware set whose
    table for the drawn intent is the one the oracle enumerates."""
    n = draw(st.integers(1, 4))
    if not intent_aware:
        params, oracle = draw(tables(kind, n))
        return params, Intent.UNKNOWN, oracle, n
    drawn = {intent: draw(tables(kind, n)) for intent in ALL_INTENTS}
    params = IntentAwareParams(
        per_intent={t: drawn[t][0] for t in KNOWN_INTENTS}, fallback=drawn[Intent.UNKNOWN][0]
    )
    intent = draw(st.sampled_from(ALL_INTENTS))
    return params, intent, drawn[intent][1], n


def _session(clicks, intent):
    docs = tuple(f"d{i + 1}" for i in range(len(clicks)))
    return Session("s", "q", intent, docs, tuple(clicks))


@pytest.mark.parametrize("intent_aware", [False, True], ids=["base", "ia"])
@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_session_prob_matches_enumeration(kind, intent_aware, data):
    params, intent, oracle, n = data.draw(models(kind, intent_aware))
    clicks = data.draw(st.tuples(*[st.integers(0, 1)] * n))
    assert session_prob(params, _session(clicks, intent)) == pytest.approx(
        oracle(clicks), abs=1e-12
    )


@pytest.mark.parametrize("intent_aware", [False, True], ids=["base", "ia"])
@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_click_vector_probabilities_sum_to_one(kind, intent_aware, data):
    params, intent, _, n = data.draw(models(kind, intent_aware))
    total = sum(
        session_prob(params, _session(clicks, intent))
        for clicks in itertools.product((0, 1), repeat=n)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("intent_aware", [False, True], ids=["base", "ia"])
@pytest.mark.parametrize("kind", KINDS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_batch_rows_match_enumeration(kind, intent_aware, data):
    # One batch of sessions of mixed lengths and intents: each row's chain
    # rule over its own positions, read past the padding and through the
    # per-intent routing, matches the enumeration for that row's table.
    if intent_aware:
        drawn = {intent: data.draw(tables(kind, 4)) for intent in ALL_INTENTS}
        params = IntentAwareParams(
            per_intent={t: drawn[t][0] for t in KNOWN_INTENTS}, fallback=drawn[Intent.UNKNOWN][0]
        )
        oracle_for = {t: drawn[t][1] for t in ALL_INTENTS}
    else:
        params, oracle = data.draw(tables(kind, 4))
        oracle_for = dict.fromkeys(ALL_INTENTS, oracle)
    clicks = st.lists(st.integers(0, 1), min_size=1, max_size=4)
    rows = st.tuples(clicks, st.sampled_from(ALL_INTENTS))
    sessions = [_session(c, t) for c, t in data.draw(st.lists(rows, min_size=1, max_size=5))]
    probs = click_probs(params, encode_sessions(sessions))
    for q, s in zip(probs, sessions):
        chain = math.prod(p if c else 1.0 - p for p, c in zip(q[: len(s)], s.clicks))
        assert chain == pytest.approx(oracle_for[s.intent](s.clicks), abs=1e-12)
