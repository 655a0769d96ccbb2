"""Independent brute-force oracles for the click-model math.

Everything here recomputes probabilities by exhaustive enumeration of the
latent variables, deliberately avoiding the recursions and shortcuts used
by the library code, so tests compare two genuinely different routes.
"""

import itertools
import math
import string

import numpy as np


def pbm_session_prob(gammas, rels, clicks):
    """Enumerate (E_i, R_i) jointly per position; click iff both are 1."""
    total = 1.0
    for g, r, c in zip(gammas, rels, clicks):
        p = 0.0
        for e, rho in itertools.product((0, 1), repeat=2):
            pe = g if e else 1.0 - g
            pr = r if rho else 1.0 - r
            if (e * rho) == c:
                p += pe * pr
        total *= p
    return total


def cascade_session_prob(rels, clicks):
    """Sum over relevance chains whose generated click vector matches."""
    n = len(rels)
    total = 0.0
    for chain in itertools.product((0, 1), repeat=n):
        generated = [0] * n
        for i, rho in enumerate(chain):
            if rho:
                generated[i] = 1
                break
        if tuple(generated) != tuple(clicks):
            continue
        # Full-chain product: unexamined tail positions marginalize out
        # because every tail combination is enumerated.
        p = 1.0
        for i, rho in enumerate(chain):
            p *= rels[i] if rho else 1.0 - rels[i]
        total += p
    return total


def ubm_session_prob(beta, rels, clicks):
    """Chain product with explicit two-branch sums over the exam variable."""
    total = 1.0
    last = 0
    for i, (r, c) in enumerate(zip(rels, clicks), start=1):
        b = beta[(last, i)]
        p_click = b * r + (1.0 - b) * 0.0
        total *= p_click if c else 1.0 - p_click
        if c:
            last = i
    return total


def dbn_session_prob(rels, sats, gamma, clicks):
    """Enumerate every (E, S) chain consistent with the observed clicks."""
    n = len(rels)
    total = 0.0
    for e in itertools.product((0, 1), repeat=n):
        if e[0] != 1:
            continue
        for s in itertools.product((0, 1), repeat=n):
            p = 1.0
            for i in range(n):
                c = clicks[i]
                if e[i]:
                    p *= rels[i] if c else 1.0 - rels[i]
                elif c:
                    p = 0.0
                    break
                if c:
                    p *= sats[i] if s[i] else 1.0 - sats[i]
                elif s[i]:
                    p = 0.0
                    break
                if i + 1 < n:
                    if e[i] and not s[i]:
                        p *= gamma if e[i + 1] else 1.0 - gamma
                    elif e[i + 1]:
                        p = 0.0
                        break
            total += p
    return total


def dbn_em_step(rels, sats, gamma, sessions):
    """One EM step of DBN with zero priors, by enumerating every (E, S)
    chain of each session as dbn_session_prob does.

    rels and sats map (query_id, doc_id) to probabilities; sessions have
    query_id, docs and clicks. Returns the M-step (rel, sat, gamma): each
    pair's expected clicks over expected examinations, expected
    satisfactions over clicks, and expected continuations over expected
    (examined, unsatisfied) positions that have a next position. Pairs
    whose denominator is zero are left out.
    """
    succ = {"rel": {}, "sat": {}}
    trials = {"rel": {}, "sat": {}}
    cont = [0.0, 0.0]

    def add(table, key, num, den):
        succ[table][key] = succ[table].get(key, 0.0) + num
        trials[table][key] = trials[table].get(key, 0.0) + den

    for session in sessions:
        keys = [(session.query_id, d) for d in session.docs]
        clicks = session.clicks
        n = len(keys)
        chains = []
        for e in itertools.product((0, 1), repeat=n):
            if e[0] != 1:
                continue
            for s in itertools.product((0, 1), repeat=n):
                p = 1.0
                for i in range(n):
                    r, sat = rels[keys[i]], sats[keys[i]]
                    if e[i]:
                        p *= r if clicks[i] else 1.0 - r
                    elif clicks[i]:
                        p = 0.0
                    if clicks[i]:
                        p *= sat if s[i] else 1.0 - sat
                    elif s[i]:
                        p = 0.0
                    if i + 1 < n:
                        if e[i] and not s[i]:
                            p *= gamma if e[i + 1] else 1.0 - gamma
                        elif e[i + 1]:
                            p = 0.0
                if p > 0.0:
                    chains.append((p, e, s))
        total = sum(p for p, _, _ in chains)
        for p, e, s in chains:
            w = p / total
            for i in range(n):
                add("rel", keys[i], w * clicks[i], w * e[i])
                add("sat", keys[i], w * s[i], w * clicks[i])
                if i + 1 < n and e[i] and not s[i]:
                    cont[0] += w * e[i + 1]
                    cont[1] += w
    step = {
        table: {k: succ[table][k] / d for k, d in trials[table].items() if d > 0.0}
        for table in succ
    }
    return step["rel"], step["sat"], cont[0] / cont[1]


def empirical_ctr(batch):
    """Raw click-through rate per (query, doc) pair of a SessionBatch:
    clicks over impressions, counted with np.bincount over the pair codes.
    It is the raw-CTR ranking baseline of acceptance criterion 5."""
    shown = batch.pair[batch.valid]
    impressions = np.bincount(shown, minlength=len(batch.keys))
    clicks = np.bincount(shown, weights=batch.clicks[batch.valid], minlength=len(batch.keys))
    return {key: c / n for key, c, n in zip(batch.keys, clicks.tolist(), impressions.tolist())
            if n}


def longest_query_substring_in_url(query, url):
    """All substrings of the query, checked for containment in the url."""
    q = query.lower()
    u = url.lower()
    best = 0
    for i in range(len(q)):
        for j in range(i + 1, len(q) + 1):
            if q[i:j] in u:
                best = max(best, j - i)
    return best


def normalize_query(raw):
    """Query normalization one character at a time: lowercase, ASCII
    punctuation but the dot dropped, a dot kept only with an alphanumeric
    on both sides of it, whitespace collapsed."""
    drop = set(string.punctuation) - {"."}
    lowered = raw.lower()
    out = []
    for i, ch in enumerate(lowered):
        if ch in drop:
            continue
        if ch == ".":
            prev_ok = i > 0 and lowered[i - 1].isalnum()
            next_ok = i + 1 < len(lowered) and lowered[i + 1].isalnum()
            if not (prev_ok and next_ok):
                continue
        out.append(ch)
    return " ".join("".join(out).split())


def dcg_at_k(grades, k, base=2.0):
    """Plain-loop DCG with an explicit log base."""
    total = 0.0
    for i, g in enumerate(grades[:k], start=1):
        total += (2.0 ** g - 1.0) / (math.log(1.0 + i) / math.log(base))
    return total


def pbm_unclicked_posteriors(gamma, r):
    """Bayes over the four (E, R) outcomes given no click."""
    joint = {}
    for e, rho in itertools.product((0, 1), repeat=2):
        pe = gamma if e else 1.0 - gamma
        pr = r if rho else 1.0 - r
        joint[(e, rho)] = pe * pr
    p_no_click = sum(p for (e, rho), p in joint.items() if e * rho == 0)
    p_exam = sum(p for (e, rho), p in joint.items() if e == 1 and e * rho == 0)
    p_rel = sum(p for (e, rho), p in joint.items() if rho == 1 and e * rho == 0)
    return p_exam / p_no_click, p_rel / p_no_click


def mean_ndcg_per_query(judged, score, k_list):
    """Mean NDCG@K by a loop over queries, for (query, doc, grade) triples.

    Each query's docs are ranked by descending score(query, doc), ties by
    ascending doc id, and compared with its grades sorted descending.
    Queries whose grades are all zero are skipped. Terms and queries are
    added one at a time, in rank order and in the order the triples first
    name each query, with math.log2 discounts, so the result is exact to
    the bit. Returns ({K: mean}, number of queries counted).
    """
    by_query = {}
    for query, doc, grade in judged:
        by_query.setdefault(query, []).append((doc, grade))

    def dcg(grades, k):
        total = 0.0
        for i, g in enumerate(grades[:k], start=1):
            total += (2.0 ** g - 1.0) / math.log2(i + 1.0)
        return total

    totals = dict.fromkeys(k_list, 0.0)
    counted = 0
    for query, docs in by_query.items():
        ideal = sorted((g for _, g in docs), reverse=True)
        if ideal[0] == 0:
            continue
        ranked = [g for _, g in sorted(docs, key=lambda dg: (-score(query, dg[0]), dg[0]))]
        counted += 1
        for k in k_list:
            totals[k] += dcg(ranked, k) / dcg(ideal, k)
    if not counted:
        return {k: float("nan") for k in k_list}, 0
    return {k: totals[k] / counted for k in k_list}, counted


def primal_softmax_descent(x, onehot, learning_rate, max_iters, l2, tol):
    """Full-batch gradient descent on multinomial logistic regression,
    iterating on the weights themselves from zero: (w, b, iterations).

    x is the standardized (n, d) feature matrix and onehot the (n, k)
    labels; the step test is LR * max(max|grad_w|, max|grad_b|) < tol.
    """
    n, d = x.shape
    k = onehot.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        scores = x @ w.T + b
        scores = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        err = e / e.sum(axis=1, keepdims=True) - onehot
        grad_w = err.T @ x / n + l2 * w
        grad_b = err.mean(axis=0)
        w -= learning_rate * grad_w
        b -= learning_rate * grad_b
        step = max(float(np.max(np.abs(grad_w))), float(np.max(np.abs(grad_b))))
        if learning_rate * step < tol:
            break
    return w, b, iterations
