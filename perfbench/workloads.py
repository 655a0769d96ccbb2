"""Workload definitions for the intentclick benchmark.

A workload is a list of set-up steps, which make its inputs from a seed,
and a list of pipeline steps, which are the measured CLI stages. A step is
a plain dict so the traced replay (trace_stages.py) can receive it as JSON:

- ``{"label", "cli": argv, "outputs": [...]}`` runs one
  ``python -m intentclick.cli`` subcommand; ``outputs`` are the files it
  writes, hashed and checked after every run.
- ``{"label", "bench": name, "args": {...}}`` is harness work done by
  this file (hold-out split, AOL log writing, labelling held-out sessions).
  It is not a program stage and is not counted in ``pipeline_s``.

Fit steps also carry a ``fit`` dict that describes the fit, so the traced
run can repeat it as an ``em_fit(max_iters=1)`` probe.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("sim-head-pbm", "sim-tail-dbn", "aol-ingest-ubm")

HOLDOUT_EVERY = 5

# (queries, sessions per query) per workload and scale. "full" is the
# benchmark; "tiny" is the smoke run (smoke.py).
SIZES = {
    "full": {
        "sim-head-pbm": (100, 100),
        "sim-tail-dbn": (2000, 10),
        "aol-ingest-ubm": (400, 20),
    },
    "tiny": {
        "sim-head-pbm": (10, 100),
        "sim-tail-dbn": (60, 10),
        "aol-ingest-ubm": (40, 10),
    },
}

# Simulated SERP depth of the AOL workload; ingest keeps 10 positions, so
# clicks at ranks 11-12 are dropped and counted.
AOL_POSITIONS = 12
AOL_INTENT_MIX = "0.5,0.3,0.2"
AOL_TRANSACTIONAL_CUES = ("download", "mp3", "tickets", "pdf", "video", "hotel")
_SYLLABLES = (
    "ka", "lo", "mi", "ne", "su", "ra", "to", "vi", "de", "po",
    "za", "fe", "gu", "ha", "ji", "qu", "we", "bo", "ce", "ny",
)


def _sim(label, out_dir, seed, extra):
    out_dir = Path(out_dir)
    return {
        "label": label,
        "cli": ["simulate", "--out-dir", str(out_dir), "--seed", str(seed), *extra],
        "outputs": [str(out_dir / n) for n in ("sessions.jsonl", "truth_params.json", "judgments.tsv")]
        + ([str(out_dir / "intents.tsv")] if "--intents-per-query" in extra else []),
    }


def _fit(label, model, sessions, out, intent_aware=False, alternating=False, intents=None):
    argv = ["fit", "--model", model, "--sessions", str(sessions), "--out", str(out)]
    if intent_aware:
        argv.append("--intent-aware")
    if alternating:
        argv.append("--alternating")
    if intents:
        argv += ["--intents", str(intents)]
    return {
        "label": f"fit.{label}",
        "cli": argv,
        "outputs": [str(out), f"{out}.report.json"],
        "fit": {
            "name": label,
            "model": model,
            "sessions": str(sessions),
            "intent_aware": intent_aware or alternating,
            "alternating": alternating,
            "intents": str(intents) if intents else None,
        },
    }


def _eval(label, params, sessions, judgments, out):
    return {
        "label": f"eval.{label}",
        "cli": ["eval", "--params", str(params), "--sessions", str(sessions),
                "--judgments", str(judgments), "--out", str(out), "--label", label],
        "outputs": [str(out)],
    }


def setup_steps(workload: str, scale: str, seed: int, data_dir) -> list[dict]:
    """Steps that make the workload's inputs in data_dir."""
    d = Path(data_dir)
    queries, per_query = SIZES[scale][workload]
    size = ["--queries", str(queries), "--sessions-per-query", str(per_query)]
    if workload == "sim-head-pbm":
        sim = _sim("simulate", d / "sim", seed,
                   ["--model", "pbm", "--intent-aware", "--intent-mix", "0.5,0.5,0",
                    "--shuffle-serps", *size])
        return [sim, _split_step(d / "sim" / "sessions.jsonl", d)]
    if workload == "sim-tail-dbn":
        sim = _sim("simulate", d / "sim", seed, ["--model", "dbn", "--shuffle-serps", *size])
        return [sim, _split_step(d / "sim" / "sessions.jsonl", d)]
    if workload == "aol-ingest-ubm":
        sim = _sim("simulate", d / "sim", seed,
                   ["--model", "ubm", "--intent-aware", "--intents-per-query",
                    "--intent-mix", AOL_INTENT_MIX, "--shuffle-serps",
                    "--positions", str(AOL_POSITIONS), *size])
        write = {"label": "write_aol", "bench": "write_aol_log",
                 "args": {"sim_dir": str(d / "sim"), "out_dir": str(d), "seed": seed}}
        return [sim, write]
    raise ValueError(f"unknown workload {workload!r}")


def _split_step(sessions, out_dir):
    out_dir = Path(out_dir)
    return {"label": "split", "bench": "split_holdout",
            "args": {"sessions": str(sessions), "train": str(out_dir / "train.jsonl"),
                     "test": str(out_dir / "test.jsonl")}}


def pipeline_steps(workload: str, data_dir, out_dir) -> list[dict]:
    """The measured stages, reading inputs from data_dir, writing to out_dir."""
    d, o = Path(data_dir), Path(out_dir)
    judgments = d / "sim" / "judgments.tsv"
    if workload == "sim-head-pbm":
        return [
            _fit("pbm", "pbm", d / "train.jsonl", o / "pbm.json"),
            _fit("pbm_ia", "pbm", d / "train.jsonl", o / "pbm_ia.json", intent_aware=True),
            _eval("pbm", o / "pbm.json", d / "test.jsonl", judgments, o / "eval_pbm.json"),
            _eval("pbm_ia", o / "pbm_ia.json", d / "test.jsonl", judgments, o / "eval_pbm_ia.json"),
            {"label": "compare",
             "cli": ["compare", "--base", str(o / "eval_pbm.json"),
                     "--treat", str(o / "eval_pbm_ia.json"), "--out", str(o / "compare.txt")],
             "outputs": [str(o / "compare.txt"), str(o / "compare.txt.json")]},
        ]
    if workload == "sim-tail-dbn":
        return [
            _fit("dbn", "dbn", d / "train.jsonl", o / "dbn.json"),
            _eval("dbn", o / "dbn.json", d / "test.jsonl", judgments, o / "eval_dbn.json"),
        ]
    if workload == "aol-ingest-ubm":
        return [
            {"label": "ingest",
             "cli": ["ingest", "--aol", str(d / "log.tsv"), "--out", str(o / "sessions.jsonl")],
             "outputs": [str(o / "sessions.jsonl")]},
            _split_step(o / "sessions.jsonl", o),
            {"label": "classify",
             "cli": ["classify", "--sessions", str(o / "train.jsonl"),
                     "--train-labels", str(d / "seed_labels.tsv"),
                     "--out", str(o / "labels.tsv")],
             "outputs": [str(o / "labels.tsv")]},
            {"label": "label_test", "bench": "label_sessions",
             "args": {"sessions": str(o / "test.jsonl"), "labels": str(o / "labels.tsv"),
                      "out": str(o / "test_labeled.jsonl")}},
            _fit("ubm_alt", "ubm", o / "train.jsonl", o / "ubm_alt.json",
                 alternating=True, intents=o / "labels.tsv"),
            _eval("ubm_alt", o / "ubm_alt.json", o / "test_labeled.jsonl",
                  d / "judgments.tsv", o / "eval_ubm_alt.json"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# Fit whose perplexity, NDCG and relevance error are the workload's headline.
MAIN_FIT = {"sim-head-pbm": "pbm_ia", "sim-tail-dbn": "dbn", "aol-ingest-ubm": "ubm_alt"}


# ---------------------------------------------------------------------------
# Harness steps. They use only the standard library and touch no program code.
# ---------------------------------------------------------------------------

def split_holdout(sessions, train, test):
    """Every HOLDOUT_EVERY-th session line goes to test, the rest to train."""
    with open(sessions, encoding="utf-8") as src, \
            open(train, "w", encoding="utf-8") as tr, \
            open(test, "w", encoding="utf-8") as te:
        for i, line in enumerate(src):
            (te if i % HOLDOUT_EVERY == HOLDOUT_EVERY - 1 else tr).write(line)


def label_sessions(sessions, labels, out):
    """Copy sessions, setting each one's intent from a query label file."""
    table = {}
    with open(labels, encoding="utf-8") as fh:
        for line in fh:
            query, label = line.rstrip("\n").split("\t")
            table[query] = label
    with open(sessions, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            record["intent"] = table.get(record["query_id"], "unk")
            dst.write(json.dumps(record, sort_keys=True) + "\n")


def _word(rng: random.Random, used: set) -> str:
    while True:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if w not in used:
            used.add(w)
            return w


def write_aol_log(sim_dir, out_dir, seed):
    """Turn simulated sessions into an AOL-format log plus its sidecars.

    Query text depends on the query's intent: navigational queries are one
    site name whose URLs carry it, transactional queries carry a cue word,
    informational queries are several words. Each session is one user
    visit, an hour after the same user's previous one, so the sessioniser
    recovers the simulated sessions. Writes log.tsv, judgments.tsv (mapped
    to query text and URL), seed_labels.tsv (true intents of every other
    query), and mapping.json (simulator ids to text and URLs).
    """
    sim_dir, out_dir = Path(sim_dir), Path(out_dir)
    rng = random.Random(seed)
    intents = {}
    with open(sim_dir / "intents.tsv", encoding="utf-8") as fh:
        for line in fh:
            query, label = line.rstrip("\n").split("\t")
            intents[query] = label
    used: set = set()
    query_text, urls = {}, {}
    for query in sorted(intents):
        site = _word(rng, used)
        label = intents[query]
        if label == "nav":
            query_text[query] = site
        elif label == "tra":
            query_text[query] = f"{site} {_word(rng, used)} {rng.choice(AOL_TRANSACTIONAL_CUES)}"
        else:
            query_text[query] = " ".join([site] + [_word(rng, used) for _ in range(rng.randint(2, 3))])
        for j in range(1, AOL_POSITIONS + 1):
            doc = f"{query}_d{j:02d}"
            if label == "nav":
                urls[doc] = f"http://www.{site}.com" + ("" if j == 1 else f"/p{j}")
            else:
                urls[doc] = f"http://www.{_word(rng, used)}.com"

    with open(sim_dir / "sessions.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    users = max(1, len(records) // 3)
    with open(out_dir / "log.tsv", "w", encoding="utf-8") as out:
        out.write("AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n")
        for i, rec in enumerate(records):
            user = 100000 + i % users
            hour = i // users
            text = query_text[rec["query_id"]]
            clicked = [(rank, doc) for rank, (doc, c) in
                       enumerate(zip(rec["docs"], rec["clicks"]), start=1) if c]
            if not clicked:
                out.write(f"{user}\t{text}\t2006-03-01 {hour:02d}:00:00\t\t\n")
            for k, (rank, doc) in enumerate(clicked):
                out.write(f"{user}\t{text}\t2006-03-01 {hour:02d}:{k:02d}:00\t{rank}\t{urls[doc]}\n")

    with open(sim_dir / "judgments.tsv", encoding="utf-8") as src, \
            open(out_dir / "judgments.tsv", "w", encoding="utf-8") as dst:
        for line in src:
            query, doc, grade = line.rstrip("\n").split("\t")
            dst.write(f"{query_text[query]}\t{urls[doc]}\t{grade}\n")
    with open(out_dir / "seed_labels.tsv", "w", encoding="utf-8") as fh:
        for k, query in enumerate(sorted(intents)):
            if k % 2 == 0:
                fh.write(f"{query_text[query]}\t{intents[query]}\n")
    with open(out_dir / "mapping.json", "w", encoding="utf-8") as fh:
        json.dump({"query_text": query_text, "urls": urls, "intents": intents}, fh, sort_keys=True)


BENCH_STEPS = {
    "split_holdout": split_holdout,
    "label_sessions": label_sessions,
    "write_aol_log": write_aol_log,
}


def run_bench_step(step: dict) -> None:
    BENCH_STEPS[step["bench"]](**step["args"])
