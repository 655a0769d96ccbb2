"""Traced replay of a workload's stages in one process.

Usage: python perfbench/trace_stages.py PLAN.json

run.py writes the plan: the set-up and pipeline steps (see workloads.py),
the directory to write into and a time budget. This script imports
intentclick from the checkout's ``src``, wraps the public functions each
stage calls in span recorders, and then replays set-up, pipeline and one
``em_fit(max_iters=1)`` probe per fit, repeating until the budget is used.
Every stage goes through ``intentclick.cli.run(argv)``.

A span has an id, name, start, end, parent span id and run id (the replay
number). Spans stay in memory and are written once, to ``spans.jsonl``,
when the replays end; ``replay.json`` holds each stage's exit code and
output hashes. Nothing under ``src`` is changed: the wrappers replace
module attributes in this process only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import workloads as wl


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.origin = time.perf_counter()

    def _record(self, name, start, end, parent, counts=None) -> int:
        span_id = len(self.spans)
        span = {"id": span_id, "name": name, "start": start - self.origin,
                "end": end - self.origin, "parent": parent, "run": self.run_id}
        if counts:
            span["counts"] = counts
        self.spans.append(span)
        return span_id

    def call(self, name, fn, *args, counts=None, **kwargs):
        """Run fn inside a span; counts(result) adds counters to the span."""
        parent = self.stack[-1] if self.stack else None
        # Reserve the id now so children can name this span as parent.
        span_id = self._record(name, 0.0, 0.0, parent)
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            span = self.spans[span_id]
            span["start"], span["end"] = start - self.origin, end - self.origin
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, counts=counts, **kwargs)

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str, name: str) -> None:
        """Span a generator from its first pull until it is exhausted."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None

            def pulls():
                start = time.perf_counter()
                n = 0
                try:
                    for item in inner:
                        n += 1
                        yield item
                finally:
                    self._record(name, start, time.perf_counter(), parent, {"items": n})

            return pulls()

        setattr(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every layer function under the name its caller looks it up by."""
    from intentclick import cli, evaluate

    # cli.py imports these names into its own module globals.
    for attr, layer in [
        ("read_sessions", "sessions"), ("write_sessions", "sessions"),
        ("read_judgments", "sessions"), ("write_judgments", "sessions"),
        ("read_intent_labels", "sessions"), ("write_intent_labels", "sessions"),
        ("attach_intents", "sessions"), ("group_by_query", "sessions"),
        ("generate_ground_truth", "simulate"),
        ("extract_features", "intent"), ("clicked_url_counts", "intent"),
        ("train_classifier", "intent"), ("classify", "intent"),
        ("save_classifier", "intent"),
        ("em_fit", "inference"), ("alternating_fit", "inference"),
        ("save_params", "models"), ("load_params", "models"),
        ("evaluate_model", "evaluate"), ("save_report", "evaluate"),
        ("load_report", "evaluate"), ("compare_models", "evaluate"),
    ]:
        tracer.wrap(cli, attr, f"{layer}.{attr}")
    tracer.wrap(cli, "simulate_sessions", "simulate.simulate_sessions",
                counts=lambda sessions: {"sessions": len(sessions)})
    tracer.wrap(cli, "sessionize", "sessions.sessionize",
                counts=lambda r: {"sessions": len(r.sessions),
                                  "retained_clicks": r.retained_clicks,
                                  "dropped_clicks": r.dropped_clicks})
    tracer.wrap_generator(cli, "read_aol_log", "sessions.read_aol_log")
    # evaluate_model calls these through the evaluate module's globals.
    for attr in ("perplexity_report", "ndcg_for_scores", "mixture_relevance_scorer"):
        tracer.wrap(evaluate, attr, f"evaluate.{attr}")
    return cli


def probe(fit: dict):
    """Fitter build plus one EM iteration, as the fit stage would start."""
    from intentclick.inference import REL_SIDE, EmConfig, em_fit
    from intentclick.sessions import attach_intents, read_intent_labels, read_sessions

    sessions = read_sessions(fit["sessions"])
    if fit["intents"]:
        sessions = attach_intents(sessions, read_intent_labels(fit["intents"]))
    # The alternating fit starts with a relevance-side step.
    families = frozenset((REL_SIDE,)) if fit["alternating"] else None
    return lambda: em_fit(fit["model"], sessions, EmConfig(max_iters=1),
                          intent_aware=fit["intent_aware"], families=families)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer = Tracer()
    cli = install(tracer)
    replays = []
    started = time.perf_counter()
    while not replays or time.perf_counter() - started < plan["seconds"]:
        tracer.run_id = len(replays)
        codes, hashes = {}, {}
        for step in plan["setup"] + plan["pipeline"]:
            if "bench" in step:
                tracer.call(f"bench.{step['label']}", wl.run_bench_step, step)
                continue
            codes[step["label"]] = tracer.call(f"cli.{step['label']}", cli.run, step["cli"])
            hashes[step["label"]] = {
                Path(p).name: sha256(p) for p in step["outputs"] if Path(p).exists()
            }
        for step in plan["pipeline"]:
            if "fit" in step:
                fit = probe(step["fit"])
                tracer.call(f"probe.{step['fit']['name']}", fit)
        replays.append({"codes": codes, "hashes": hashes})
    out = Path(plan["out_dir"])
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    (out / "replay.json").write_text(json.dumps({"replays": replays}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
