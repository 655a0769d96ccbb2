#!/usr/bin/env python3
"""intentclick benchmark: CLI pipelines end to end, and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-head-pbm --seed 1 --seconds 30 --trace 0

Each stage runs as its own ``python -m intentclick.cli`` subprocess with
``src`` on PYTHONPATH and one BLAS/OpenMP thread. With ``--trace 0`` the
benchmark repeats the pipeline until ``--seconds`` have passed (at least
five times), making the inputs afresh before every second repeat and
timing a fixed reference task (REFERENCE_CODE) before every repeat.
``pipeline_s``, ``fit_s`` and ``eval_s`` sum each stage's median time and
``setup_s`` is the median set-up time, all scaled by REFERENCE_NOMINAL_S
over the median reference time. Unscaled times are printed as extras. With
``--trace 1`` it runs the pipeline for half the time and then replays
set-up and pipeline in one traced process (trace_stages.py) for the other
half; the spans give the per-layer metrics, unscaled. Every run checks
exit codes, parses every output, checks EM traces and perplexities, and
compares output hashes across repeats. The last line of stdout is one
JSON object; the full record, with run metadata, goes to
``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent

MIN_REPEATS = 5
SETUP_EVERY = 2
STAGE_TIMEOUT_S = 120
# No new repeat starts after this much wall time, so a slow machine still
# finishes well inside the 180 s a run may take.
RUN_BUDGET_S = 120
LOGLIK_SLACK = 1e-9
# A fixed task in a fresh interpreter, run before every repeat: start-up,
# imports, dict churn, JSON parsing and numpy work, the mix the CLI stages
# do. It touches no program code, so it measures only the host's speed.
REFERENCE_CODE = """
import json
import numpy as np
d = {}
for i in range(150000):
    d.setdefault((i % 997, i), len(d))
doc = json.dumps([{"docs": ["q%d_d%02d" % (i, j) for j in range(10)], "clicks": [0] * 10}
                  for i in range(3000)])
json.loads(doc)
a = np.random.default_rng(0).random(100000)
for _ in range(30):
    np.log(np.clip(a, 1e-12, 1.0)).sum()
"""
# A typical median of the reference task on the 2-vCPU host of the first
# baseline. Times are scaled to a host whose reference takes this long.
REFERENCE_NOMINAL_S = 0.3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "fit_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "perplexity": "1", "ndcg10": "1", "rel_rmse": "1",
}


def median(values):
    return statistics.median(values) if values else float("nan")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _check_eval(doc) -> list[str]:
    values = [doc["overall"], *doc["per_position"]]
    if not all(math.isfinite(v) and 1.0 <= v <= 2.0 for v in values):
        return [f"perplexity outside [1, 2]: overall {doc['overall']}"]
    if not all(math.isfinite(v) for v in doc["ndcg"].values()):
        return ["non-finite NDCG"]
    return []


def _check_fit_report(doc) -> list[str]:
    trace = doc["loglik_trace"]
    if not trace or not all(math.isfinite(x) for x in trace):
        return ["empty or non-finite loglik_trace"]
    worst = min((b - a for a, b in zip(trace, trace[1:])), default=0.0)
    if worst < -LOGLIK_SLACK:
        return [f"loglik_trace decreased by {-worst:.3e}"]
    if doc["iterations"] != len(trace):
        return ["iterations differ from trace length"]
    return []


def check_output(path: Path) -> list[str]:
    """Parse one output file and apply the checks its kind has."""
    if not path.exists():
        return [f"{path.name}: missing"]
    try:
        if path.suffix == ".jsonl":
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    json.loads(line)
            return []
        if path.suffix == ".tsv":
            with open(path, encoding="utf-8") as fh:
                widths = {len(line.rstrip("\n").split("\t")) for line in fh}
            return [] if len(widths) == 1 and min(widths) >= 2 else [f"{path.name}: ragged TSV"]
        if path.suffix == ".txt":
            return [] if path.stat().st_size > 0 else [f"{path.name}: empty"]
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{path.name}: does not parse: {exc}"]
    if path.name.endswith(".report.json"):
        errors = _check_fit_report(doc)
    elif path.name.startswith("eval_"):
        errors = _check_eval(doc)
    else:
        errors = []
    return [f"{path.name}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# Running steps
# ---------------------------------------------------------------------------

def spawn(args: list[str], env: dict, log) -> tuple[int, float, object]:
    """Run the interpreter with args; return exit code, wall time, rusage.

    os.wait4 blocks until the child ends, so the wall time has no polling
    granularity; a timer kills a child that overruns STAGE_TIMEOUT_S.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=log, stderr=log, env=env, cwd=ROOT)
    killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class StepRunner:
    """Runs workload steps and keeps every result and output hash."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.env = child_env()
        self.hashes: dict[tuple[str, str], set] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, step: dict) -> dict:
        if "bench" in step:
            start = time.perf_counter()
            wl.run_bench_step(step)
            return {"label": step["label"], "wall_s": time.perf_counter() - start, "code": 0}
        self.attempted += 1
        with open(self.log_path, "ab") as log:
            code, wall, usage = spawn(["-m", "intentclick.cli", *step["cli"]], self.env, log)
        result = {"label": step["label"], "code": code, "wall_s": wall,
                  "rss_mb": usage.ru_maxrss / 1024.0}
        errors = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            manifest = Path(step["outputs"][0] + ".manifest.json")
            try:
                duration = json.loads(manifest.read_text())["duration_seconds"]
                result["startup_s"] = wall - duration
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"manifest: {exc}")
            for out in map(Path, step["outputs"]):
                errs = check_output(out)
                errors += errs
                if not errs:
                    self.record_hash(step["label"], out.name, sha256(out))
        if errors:
            self.failed += 1
            self.failures += [f"{step['label']}: {e}" for e in errors]
        result["errors"] = errors
        return result

    def record_hash(self, label: str, name: str, digest: str) -> None:
        seen = self.hashes.setdefault((label, name), set())
        seen.add(digest)
        if len(seen) == 2:  # count each non-deterministic output once
            self.failed += 1
            self.failures.append(f"{label}/{name}: output differs between repeats")


def run_reference(runner: StepRunner) -> float:
    with open(runner.log_path, "ab") as log:
        code, wall, _ = spawn(["-c", REFERENCE_CODE], runner.env, log)
    if code != 0:
        raise RuntimeError(f"reference task exited with {code}")
    return wall


def run_steps(runner: StepRunner, steps: list[dict]) -> list[dict]:
    """Run steps in order; a failed stage does not stop the ones after it."""
    results = []
    for step in steps:
        try:
            results.append(runner.run(step))
        except (OSError, ValueError, KeyError) as exc:
            # A harness step whose input a failed stage did not write.
            runner.failed += 1
            runner.failures.append(f"{step['label']}: {exc}")
            results.append({"label": step["label"], "code": -1, "wall_s": 0.0, "errors": [str(exc)]})
    return results


def stage_kind(label: str) -> str:
    return label.split(".", 1)[0]


def stage_totals(pipelines: list[list[dict]], reduce) -> tuple[dict, dict]:
    """Reduce each stage's wall times over the repeats, then sum by kind."""
    walls: dict[str, list[float]] = {}
    for results in pipelines:
        for r in results:
            if "rss_mb" in r:
                walls.setdefault(r["label"], []).append(r["wall_s"])
    per_stage = {label: reduce(v) for label, v in walls.items()}
    totals = {"pipeline_s": sum(per_stage.values())}
    for kind in ("fit", "eval"):
        totals[f"{kind}_s"] = sum(v for label, v in per_stage.items() if stage_kind(label) == kind)
    return totals, per_stage


# ---------------------------------------------------------------------------
# Quality of the fitted models, read from the output files
# ---------------------------------------------------------------------------

def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_tsv(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def base_table(doc: dict, intent: str | None) -> dict:
    """The base parameter table a session with this intent resolves to."""
    if not doc["intent_aware"]:
        return doc["params"]
    return doc["per_intent"].get(intent) or doc["fallback"]


def relevance_estimate(kind: str, table: dict, key: str) -> float:
    """Ranking relevance as the library defines it, 0.5 for unseen pairs."""
    r = table["rel"].get(key, 0.5)
    return r * table["sat"].get(key, 0.5) if kind == "dbn" else r


def rmse(pairs) -> float:
    pairs = list(pairs)
    return math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs))


def rel_rmse(workload: str, data: Path, out: Path) -> float:
    """RMSE of fitted against true relevance over the judged pairs."""
    truth = load_json(data / "sim" / "truth_params.json")
    fitted = load_json(out / f"{wl.MAIN_FIT[workload]}.json")
    kind = truth["kind"]
    judged = [(q, d) for q, d, _ in read_tsv(data / "sim" / "judgments.tsv")]
    if workload == "aol-ingest-ubm":
        mapping = load_json(data / "mapping.json")
        labels = dict(read_tsv(out / "labels.tsv"))
        pairs = []
        for q, d in judged:
            text, url = mapping["query_text"][q], mapping["urls"][d]
            true_table = base_table(truth, mapping["intents"][q])
            fit_table = base_table(fitted, labels.get(text, "unk"))
            pairs.append((relevance_estimate(kind, fit_table, f"{text}\t{url}"),
                          relevance_estimate(kind, true_table, f"{q}\t{d}")))
        return rmse(pairs)
    # The head workload samples informational and navigational sessions.
    intents = ("inf", "nav") if fitted["intent_aware"] else (None,)
    return rmse(
        (relevance_estimate(kind, base_table(fitted, t), f"{q}\t{d}"),
         relevance_estimate(kind, base_table(truth, t), f"{q}\t{d}"))
        for t in intents for q, d in judged
    )


def unseen_pair_frac(workload: str, out: Path, test_sessions: Path) -> float:
    """Share of held-out events whose pair the fitted table lacks."""
    fitted = load_json(out / f"{wl.MAIN_FIT[workload]}.json")
    unseen = events = 0
    with open(test_sessions, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            rel = base_table(fitted, s["intent"])["rel"]
            for doc in s["docs"]:
                events += 1
                unseen += f"{s['query_id']}\t{doc}" not in rel
    return unseen / events if events else float("nan")


def intent_accuracy(data: Path, out: Path) -> float:
    """Classifier accuracy on the queries whose seed labels were withheld."""
    mapping = load_json(data / "mapping.json")
    seeded = {q for q, _ in read_tsv(data / "seed_labels.tsv")}
    labels = dict(read_tsv(out / "labels.tsv"))
    held = [(text, mapping["intents"][q]) for q, text in mapping["query_text"].items()
            if text not in seeded]
    return sum(labels.get(text) == true for text, true in held) / len(held)


def quality(workload: str, data: Path, out: Path) -> dict:
    main = wl.MAIN_FIT[workload]
    report = load_json(out / f"eval_{main}.json")
    fits = {p.name.split(".")[0]: load_json(p) for p in sorted(out.glob("*.json.report.json"))}
    q = {
        "perplexity": report["overall"],
        "ndcg10": report["ndcg"]["10"],
        "rel_rmse": rel_rmse(workload, data, out),
        "converged_frac": sum(f["converged"] for f in fits.values()) / len(fits),
    }
    q.update({f"inference.{name}.iters": f["iterations"] for name, f in fits.items()})
    if workload == "sim-head-pbm":
        cmp = load_json(out / "compare.txt.json")
        base = load_json(out / "eval_pbm.json")["overall"]
        expected = (base - report["overall"]) / (base - 1.0) * 100.0
        if abs(cmp["overall_improvement"] - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError("compare overall_improvement disagrees with the eval reports")
        q["ia_gain_pct"] = cmp["overall_improvement"]
    if workload == "aol-ingest-ubm":
        q["intent_accuracy"] = intent_accuracy(data, out)
    return q


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_SPANS = {
    "sessions.read_s": ("sessions.read_sessions",),
    "sessions.write_s": ("sessions.write_sessions",),
    "sessions.parse_s": ("sessions.read_aol_log",),
    "sessions.sessionize_s": ("sessions.sessionize",),
    "simulate.truth_s": ("simulate.generate_ground_truth",),
    "simulate.sample_s": ("simulate.simulate_sessions",),
    "intent.features_s": ("intent.extract_features", "intent.clicked_url_counts"),
    "intent.train_s": ("intent.train_classifier",),
    "intent.classify_s": ("intent.classify",),
    "models.save_s": ("models.save_params",),
    "models.load_s": ("models.load_params",),
    "evaluate.perplexity_s": ("evaluate.perplexity_report",),
    "evaluate.ndcg_s": ("evaluate.ndcg_for_scores", "evaluate.mixture_relevance_scorer"),
}
UNIVERSAL_STAGES = ("simulate", "fit", "eval")



# Workload-independent per-layer metrics: every workload reports each of
# them, so these are the ones BENCHMARK.json lists. Stage- and fit-level
# detail (cli.<stage>.*, inference.<fit>.*, intent.*, sessions.parse_s,
# ...) goes to result.json and stdout.
PER_LAYER_UNITS = {
    "sessions.read_s": "s", "sessions.write_s": "s", "sessions.sessions": "count",
    "sessions.events": "count", "sessions.log_mb": "MB",
    "simulate.truth_s": "s", "simulate.sample_s": "s", "simulate.sessions_per_s": "1/s",
    "inference.fit_s": "s", "inference.first_iter_s": "s", "inference.iter_ms": "ms",
    "inference.iters": "count", "inference.converged_frac": "1",
    "inference.final_delta": "1", "inference.loglik": "nat",
    "models.save_s": "s", "models.load_s": "s", "models.params_mb": "MB", "models.pairs": "count",
    "evaluate.perplexity_s": "s", "evaluate.ndcg_s": "s", "evaluate.ndcg_queries": "count",
    "evaluate.unseen_pair_frac": "1",
    **{f"cli.{kind}.{part}": "s" for kind in UNIVERSAL_STAGES
       for part in ("wall_s", "startup_s", "self_s")},
    "trace.overhead_s": "s",
}


def replay_metrics(spans: list[dict]) -> dict:
    """Layer timings of one traced replay; stage.<label>.* are per stage."""
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[int, float] = {}
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + dur[s["id"]]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]
    m = {name: sum(totals.get(n, 0.0) for n in names)
         for name, names in LAYER_SPANS.items() if any(n in totals for n in names)}
    counts = {}
    for s in spans:
        for key, value in s.get("counts", {}).items():
            counts[f"{s['name']}.{key}"] = counts.get(f"{s['name']}.{key}", 0) + value
    m["simulate.sessions_per_s"] = counts["simulate.simulate_sessions.sessions"] / m["simulate.sample_s"]
    if "sessions.sessionize.dropped_clicks" in counts:
        m["sessions.dropped_clicks"] = counts["sessions.sessionize.dropped_clicks"]
    for s in spans:
        name = s["name"]
        if name.startswith("cli."):
            m[f"stage.{name[4:]}.traced_s"] = dur[s["id"]]
            m[f"stage.{name[4:]}.self_s"] = dur[s["id"]] - child_time.get(s["id"], 0.0)
        elif name.startswith("inference.") and s["parent"] is not None:
            fit = by_id[s["parent"]]["name"].rsplit(".", 1)[-1]
            m[f"inference.{fit}.fit_s"] = dur[s["id"]]
        elif name.startswith("probe."):
            m[f"inference.{name[6:]}.first_iter_s"] = dur[s["id"]]
    return m


def _arg(step: dict, flag: str) -> str:
    return step["cli"][step["cli"].index(flag) + 1]


def traced_layer_metrics(workload: str, spans: list[dict], plan: dict,
                         untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over replays) and a stage accounting table."""
    per_run = [replay_metrics([s for s in spans if s["run"] == r])
               for r in sorted({s["run"] for s in spans})]
    m = {k: median([p[k] for p in per_run if k in p]) for k in per_run[0]}

    cli_steps = [s for s in plan["setup"] + plan["pipeline"] if "cli" in s]
    table = [f"{'stage':<16}{'wall':>9}{'startup':>9}{'run':>9}{'traced':>9}{'layers':>9}{'self':>9}"]
    pipeline_traced = pipeline_startup = 0.0
    for step in cli_steps:
        label = step["label"]
        rows = [r for r in untraced if r["label"] == label and "startup_s" in r]
        wall, startup = median([r["wall_s"] for r in rows]), median([r["startup_s"] for r in rows])
        traced, own = m.pop(f"stage.{label}.traced_s"), m.pop(f"stage.{label}.self_s")
        m.update({f"cli.{label}.wall_s": wall, f"cli.{label}.startup_s": startup,
                  f"cli.{label}.self_s": own})
        if step in plan["pipeline"]:
            pipeline_traced += traced
            pipeline_startup += startup
        table.append(f"{label:<16}{wall:9.3f}{startup:9.3f}{wall - startup:9.3f}"
                     f"{traced:9.3f}{traced - own:9.3f}{own:9.3f}")
    for kind in UNIVERSAL_STAGES:
        labels = [s["label"] for s in cli_steps if stage_kind(s["label"]) == kind]
        for part in ("wall_s", "startup_s", "self_s"):
            m[f"cli.{kind}.{part}"] = sum(m[f"cli.{label}.{part}"] for label in labels)
    pipeline_wall = sum(m[f"cli.{s['label']}.wall_s"] for s in plan["pipeline"] if "cli" in s)
    m["trace.overhead_s"] = pipeline_traced - (pipeline_wall - pipeline_startup)

    fit_steps = [s for s in plan["pipeline"] if "fit" in s]
    for step in fit_steps:
        fit, p = step["fit"]["name"], f"inference.{step['fit']['name']}"
        rep = load_json(_arg(step, "--out") + ".report.json")
        m.update({f"{p}.iters": rep["iterations"], f"{p}.converged": float(rep["converged"]),
                  f"{p}.final_delta": rep["final_delta"], f"{p}.loglik": rep["loglik_trace"][-1]})
        m[f"{p}.iter_ms"] = 1000.0 * (m[f"{p}.fit_s"] - m[f"{p}.first_iter_s"]) / max(rep["iterations"] - 1, 1)
    fits = [s["fit"]["name"] for s in fit_steps]
    fit_s = sum(m[f"inference.{f}.fit_s"] for f in fits)
    first = sum(m[f"inference.{f}.first_iter_s"] for f in fits)
    iters = sum(m[f"inference.{f}.iters"] for f in fits)
    main = wl.MAIN_FIT[workload]
    m.update({
        "inference.fit_s": fit_s,
        "inference.first_iter_s": first,
        "inference.iters": iters,
        "inference.iter_ms": 1000.0 * (fit_s - first) / max(iters - len(fits), 1),
        "inference.converged_frac": sum(m[f"inference.{f}.converged"] for f in fits) / len(fits),
        "inference.final_delta": max(m[f"inference.{f}.final_delta"] for f in fits),
        "inference.loglik": m[f"inference.{main}.loglik"],
    })

    main_fit = next(s for s in fit_steps if s["fit"]["name"] == main)
    main_eval = next(s for s in plan["pipeline"] if s["label"] == f"eval.{main}")
    train = Path(main_fit["fit"]["sessions"])
    n_sessions = n_events = 0
    with open(train, encoding="utf-8") as fh:
        for line in fh:
            n_sessions += 1
            n_events += len(json.loads(line)["docs"])
    params_path = Path(_arg(main_fit, "--out"))
    params = load_json(params_path)
    tables = [params["params"]] if not params["intent_aware"] else [
        *params["per_intent"].values(), params["fallback"]]
    out_dir = params_path.parent
    m.update({
        "sessions.sessions": n_sessions,
        "sessions.events": n_events,
        "sessions.log_mb": train.stat().st_size / 1e6,
        "models.params_mb": params_path.stat().st_size / 1e6,
        "models.pairs": sum(len(t["rel"]) for t in tables),
        "evaluate.ndcg_queries": load_json(_arg(main_eval, "--out"))["ndcg_queries"],
        "evaluate.unseen_pair_frac": unseen_pair_frac(workload, out_dir, Path(_arg(main_eval, "--sessions"))),
    })
    return m, table


def run_traced(runner: StepRunner, args, work: Path, log: Path) -> tuple[dict, list[dict]]:
    """Replay set-up and pipeline in one traced process; return plan and spans."""
    trace_root = work / "trace"
    (trace_root / "pipe").mkdir(parents=True)
    plan = {
        "seconds": args.seconds / 2,
        "out_dir": str(work),
        "setup": wl.setup_steps(args.workload, args.scale, args.seed, trace_root / "data"),
        "pipeline": wl.pipeline_steps(args.workload, trace_root / "data", trace_root / "pipe"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    argv = [sys.executable, str(HERE / "trace_stages.py"), str(plan_path)]
    with open(log, "ab") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=fh, env=child_env(), cwd=ROOT)
        try:
            code = proc.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0:
        raise RuntimeError(f"traced replay exited with {code}; see {log}")
    replays = load_json(work / "replay.json")["replays"]
    for rep in replays:
        for label, code in rep["codes"].items():
            runner.attempted += 1
            if code != 0:
                runner.failed += 1
                runner.failures.append(f"traced {label}: exit code {code}")
        for label, files in rep["hashes"].items():
            for name, digest in files.items():
                runner.record_hash(label, name, digest)
    with open(work / "spans.jsonl", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    return plan, spans


# ---------------------------------------------------------------------------
# Run metadata and the main loop
# ---------------------------------------------------------------------------

def source_lines() -> int:
    return sum(
        sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
        for p in sorted((SRC / "intentclick").rglob("*.py"))
    )


def metadata(args) -> dict:
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except ImportError:
        numpy_version = "unknown"
    queries, per_query = wl.SIZES[args.scale][args.workload]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "seed": args.seed,
        "scale": args.scale,
        "queries": queries,
        "sessions_per_query": per_query,
        "source_lines": source_lines(),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def finite_or_none(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(wl.SIZES), default="full",
                   help="input size; 'tiny' is the smoke run")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "intentclick" / "cli.py").is_file():
        print(f"error: {SRC / 'intentclick'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = OUT_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "stages.log"
    runner = StepRunner(log)
    # One CPU for the benchmark and every stage, so the reference task and
    # the stages run on the same (possibly contended) core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    data, pipe = work / "setup", work / "pipe"
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    min_repeats = MIN_REPEATS if args.trace == 0 else 1
    setups, pipelines, refs = [], [], []
    t0 = time.perf_counter()
    # Every SETUP_EVERY-th repeat first makes the inputs afresh, so set-up
    # samples spread over the whole window as pipeline samples do.
    while len(pipelines) < min_repeats or time.perf_counter() - t0 < budget:
        if pipelines and time.perf_counter() - started > RUN_BUDGET_S:
            break
        refs.append(run_reference(runner))
        if len(pipelines) % SETUP_EVERY == 0:
            shutil.rmtree(data, ignore_errors=True)
            t = time.perf_counter()
            results = run_steps(runner, wl.setup_steps(args.workload, args.scale, args.seed, data))
            setups.append((time.perf_counter() - t, results))
        shutil.rmtree(pipe, ignore_errors=True)
        pipe.mkdir(parents=True)
        pipelines.append(run_steps(runner, wl.pipeline_steps(args.workload, data, pipe)))

    try:
        q = quality(args.workload, data, pipe)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        runner.failed += 1
        runner.failures.append(f"quality: {exc!r}")
        q = {}

    extras: dict = {}
    table: list[str] = []
    if args.trace == 0:
        # The host's throughput drifts by up to 50% in phases that can
        # outlast a run, so times are scaled by the reference task timed in
        # the same run: medians over the repeats, times REFERENCE_NOMINAL_S
        # over the median reference time.
        raw, per_stage = stage_totals(pipelines, median)
        scale = REFERENCE_NOMINAL_S / median(refs)
        metrics = {k: v * scale for k, v in raw.items()}
        setup_raw = median([s for s, _ in setups])
        metrics["setup_s"] = setup_raw * scale
        metrics["peak_rss_mb"] = max(r["rss_mb"] for p in pipelines for r in p if "rss_mb" in r)
        metrics.update({k: q.get(k, float("nan")) for k in ("perplexity", "ndcg10", "rel_rmse")})
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        extras = {k: v for k, v in q.items() if k not in metrics}
        fastest, _ = stage_totals(pipelines, min)
        extras.update({f"{k}.raw": v for k, v in raw.items()})
        extras.update({f"{k}.raw_min": v for k, v in fastest.items()})
        extras["setup_s.raw"] = setup_raw
        extras.update({f"cli.{label}.wall_s": v for label, v in per_stage.items()})
        extras["harness_s"] = median(
            [sum(r["wall_s"] for r in p if "rss_mb" not in r) for p in pipelines])
    else:
        untraced = [r for _, res in setups for r in res] + [r for p in pipelines for r in p]
        try:
            plan, spans = run_traced(runner, args, work, log)
            layer, table = traced_layer_metrics(args.workload, spans, plan, untraced)
        except (OSError, ValueError, KeyError, RuntimeError, StopIteration) as exc:
            runner.failed += 1
            runner.failures.append(f"traced run: {exc!r}")
            layer = {}
        metrics = {k: layer.get(k, float("nan")) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        extras = {k: v for k, v in layer.items() if k not in metrics}
    extras["error_rate"] = runner.failed / max(runner.attempted, 1)
    extras["reference_s.min"] = min(refs)
    extras["reference_s.median"] = median(refs)
    extras["repeats"] = len(pipelines)

    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    for name, value in sorted(extras.items()):
        print(f"{name:<28} {value:>14.6g}")
    for line in table:
        print(line)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    correct = runner.failed == 0 and all(finite_or_none(v) is not None for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": finite_or_none(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, extras=extras,
                  failures=runner.failures, meta=metadata(args),
                  elapsed_s=time.perf_counter() - started,
                  hashes={f"{label}/{name}": sorted(d) for (label, name), d in runner.hashes.items()})
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
