"""The traced benchmark replay still sees the layers it reports.

perfbench/trace_stages.py wraps program functions by the names their
callers look them up by. A rename would silently drop a layer from
``perfbench/run.py --trace 1``; here it fails a test instead.
"""

import importlib.util
from pathlib import Path

import pytest

from intentclick import cli, evaluate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def trace_stages(monkeypatch):
    """perfbench/trace_stages.py, loaded by path; afterwards the module
    attributes its install() replaced are put back and those it added are
    deleted (cli binds its lazy names again on first use)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("trace_stages", PERFBENCH / "trace_stages.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    saved = {m: dict(vars(m)) for m in (cli, evaluate)}
    yield module
    for m, attrs in saved.items():
        for name in vars(m).keys() - attrs.keys():
            delattr(m, name)
        for name, value in attrs.items():
            setattr(m, name, value)


def _under(spans, name, stage):
    """Whether some span called ``name`` has the span ``stage`` above it."""
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == stage:
                return True
            parent = by_id[parent]["parent"]
    return False


def test_traced_pipeline_spans_its_layers(trace_stages, tmp_path):
    tracer = trace_stages.Tracer()
    traced_cli = trace_stages.install(tracer)
    sim, out = tmp_path / "sim", tmp_path / "out"
    aol, labels = tmp_path / "log.tsv", tmp_path / "seed_labels.tsv"
    aol.write_text("u1\tmapquest\t2006-03-01 07:17:12\t1\thttp://www.mapquest.com\n"
                   "u1\tweather\t2006-03-01 08:30:00\t2\thttp://www.weather.com\n"
                   "u2\tmp3 download\t2006-03-02 10:00:00\t1\thttp://www.mp3.com\n")
    labels.write_text("mapquest\tnav\nweather\tinf\n")
    stages = [
        ("ingest", ["ingest", "--aol", str(aol), "--out", str(out) + ".sessions.jsonl"]),
        ("classify", ["classify", "--sessions", str(out) + ".sessions.jsonl",
                      "--train-labels", str(labels), "--out", str(out) + ".labels.tsv"]),
        ("simulate", ["simulate", "--out-dir", str(sim), "--queries", "4",
                      "--sessions-per-query", "20", "--positions", "3", "--seed", "3",
                      "--intent-aware", "--intents-per-query"]),
        ("fit", ["fit", "--model", "pbm", "--sessions", str(sim / "sessions.jsonl"),
                 "--intents", str(sim / "intents.tsv"), "--intent-aware",
                 "--out", str(out) + ".json"]),
        ("eval", ["eval", "--params", str(out) + ".json",
                  "--sessions", str(sim / "sessions.jsonl"),
                  "--judgments", str(sim / "judgments.tsv"), "--out", str(out) + ".eval.json"]),
    ]
    for label, argv in stages:
        assert tracer.call(f"cli.{label}", traced_cli.run, argv) == cli.EXIT_OK

    spans = tracer.spans
    assert _under(spans, "sessions.read_aol_log", "cli.ingest")
    assert _under(spans, "sessions.sessionize", "cli.ingest")
    assert _under(spans, "intent.extract_features", "cli.classify")
    assert _under(spans, "intent.train_classifier", "cli.classify")
    assert _under(spans, "sessions.read_sessions", "cli.fit")
    assert _under(spans, "sessions.attach_intents", "cli.fit")
    assert _under(spans, "inference.em_fit", "cli.fit")
    assert _under(spans, "sessions.read_sessions", "cli.eval")
    assert _under(spans, "sessions.read_judgments", "cli.eval")
    assert _under(spans, "models.load_params", "cli.eval")
    for layer in ("perplexity_report", "ndcg_for_scores", "mixture_relevance_scorer"):
        assert _under(spans, f"evaluate.{layer}", "cli.eval"), layer

    # The fit probe: read_sessions -> attach_intents -> em_fit(max_iters=1).
    fit = {"model": "pbm", "sessions": str(sim / "sessions.jsonl"),
           "intents": str(sim / "intents.tsv"), "intent_aware": True, "alternating": False}
    _, report = trace_stages.probe(fit)()
    assert report.iterations == 1
