"""End-to-end CLI pipelines, exit codes, and manifests."""

import ast
import builtins
import contextlib
import copy
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intentclick
from intentclick import cli
from intentclick.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, run
from intentclick.common import NumericError
from intentclick.reports import MIN_IMPROVEMENT, load_report
from intentclick.models import IntentAwareParams, load_params
from intentclick.sessions import Intent, read_intent_labels, read_sessions
from intentclick.simulate import PRESET_SEED, SimConfig

AOL_SAMPLE = (
    "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
    "u1\tmapquest\t2006-03-01 07:17:12\t1\thttp://www.mapquest.com\n"
    "u1\tmapquest\t2006-03-01 07:19:12\t\t\n"
    "u1\tweather\t2006-03-01 08:30:00\t2\thttp://www.weather.com\n"
    "u2\tfree music downloads\t2006-03-02 10:00:00\t1\thttp://www.mp3.com\n"
    "u2\tfree music downloads\t2006-03-02 10:01:00\t3\thttp://www.emp3.com\n"
)


def _pinned_aol_log() -> str:
    """An AOL log of fixed literals and random.Random(11) draws. It has a
    gap that splits a session, clicks deeper than --max-positions 5, query-only
    lines and a URL clicked at two ranks of one session."""
    lines = [
        "AnonID\tQuery\tQueryTime\tItemRank\tClickURL",
        "a1\tWeather Today\t2006-03-01 07:00:00\t\t",
        "a1\tweather today\t2006-03-01 07:02:00\t2\thttp://w.com",
        "a1\tweather today\t2006-03-01 07:03:00\t4\thttp://w.com",
        "a1\tweather today\t2006-03-01 07:04:00\t7\thttp://deep.com",
        "a1\tweather today\t2006-03-01 08:30:00\t1\thttp://w.com",
    ]
    rng = random.Random(11)
    queries = ["maps", "cheap flights", "news", "www.foo.com"]
    for user in ("b1", "b2", "b3", "b4", "b5"):
        when = datetime(2006, 3, 1, 9, 0)
        for _ in range(rng.randint(4, 14)):
            when += timedelta(minutes=rng.choice([0, 1, 5, 20, 29, 31, 45, 90]))
            query = rng.choice(queries)
            stamp = when.strftime("%Y-%m-%d %H:%M:%S")
            if rng.random() < 0.3:
                lines.append(f"{user}\t{query}\t{stamp}\t\t")
            else:
                rank = rng.randint(1, 8)
                url = f"http://site{rng.randint(1, 4)}.com"
                lines.append(f"{user}\t{query}\t{stamp}\t{rank}\t{url}")
    return "\n".join(lines) + "\n"


# sha256 of the sessions.jsonl that `ingest --max-positions 5` writes from
# _pinned_aol_log(): any change to sessionization, doc ids or the record
# layout changes it.
INGEST_DIGEST = "1bbb7fa3d44fce987f2a66e09b2a51034dc1da76cdc48a0f60a6e6a52580736b"


def _simulate(tmp_path, subdir="sim", extra=()):
    out_dir = tmp_path / subdir
    code = run(
        [
            "simulate", "--out-dir", str(out_dir), "--model", "pbm",
            "--queries", "12", "--sessions-per-query", "60",
            "--positions", "4", "--seed", "5", *extra,
        ]
    )
    assert code == EXIT_OK
    return out_dir


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run([]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: intentclick ")
        assert "error: the following arguments are required: subcommand" in err
        assert "Traceback" not in err

    def test_unknown_subcommand(self):
        assert run(["explode"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["fit", "--model", "pbm"]) == EXIT_USAGE

    def test_bad_model_choice(self):
        assert run(["fit", "--model", "dcm", "--sessions", "x", "--out", "y"]) == EXIT_USAGE

    def test_bad_intent_mix(self, tmp_path):
        # NaN fails both the sign and the sum check, as a usage error.
        for mix in ["0.5,0.2,0.2", "nan,0.5,0.5", "0.5,0.5,nan", "inf,0,0", "1,0", "a,b,c"]:
            code = run(["simulate", "--out-dir", str(tmp_path / "s"), "--intent-mix", mix])
            assert code == EXIT_USAGE, mix
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("mix", [(0.2, 0.2, 0.2), (1.0, 0.0), (math.nan, 0.5, 0.5)])
    def test_intent_mix_rule_is_the_simulators(self, tmp_path, capsys, mix):
        # --intent-mix and SimConfig refuse a mix with the same rule text.
        with pytest.raises(ValueError) as refused:
            SimConfig(intent_mix=mix)
        rule = str(refused.value).split(", got ")[0]
        text = ",".join(map(str, mix))
        capsys.readouterr()
        assert run(["simulate", "--out-dir", str(tmp_path / "s"), "--intent-mix", text]) == EXIT_USAGE
        assert f"{rule}, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("k_list", ["0", "1,0,3", "-2", "1,x"])
    def test_bad_k_list(self, k_list):
        code = run(["eval", "--params", "p.json", "--sessions", "s.jsonl", "--out", "r.json",
                    "--k-list", k_list])
        assert code == EXIT_USAGE


class TestBadFlagValues:
    @pytest.mark.parametrize("argv", [
        ["ingest", "--gap-minutes", "-5"],
        ["ingest", "--gap-minutes", "nan"],
        ["ingest", "--gap-minutes", "inf"],
        ["ingest", "--gap-minutes", "1e300"],
        ["ingest", "--gap-minutes", "x"],
        ["ingest", "--max-positions", "0"],
        ["ingest", "--max-positions", "-1"],
        ["simulate", "--queries", "0"],
        ["simulate", "--positions", "0"],
        ["simulate", "--sessions-per-query", "0"],
        ["simulate", "--sessions-per-query", "-1"],
        ["fit", "--max-iters", "0"],
        ["fit", "--max-positions", "0"],
        ["fit", "--tol", "0"],
        ["fit", "--tol", "nan"],
        ["fit", "--tol", "inf"],
        ["fit", "--tol", "-1"],
        ["fit", "--tol", "abc"],
    ], ids=lambda argv: "{}{}={}".format(*argv))
    def test_usage_error_without_traceback_or_output(self, pipeline_inputs, tmp_path, capsys,
                                                     argv):
        d = pipeline_inputs
        out = tmp_path / "out"
        # Without the flag under test, each of these runs succeeds.
        inputs = {
            "ingest": ["--aol", f"{d}/raw.tsv", "--out", str(out)],
            "simulate": ["--out-dir", str(out)],
            "fit": ["--model", "pbm", "--sessions", f"{d}/aol.jsonl", "--out", str(out)],
        }
        capsys.readouterr()
        code = run([argv[0], *inputs[argv[0]], *argv[1:]])
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_parses_and_writes_manifest(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text(AOL_SAMPLE)
        out = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(out)]) == EXIT_OK
        sessions = read_sessions(out)
        # mapquest pair merges into one session; weather and the music query
        # each form their own
        assert len(sessions) == 3
        manifest = json.loads((tmp_path / "sessions.jsonl.manifest.json").read_text())
        assert manifest["subcommand"] == "ingest"
        assert manifest["config"]["gap_minutes"] == 30.0
        assert "ingested" in capsys.readouterr().out

    def test_missing_input_is_a_data_error(self, tmp_path):
        code = run(
            ["ingest", "--aol", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA

    def test_gap_zero_keeps_only_shared_timestamps_together(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("u1\tfoo\t2006-03-01 07:00:00\t1\thttp://a\n"
                       "u1\tfoo\t2006-03-01 07:00:00\t2\thttp://b\n"
                       "u1\tfoo\t2006-03-01 07:01:00\t1\thttp://c\n")
        out = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(out),
                    "--gap-minutes", "0"]) == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["session_id"], r["docs"]) for r in records] == [
            ("u1:0", ["http://a", "http://b"]), ("u1:1", ["http://c"])]

    @pytest.mark.parametrize("clicks,docs", [
        # The rank-3 rename http://a#3 is already the rank-2 doc.
        ([(1, "http://a"), (2, "http://a#3"), (3, "http://a")],
         ["http://a", "http://a#3", "http://a#3#3"]),
        # The rank-2 placeholder is already the rank-1 doc.
        ([(1, "q:foo:pos2"), (3, "http://b")], ["q:foo:pos2", "q:foo:pos2#2", "http://b"]),
    ], ids=["taken-rename", "taken-placeholder"])
    def test_doc_id_collisions_get_fresh_ids(self, tmp_path, clicks, docs):
        raw = tmp_path / "raw.tsv"
        raw.write_text("".join(f"u1\tfoo\t2006-03-01 07:0{rank}:00\t{rank}\t{url}\n"
                               for rank, url in clicks))
        out = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(out)]) == EXIT_OK
        [record] = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["docs"] == docs
        assert record["clicks"] == [int(pos in dict(clicks)) for pos in range(1, len(docs) + 1)]

    def test_output_matches_pinned_digest(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text(_pinned_aol_log())
        out = tmp_path / "sessions.jsonl"
        argv = ["ingest", "--aol", str(raw), "--out", str(out), "--max-positions", "5"]
        assert run(argv) == EXIT_OK
        assert "ingested 36 sessions (20 clicks kept, 9 dropped)" in capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == INGEST_DIGEST

    def test_log_of_only_malformed_lines_is_a_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.tsv"
        raw.write_text("u1\tmapquest\n"
                       "u1\tmapquest\t2006-03-01 7h17\t\t\n")
        out = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "all 2 data lines are malformed" in err
        assert "line 1: expected 5 tab-separated fields, got 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", AOL_SAMPLE.splitlines(keepends=True)[0]],
                             ids=["empty", "header-only"])
    def test_log_without_data_lines_ingests_nothing(self, tmp_path, capsys, text):
        raw = tmp_path / "raw.tsv"
        raw.write_text(text)
        out = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(out)]) == EXIT_OK
        assert out.read_text() == ""
        captured = capsys.readouterr()
        assert "ingested 0 sessions" in captured.out
        assert captured.err == ""


# Pieces of AOL-shaped lines: fields of every kind a log may hold, and the
# bad ones a log may hold instead. A lone surrogate is written as bytes that
# are not UTF-8.
_AOL_TEXT = st.text(st.sampled_from("aZ09 .-_!?:/#é漢\u00a0\u2028\ud800"), max_size=8)
_AOL_TIMES = st.sampled_from([
    "2006-03-01 07:17:12", "2006-03-01 07:47:12", "2006-03-02 00:00:00", "2006-03-01T07:17:12",
    "2006-03-01  7:17:12", "２006-03-01 07:17:12", "2006-02-29 07:17:12", "2006-03-01 24:00:00",
    "2006-03-01 07:17:60", "2006-03-01", "", "x",
])
_AOL_RANKS = st.sampled_from(["", "1", "2", "10", "11", "0", "-1", "３", "1_0", "x",
                              "99999999999999999999"])
_AOL_URLS = st.sampled_from(["", "http://a.com", "http://b.com", "q:x:pos2", "http://a.com#2"])


@st.composite
def _aol_lines(draw):
    """One AOL-shaped line: five fields or, now and then, another count."""
    fields = [draw(st.sampled_from(["u1", "u2", "", "AnonID"])), draw(_AOL_TEXT),
              draw(_AOL_TIMES), draw(_AOL_RANKS), draw(_AOL_URLS)]
    count = draw(st.sampled_from([5, 5, 5, 5, 1, 4, 6]))
    fields = (fields + [draw(_AOL_TEXT)])[:count]
    return "\t".join(fields)


class TestIngestFuzz:
    """ingest never crashes: any AOL-shaped log exits 0 or 2, no traceback."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(_aol_lines(), max_size=8), st.sampled_from(["\n", "\r\n"]))
    def test_exits_cleanly(self, lines, newline):
        with tempfile.TemporaryDirectory() as tmp:
            raw, out = Path(tmp) / "raw.tsv", Path(tmp) / "sessions.jsonl"
            text = "".join(line + newline for line in lines)
            raw.write_bytes(text.encode("utf-8", "surrogatepass"))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(["ingest", "--aol", str(raw), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_DATA)
        assert "Traceback" not in stderr.getvalue()


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        a = _simulate(tmp_path, "a")
        b = _simulate(tmp_path, "b")
        assert (a / "sessions.jsonl").read_bytes() == (b / "sessions.jsonl").read_bytes()
        assert (a / "truth_params.json").read_bytes() == (b / "truth_params.json").read_bytes()
        assert (a / "judgments.tsv").exists()
        manifest = json.loads((a / "sessions.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["queries"] == 12

    def test_intent_aware_with_pinned_queries_writes_labels(self, tmp_path):
        out = _simulate(tmp_path, "ia", extra=["--intent-aware", "--intents-per-query"])
        labels = read_intent_labels(out / "intents.tsv")
        assert len(labels) == 12

    def test_behavior_preset_with_session_override(self, tmp_path):
        out_dir = tmp_path / "preset"
        code = run(["simulate", "--out-dir", str(out_dir),
                    "--behavior-preset", "--sessions-per-query", "20"])
        assert code == EXIT_OK
        sessions = read_sessions(out_dir / "sessions.jsonl")
        assert len(sessions) == 18 * 20
        labels = read_intent_labels(out_dir / "intents.tsv")
        assert len(labels) == 18
        manifest = json.loads((out_dir / "sessions.jsonl.manifest.json").read_text())
        assert manifest["seed"] == PRESET_SEED
        assert manifest["config"]["seed"] == 0

    @pytest.mark.parametrize("extra", [[], ["--behavior-preset"]], ids=["plain", "preset"])
    def test_zero_sessions_per_query_is_a_usage_error(self, tmp_path, extra):
        out_dir = tmp_path / "zero"
        code = run(["simulate", "--out-dir", str(out_dir), "--sessions-per-query", "0", *extra])
        assert code == EXIT_USAGE
        assert not out_dir.exists()


# An evaluation report that compares cleanly with itself.
GOOD_REPORT = {"label": "m", "per_position": [1.5, 1.2], "position_counts": [2, 3],
               "overall": 1.35, "n_sessions": 1, "n_queries": 1, "ndcg": {"1": 0.5},
               "ndcg_queries": 1}


class TestFitEvalCompare:
    def test_full_pipeline(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        sessions_path = sim / "sessions.jsonl"
        params_path = tmp_path / "pbm.json"
        code = run(
            ["fit", "--model", "pbm", "--sessions", str(sessions_path),
             "--out", str(params_path), "--max-iters", "40"]
        )
        assert code == EXIT_OK
        params = load_params(params_path)
        assert params.kind == "pbm"
        report_doc = json.loads((tmp_path / "pbm.json.report.json").read_text())
        assert report_doc["iterations"] >= 1
        assert len(report_doc["loglik_trace"]) == report_doc["iterations"]
        assert report_doc["extrapolated"] >= 0 and report_doc["rejected"] >= 0

        eval_path = tmp_path / "pbm.eval.json"
        code = run(
            ["eval", "--params", str(params_path), "--sessions", str(sessions_path),
             "--out", str(eval_path), "--judgments", str(sim / "judgments.tsv"),
             "--k-list", "1,3", "--label", "pbm"]
        )
        assert code == EXIT_OK
        report = load_report(eval_path)
        assert report.overall >= 1.0
        assert set(report.ndcg) == {1, 3}

        table_path = tmp_path / "cmp.txt"
        code = run(
            ["compare", "--base", str(eval_path), "--treat", str(eval_path),
             "--out", str(table_path)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Impr." in out
        assert table_path.exists()
        structured = json.loads((tmp_path / "cmp.txt.json").read_text())
        assert structured["overall_improvement"] == 0.0

    def test_fit_is_byte_deterministic(self, tmp_path):
        sim = _simulate(tmp_path)
        sessions_path = sim / "sessions.jsonl"
        outs = []
        for name in ("p1.json", "p2.json"):
            path = tmp_path / name
            code = run(["fit", "--model", "pbm", "--sessions", str(sessions_path),
                        "--out", str(path), "--max-iters", "25"])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_intent_aware_fit_writes_ia_params(self, tmp_path):
        sim = _simulate(tmp_path, "ia", extra=["--intent-aware", "--intents-per-query"])
        params_path = tmp_path / "ia_pbm.json"
        code = run(
            ["fit", "--model", "pbm", "--intent-aware",
             "--sessions", str(sim / "sessions.jsonl"),
             "--out", str(params_path), "--max-iters", "30"]
        )
        assert code == EXIT_OK
        assert isinstance(load_params(params_path), IntentAwareParams)

    def test_alternating_fit_stops_at_max_iters(self, pipeline_inputs, tmp_path, capsys, caplog):
        sim = pipeline_inputs / "sim"
        out = tmp_path / "u.json"
        with caplog.at_level("WARNING", logger="intentclick.inference"):
            code = run(["fit", "--model", "ubm", "--alternating", "--sessions",
                        str(sim / "sessions.jsonl"), "--intents", str(sim / "intents.tsv"),
                        "--out", str(out), "--max-iters", "1"])
        assert code == EXIT_OK
        report = json.loads(Path(f"{out}.report.json").read_text())
        assert report["iterations"] == len(report["loglik_trace"]) == 1
        assert report["converged"] is False
        assert "stopped at max_iters=1" in caplog.text
        assert "stopped at max iterations after 1 iterations" in capsys.readouterr().out

    def test_alternating_is_a_synonym_of_intent_aware(self, pipeline_inputs, tmp_path):
        sim = pipeline_inputs / "sim"
        written, configs = [], []
        for flag in ("--intent-aware", "--alternating"):
            out = tmp_path / f"{flag[2:]}.json"
            assert run(["fit", "--model", "ubm", flag, "--sessions", str(sim / "sessions.jsonl"),
                        "--intents", str(sim / "intents.tsv"), "--out", str(out)]) == EXIT_OK
            written.append((out.read_bytes(), Path(f"{out}.report.json").read_bytes()))
            config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
            configs.append({k: v for k, v in config.items() if k != "out"})
        assert written[0] == written[1]
        # Both flags parse into the one intent_aware setting.
        assert configs[0] == configs[1] and configs[0]["intent_aware"] is True
        assert "alternating" not in configs[0]

    def test_compare_ndcg_over_different_queries_is_a_data_error(self, pipeline_inputs,
                                                                  tmp_path, capsys):
        # The same params and sessions, judged by a file and by its first 8
        # lines: the NDCG means average over different queries.
        sim = pipeline_inputs / "sim"
        short = tmp_path / "short.tsv"
        short.write_text("".join((sim / "judgments.tsv").read_text().splitlines(True)[:8]))
        reports = [tmp_path / "full.eval.json", tmp_path / "short.eval.json"]
        for judgments, report in zip((sim / "judgments.tsv", short), reports):
            assert run(["eval", "--params", str(pipeline_inputs / "p.json"), "--sessions",
                        str(sim / "sessions.jsonl"), "--judgments", str(judgments),
                        "--out", str(report)]) == EXIT_OK
        full, part = (load_report(r) for r in reports)
        assert full.n_queries == part.n_queries and full.ndcg_queries > part.ndcg_queries > 0
        capsys.readouterr()
        code = run(["compare", "--base", str(reports[0]), "--treat", str(reports[1]),
                    "--out", str(tmp_path / "cmp.txt")])
        assert code == EXIT_DATA
        assert "NDCG averages over different query counts" in capsys.readouterr().err
        assert not (tmp_path / "cmp.txt").exists()

    def test_compare_mismatched_sets_is_a_data_error(self, tmp_path):
        sim_a = _simulate(tmp_path, "a")
        sim_b = _simulate(tmp_path, "b", extra=["--queries", "6"])
        params = tmp_path / "p.json"
        run(["fit", "--model", "pbm", "--sessions", str(sim_a / "sessions.jsonl"),
             "--out", str(params), "--max-iters", "10"])
        eval_a = tmp_path / "a.eval.json"
        eval_b = tmp_path / "b.eval.json"
        run(["eval", "--params", str(params), "--sessions", str(sim_a / "sessions.jsonl"),
             "--out", str(eval_a)])
        run(["eval", "--params", str(params), "--sessions", str(sim_b / "sessions.jsonl"),
             "--out", str(eval_b)])
        code = run(["compare", "--base", str(eval_a), "--treat", str(eval_b),
                    "--out", str(tmp_path / "cmp.txt")])
        assert code == EXIT_DATA

    def test_compare_different_position_counts_is_a_data_error(self, tmp_path, capsys):
        base, treat = tmp_path / "base.json", tmp_path / "treat.json"
        base.write_text(json.dumps(GOOD_REPORT))
        treat.write_text(json.dumps({**GOOD_REPORT, "per_position": [1.5, 1.2, 1.1],
                                     "position_counts": [2, 3, 1]}))
        out = tmp_path / "cmp.txt"
        assert run(["compare", "--base", str(base), "--treat", str(treat),
                    "--out", str(out)]) == EXIT_DATA
        assert "position counts differ: 2 vs 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("per_position", ["1.5", 1.2]),
            ("per_position", [1.5, True]),
            ("position_counts", [2.0, 3]),
            ("position_counts", [2, "3"]),
            ("overall", "1.35"),
            ("n_sessions", True),
            ("label", 5),
            ("ndcg", {"1": "0.5"}),
            ("overall", float("nan")),
            ("per_position", [1.5, float("nan")]),
            ("overall", float("inf")),
            ("ndcg", {"1": float("nan")}),
            ("per_position", []),
            ("overall", 10**400),
            ("overall", 1e300),
            ("per_position", [1.5, 0.999]),
            ("ndcg", {"0_3": 0.5}),
            ("ndcg", {" 1": 0.5}),
            ("ndcg", {"+3": 0.5}),
            ("ndcg", {"0": 0.5}),
            ("ndcg", {"-1": 0.5}),
            ("ndcg", {"3": 0.6, "03": 0.9}),
            ("ndcg", {"1": 7.5}),
            ("ndcg", {"1": -2.0}),
            ("position_counts", [-2, 3]),
            ("n_queries", -1),
            ("position_counts", [2]),
        ],
        ids=["per-position-string", "per-position-bool", "count-float", "count-string",
             "overall-string", "n-sessions-bool", "label-int", "ndcg-string",
             "overall-nan", "per-position-nan", "overall-inf", "ndcg-nan",
             "per-position-empty", "overall-too-large", "overall-above-range",
             "per-position-below-one", "ndcg-key-underscore", "ndcg-key-space",
             "ndcg-key-plus", "ndcg-key-zero", "ndcg-key-negative", "ndcg-key-duplicate",
             "ndcg-above-one", "ndcg-negative", "count-negative", "n-queries-negative",
             "counts-shorter"],
    )
    def test_compare_malformed_report_is_a_data_error(self, tmp_path, field, value):
        # Each bad value would cast to one that compares cleanly with the
        # base, print a nan% or inf% cell or an empty table, or crash.
        good = GOOD_REPORT
        base, treat = tmp_path / "base.json", tmp_path / "treat.json"
        base.write_text(json.dumps(good))
        argv = ["compare", "--base", str(base), "--treat", str(treat),
                "--out", str(tmp_path / "cmp.txt")]
        treat.write_text(json.dumps(good))
        assert run(argv) == EXIT_OK
        treat.write_text(json.dumps({**good, field: value}))
        assert run(argv) == EXIT_DATA
        # The same value in both reports, so that no check that the two
        # reports match can be what refuses it.
        base.write_text(treat.read_text())
        assert run(argv) == EXIT_DATA

    def test_compare_refuses_perplexities_eval_cannot_write(self, tmp_path, capsys):
        # Both finite, yet their improvement cell would overflow to -inf%.
        base, treat = tmp_path / "base.json", tmp_path / "treat.json"
        base.write_text(json.dumps({**GOOD_REPORT, "per_position": [1.0000000000001, 1.2],
                                    "overall": 1.0000000000001}))
        treat.write_text(json.dumps({**GOOD_REPORT, "per_position": [1e300, 1.2],
                                     "overall": 1e300}))
        out = tmp_path / "cmp.txt"
        assert run(["compare", "--base", str(base), "--treat", str(treat),
                    "--out", str(out)]) == EXIT_DATA
        assert "perplexities must lie in [1, " in capsys.readouterr().err
        assert not out.exists()

    def test_compare_caps_cells_of_a_baseline_at_one(self, tmp_path, capsys):
        # Both reports are ones eval could write, yet the raw cell would be
        # about -1e27%: it is capped at MIN_IMPROVEMENT in table and JSON.
        base, treat = tmp_path / "base.json", tmp_path / "treat.json"
        base.write_text(json.dumps({**GOOD_REPORT, "per_position": [1.0000000000001, 1.2],
                                    "overall": 1.0000000000001}))
        treat.write_text(json.dumps({**GOOD_REPORT, "per_position": [1e12, 1.2],
                                     "overall": 1e12}))
        out = tmp_path / "cmp.txt"
        assert run(["compare", "--base", str(base), "--treat", str(treat),
                    "--out", str(out)]) == EXIT_OK
        [impr] = [line for line in out.read_text().splitlines() if line.startswith("Impr.")]
        assert impr.split() == ["Impr.", "-1000000.0%", "0.0%", "-1000000.0%"]
        assert impr in capsys.readouterr().out
        doc = json.loads(Path(f"{out}.json").read_text())
        assert doc["improvements"] == [MIN_IMPROVEMENT, 0.0]
        assert doc["overall_improvement"] == MIN_IMPROVEMENT

    def test_fit_on_empty_sessions_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run(["fit", "--model", "pbm", "--sessions", str(empty),
                    "--out", str(tmp_path / "p.json")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("subcommand", ["fit", "eval"])
    def test_sessions_without_positions_are_a_data_error(self, tmp_path, subcommand):
        # ingest writes such sessions for query-only log lines
        empty = tmp_path / "query_only.jsonl"
        empty.write_text(
            '{"clicks": [], "docs": [], "intent": "unk", "query_id": "q", "session_id": "u:0"}\n'
        )
        sim = _simulate(tmp_path)
        params = tmp_path / "p.json"
        run(["fit", "--model", "pbm", "--sessions", str(sim / "sessions.jsonl"),
             "--out", str(params), "--max-iters", "5"])
        out = tmp_path / f"{subcommand}.json"
        argv = {
            "fit": ["fit", "--model", "pbm", "--sessions", str(empty), "--out", str(out)],
            "eval": ["eval", "--params", str(params), "--sessions", str(empty), "--out", str(out)],
        }[subcommand]
        assert run(argv) == EXIT_DATA
        assert not out.exists()

    def test_tab_in_query_id_is_a_data_error_naming_its_line(self, tmp_path, capsys):
        # Parameter files key pairs as query<TAB>doc, so such a query id
        # would come back as another pair and be scored at the prior.
        sessions = tmp_path / "tab.jsonl"
        sessions.write_text(
            '{"session_id": "s1", "query_id": "a", "intent": "unk", "docs": ["d1"], '
            '"clicks": [1]}\n'
            '{"session_id": "s2", "query_id": "a\\tb", "intent": "unk", "docs": ["d1"], '
            '"clicks": [0]}\n'
        )
        out = tmp_path / "p.json"
        code = run(["fit", "--model", "pbm", "--sessions", str(sessions), "--out", str(out)])
        assert code == EXIT_DATA
        assert "line 2: query_id 'a\\tb' contains a tab" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_with_only_zero_grades_is_a_data_error(self, tmp_path):
        sim = _simulate(tmp_path)
        params = tmp_path / "p.json"
        run(["fit", "--model", "pbm", "--sessions", str(sim / "sessions.jsonl"),
             "--out", str(params), "--max-iters", "5"])
        zero = tmp_path / "zero.tsv"
        zero.write_text("".join(
            line.rsplit("\t", 1)[0] + "\t0\n"
            for line in (sim / "judgments.tsv").read_text().splitlines()
        ))
        out = tmp_path / "r.json"
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out), "--judgments", str(zero)])
        assert code == EXIT_DATA
        assert not out.exists()

    def test_eval_with_undersized_params_is_a_data_error(self, tmp_path):
        sim = _simulate(tmp_path)  # 4 positions
        params = tmp_path / "short.json"
        run(["fit", "--model", "pbm", "--sessions", str(sim / "sessions.jsonl"),
             "--out", str(params), "--max-iters", "5", "--max-positions", "4"])
        deep = _simulate(tmp_path, "deep", extra=["--positions", "6"])
        code = run(["eval", "--params", str(params),
                    "--sessions", str(deep / "sessions.jsonl"),
                    "--out", str(tmp_path / "r.json")])
        assert code == EXIT_DATA

    def test_eval_with_malformed_params_is_a_data_error(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        params = tmp_path / "bad.json"
        params.write_text('{"version": 1, "kind": "pbm", "intent_aware": false}')
        out = tmp_path / "r.json"
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert "missing 'params'" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_with_loose_header_is_a_data_error(self, tmp_path, capsys):
        # true == 1 and 0 is falsy in Python; the header wants the JSON types.
        sim = _simulate(tmp_path)
        params = tmp_path / "loose.json"
        params.write_text('{"version": true, "kind": "cascade", "intent_aware": 0, '
                          '"params": {"rel": {}}}')
        out = tmp_path / "r.json"
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert "unsupported parameter document version True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,params", [
        ("cascade", {"rel": {"q0000\tq0000_d01": 10**400}}),
        ("dbn", {"rel": {}, "sat": {}, "gamma_cont": 10**400}),
    ], ids=["table-value", "scalar"])
    def test_eval_with_ints_too_large_for_a_float_is_a_data_error(self, tmp_path, capsys, kind,
                                                                   params):
        sim = _simulate(tmp_path)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": 1, "kind": kind, "intent_aware": False,
                                    "params": params}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run(["eval", "--params", str(path), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (f"data error: bad {kind} parameter document: "
                                           "int too large to convert to float\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,table", [
        ("pbm", {"exam": {"1": 0.5, "2": 0.5, "3": 0.5, "5": 0.5}}),
        ("ubm", {"beta": {"0:1": 0.5, "0:2": 0.5, "0:3": 0.5, "0:4": 0.5, "1:2": 0.5,
                          "1:3": 0.5, "1:4": 0.5, "2:3": 0.5, "2:4": 0.5, "4:5": 0.5}}),
    ], ids=["pbm", "ubm"])
    def test_eval_with_misplaced_exam_cells_is_a_data_error(self, tmp_path, capsys, kind, table):
        # The right number of cells for max_positions 4, but one outside it.
        sim = _simulate(tmp_path)
        params = tmp_path / "odd.json"
        params.write_text(json.dumps({"version": 1, "kind": kind, "intent_aware": False, "params": {
            **table, "rel": {}, "max_positions": 4}}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert "missing or outside max_positions 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,table,max_positions", [
        ("pbm", {"exam": {"1": 0.5}}, 10**6),
        ("ubm", {"beta": {"0:1": 0.5}}, 1000),
    ], ids=["pbm", "ubm"])
    def test_eval_with_huge_max_positions_is_a_short_data_error(self, tmp_path, capsys, kind,
                                                                 table, max_positions):
        sim = _simulate(tmp_path)
        params = tmp_path / "huge.json"
        params.write_text(json.dumps({"version": 1, "kind": kind, "intent_aware": False, "params": {
            **table, "rel": {}, "max_positions": max_positions}}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "max_positions" in err
        assert max(map(len, err.splitlines())) < 1000
        assert not out.exists()

    def test_eval_with_max_positions_below_one_is_a_data_error(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        params = tmp_path / "negative.json"
        params.write_text(json.dumps({"version": 1, "kind": "pbm", "intent_aware": False,
                                      "params": {"exam": {}, "rel": {}, "max_positions": -2}}))
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run(["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", str(out)])
        assert code == EXIT_DATA
        assert ("bad pbm parameter document: max_positions must be >= 1, got -2"
                in capsys.readouterr().err)
        assert not out.exists()


class TestClassify:
    def _ingested(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text(AOL_SAMPLE)
        out = tmp_path / "sessions.jsonl"
        run(["ingest", "--aol", str(raw), "--out", str(out)])
        return out

    def test_rule_mode(self, tmp_path):
        # A click below rank 3, and two clicks in one session, make a query
        # informational; a cue word makes it transactional.
        raw = tmp_path / "raw.tsv"
        raw.write_text(AOL_SAMPLE
                       + "u3\tjazz history\t2006-03-03 09:00:00\t5\thttp://jazz.org\n"
                       + "u4\tbird songs\t2006-03-03 09:00:00\t1\thttp://birds.org\n"
                       + "u5\toak trees\t2006-03-03 09:00:00\t1\thttp://oak.org\n"
                       + "u5\toak trees\t2006-03-03 09:01:00\t2\thttp://trees.org\n")
        sessions_path = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(sessions_path)]) == EXIT_OK
        labels_path = tmp_path / "intents.tsv"
        assert run(["classify", "--sessions", str(sessions_path),
                    "--out", str(labels_path)]) == EXIT_OK
        assert read_intent_labels(labels_path) == {
            "mapquest": Intent.NAVIGATIONAL,
            "weather": Intent.NAVIGATIONAL,
            "free music downloads": Intent.TRANSACTIONAL,
            "bird songs": Intent.TRANSACTIONAL,
            "jazz history": Intent.INFORMATIONAL,
            "oak trees": Intent.INFORMATIONAL,
        }

    def test_labels_are_written_in_query_order(self, tmp_path):
        sessions_path = tmp_path / "sessions.jsonl"
        sessions_path.write_text("".join(
            json.dumps({"session_id": f"s{i}", "query_id": query, "intent": "unk",
                        "docs": ["d1"], "clicks": [1]}) + "\n"
            for i, query in enumerate(["zebra", "apple", "mango", "apple"])))
        labels_path = tmp_path / "intents.tsv"
        assert run(["classify", "--sessions", str(sessions_path),
                    "--out", str(labels_path)]) == EXIT_OK
        queries = [line.split("\t")[0] for line in labels_path.read_text().splitlines()]
        assert queries == ["apple", "mango", "zebra"]

    def test_rule_mode_query_nobody_clicked_is_not_nav(self, tmp_path):
        # With no click, nCS and nRS are both 1: no evidence of navigation.
        sessions_path = tmp_path / "sessions.jsonl"
        sessions_path.write_text("".join(
            json.dumps({"session_id": f"s{i}", "query_id": "weather report", "intent": "unk",
                        "docs": ["d1", "d2", "d3"], "clicks": [0, 0, 0]}) + "\n"
            for i in range(5)))
        labels_path = tmp_path / "intents.tsv"
        assert run(["classify", "--sessions", str(sessions_path),
                    "--out", str(labels_path)]) == EXIT_OK
        assert labels_path.read_text() == "weather report\tinf\n"

    def test_trained_mode(self, tmp_path):
        sessions_path = self._ingested(tmp_path)
        seed_path = tmp_path / "seed.tsv"
        seed_path.write_text(
            "mapquest\tnav\nweather\tinf\nfree music downloads\ttra\n"
        )
        labels_path = tmp_path / "intents.tsv"
        model_path = tmp_path / "clf.json"
        code = run(["classify", "--sessions", str(sessions_path),
                    "--out", str(labels_path), "--train-labels", str(seed_path),
                    "--model-out", str(model_path)])
        assert code == EXIT_OK
        assert "seed" not in json.loads(model_path.read_text())
        assert json.loads((tmp_path / "intents.tsv.manifest.json").read_text())["seed"] is None
        assert len(read_intent_labels(labels_path)) == 3

    def test_model_out_without_train_labels_is_a_usage_error(self, tmp_path):
        sessions_path = self._ingested(tmp_path)
        code = run(["classify", "--sessions", str(sessions_path), "--out",
                    str(tmp_path / "o.tsv"), "--model-out", str(tmp_path / "clf.json")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "o.tsv").exists()
        assert not (tmp_path / "clf.json").exists()

    def test_lexicon_with_train_labels_is_a_usage_error(self, tmp_path, capsys):
        # A trained classifier reads no lexicon, so the flag would be ignored.
        sessions_path = self._ingested(tmp_path)
        seed_path = tmp_path / "seed.tsv"
        seed_path.write_text("mapquest\tnav\nweather\tinf\n")
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text("download\n")
        code = run(["classify", "--sessions", str(sessions_path), "--out",
                    str(tmp_path / "o.tsv"), "--train-labels", str(seed_path),
                    "--lexicon", str(lexicon_path)])
        assert code == EXIT_USAGE
        assert "--lexicon" in capsys.readouterr().err
        assert not (tmp_path / "o.tsv").exists()

    def test_lexicon_entries_are_normalized_as_queries(self, tmp_path):
        # The query is normalized at ingest; "MP3!" must match it as "mp3".
        raw = tmp_path / "raw.tsv"
        raw.write_text("u1\tMP3 Player\t2006-03-01 07:17:12\t1\thttp://www.player.com\n")
        sessions_path = tmp_path / "sessions.jsonl"
        assert run(["ingest", "--aol", str(raw), "--out", str(sessions_path)]) == EXIT_OK
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text("MP3!\n")
        labels_path = tmp_path / "intents.tsv"
        assert run(["classify", "--sessions", str(sessions_path), "--out", str(labels_path),
                    "--lexicon", str(lexicon_path)]) == EXIT_OK
        assert read_intent_labels(labels_path) == {"mp3 player": Intent.TRANSACTIONAL}

    def test_multi_token_lexicon_line_is_a_data_error(self, tmp_path, capsys):
        # Queries match the lexicon token by token, so this line never could.
        sessions_path = self._ingested(tmp_path)
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text("download\nfree music\n")
        code = run(["classify", "--sessions", str(sessions_path), "--out",
                    str(tmp_path / "o.tsv"), "--lexicon", str(lexicon_path)])
        assert code == EXIT_DATA
        assert "line 2: lexicon entry 'free music' is more than one token" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o.tsv").exists()

    def test_unk_seed_label_is_no_label(self, tmp_path):
        # README lists unk as a label; as a seed it trains nothing, and its
        # query is classified like any unlabelled one.
        sessions_path = self._ingested(tmp_path)
        seed_path = tmp_path / "seed.tsv"
        seed_path.write_text("mapquest\tnav\nweather\tinf\nfree music downloads\tunk\n")
        labels_path = tmp_path / "intents.tsv"
        assert run(["classify", "--sessions", str(sessions_path), "--out", str(labels_path),
                    "--train-labels", str(seed_path)]) == EXIT_OK
        labels = read_intent_labels(labels_path)
        assert sorted(labels) == ["free music downloads", "mapquest", "weather"]
        assert Intent.UNKNOWN not in labels.values()

    def test_no_matching_training_labels_is_a_data_error(self, tmp_path):
        sessions_path = self._ingested(tmp_path)
        seed_path = tmp_path / "seed.tsv"
        seed_path.write_text("unseen query\tnav\n")
        code = run(["classify", "--sessions", str(sessions_path),
                    "--out", str(tmp_path / "o.tsv"), "--train-labels", str(seed_path)])
        assert code == EXIT_DATA


class TestIntentAwareFitNeedsLabels:
    """An intent-aware fit on a log without one labelled session would fit
    only the Unknown fallback: it is a data error that names --intents."""

    @pytest.mark.parametrize("flag", ["--intent-aware", "--alternating"])
    def test_unlabelled_ingest_output(self, pipeline_inputs, tmp_path, capsys, flag):
        out = tmp_path / "p.json"
        capsys.readouterr()
        code = run(["fit", "--model", "pbm", flag, "--sessions", f"{pipeline_inputs}/aol.jsonl",
                    "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: no session has a known intent") and "--intents" in err
        assert not out.exists()

    def test_labels_of_no_query_in_the_log(self, pipeline_inputs, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        labels.write_text("no such query\tnav\n")
        out = tmp_path / "p.json"
        capsys.readouterr()
        code = run(["fit", "--model", "ubm", "--intent-aware", "--sessions",
                    f"{pipeline_inputs}/aol.jsonl", "--intents", str(labels), "--out", str(out)])
        assert code == EXIT_DATA
        assert "--intents" in capsys.readouterr().err
        assert not out.exists()

    def test_partly_labelled_log_fits(self, pipeline_inputs, tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text("mapquest\tnav\n")
        out = tmp_path / "p.json"
        code = run(["fit", "--model", "pbm", "--intent-aware", "--sessions",
                    f"{pipeline_inputs}/aol.jsonl", "--intents", str(labels), "--out", str(out)])
        assert code == EXIT_OK
        params = load_params(out)
        assert params.per_intent[Intent.NAVIGATIONAL].rel
        assert params.fallback.rel


class TestIntentAwareEvalNeedsLabels:
    """eval takes --intents as fit does: an intent-aware model scored on a
    log without one labelled session would score it all on the fallback."""

    @pytest.fixture(scope="class")
    def labelled_model(self, pipeline_inputs, tmp_path_factory):
        """An intent-aware UBM fitted on the simulated log, and that log with
        every session's intent wiped to unk, as ingest writes it."""
        d = tmp_path_factory.mktemp("ia_eval")
        sim = pipeline_inputs / "sim"
        assert run(["fit", "--model", "ubm", "--intent-aware", "--sessions",
                    str(sim / "sessions.jsonl"), "--out", str(d / "ubm_ia.json"),
                    "--max-iters", "5"]) == EXIT_OK
        records = [json.loads(line) for line in (sim / "sessions.jsonl").read_text().splitlines()]
        (d / "unlabelled.jsonl").write_text(
            "".join(json.dumps({**r, "intent": "unk"}) + "\n" for r in records))
        return d

    def _eval(self, model_dir, sessions, out, *extra):
        return run(["eval", "--params", str(model_dir / "ubm_ia.json"), "--sessions",
                    str(sessions), "--out", str(out), *extra])

    def test_unlabelled_log_is_a_data_error(self, labelled_model, tmp_path, capsys):
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert self._eval(labelled_model, labelled_model / "unlabelled.jsonl", out) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: no session has a known intent: an intent-aware eval")
        assert "--intents" in err
        assert not out.exists()

    def test_intents_give_the_report_of_the_labelled_log(self, pipeline_inputs, labelled_model,
                                                          tmp_path):
        sim = pipeline_inputs / "sim"
        labelled, attached = tmp_path / "labelled.json", tmp_path / "attached.json"
        assert self._eval(labelled_model, sim / "sessions.jsonl", labelled,
                          "--judgments", str(sim / "judgments.tsv")) == EXIT_OK
        assert self._eval(labelled_model, labelled_model / "unlabelled.jsonl", attached,
                          "--judgments", str(sim / "judgments.tsv"),
                          "--intents", str(sim / "intents.tsv")) == EXIT_OK
        assert attached.read_bytes() == labelled.read_bytes()

    def test_base_model_needs_no_labels(self, pipeline_inputs, labelled_model, tmp_path):
        assert run(["eval", "--params", str(pipeline_inputs / "p.json"), "--sessions",
                    str(labelled_model / "unlabelled.jsonl"),
                    "--out", str(tmp_path / "r.json")]) == EXIT_OK


@pytest.fixture(scope="module")
def pipeline_inputs(tmp_path_factory):
    """Inputs for one run of every subcommand."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "raw.tsv").write_text(AOL_SAMPLE)
    (d / "seed.tsv").write_text("mapquest\tnav\nweather\tinf\nfree music downloads\ttra\n")
    assert run(["ingest", "--aol", str(d / "raw.tsv"), "--out", str(d / "aol.jsonl")]) == EXIT_OK
    sim = _simulate(d, extra=["--intent-aware", "--intents-per-query"])
    assert run(["fit", "--model", "pbm", "--sessions", str(sim / "sessions.jsonl"),
                "--out", str(d / "p.json"), "--max-iters", "5"]) == EXIT_OK
    assert run(["eval", "--params", str(d / "p.json"), "--sessions", str(sim / "sessions.jsonl"),
                "--out", str(d / "r.json")]) == EXIT_OK
    return d


# argv per subcommand, reading from the inputs directory d and writing into o.
MANIFEST_RUNS = {
    "ingest": lambda d, o: ["ingest", "--aol", f"{d}/raw.tsv", "--out", f"{o}/s.jsonl",
                            "--gap-minutes", "10"],
    "simulate": lambda d, o: ["simulate", "--out-dir", f"{o}/sim", "--queries", "4",
                              "--sessions-per-query", "5", "--intent-mix", "0.5,0.5,0",
                              "--intent-aware", "--intents-per-query", "--seed", "8"],
    "classify": lambda d, o: ["classify", "--sessions", f"{d}/aol.jsonl", "--out", f"{o}/l.tsv",
                              "--train-labels", f"{d}/seed.tsv", "--model-out", f"{o}/clf.json"],
    "fit": lambda d, o: ["fit", "--model", "ubm", "--alternating", "--sessions",
                         f"{d}/sim/sessions.jsonl", "--intents", f"{d}/sim/intents.tsv",
                         "--out", f"{o}/u.json", "--max-iters", "4"],
    "eval": lambda d, o: ["eval", "--params", f"{d}/p.json", "--sessions",
                          f"{d}/sim/sessions.jsonl", "--out", f"{o}/e.json", "--judgments",
                          f"{d}/sim/judgments.tsv", "--k-list", "1,3", "--label", "pbm"],
    "compare": lambda d, o: ["compare", "--base", f"{d}/r.json", "--treat", f"{d}/r.json",
                             "--out", f"{o}/c.txt"],
}


class TestManifest:
    @pytest.mark.parametrize("subcommand", list(MANIFEST_RUNS))
    def test_records_parsed_flags_and_every_output(self, pipeline_inputs, tmp_path, subcommand):
        argv = MANIFEST_RUNS[subcommand](pipeline_inputs, tmp_path)
        assert run(argv) == EXIT_OK
        written = sorted(str(p) for p in tmp_path.rglob("*")
                         if p.is_file() and not p.name.endswith(".manifest.json"))
        [path] = tmp_path.rglob("*.manifest.json")
        manifest = json.loads(path.read_text())
        flags = vars(build_parser().parse_args(argv))
        del flags["subcommand"], flags["verbose"]
        assert set(manifest) == {"subcommand", "config", "outputs", "seed", "version",
                                 "duration_seconds"}
        assert manifest["subcommand"] == subcommand
        # Tuples such as --k-list read back as JSON arrays.
        assert manifest["config"] == json.loads(json.dumps(flags))
        assert sorted(manifest["outputs"]) == written
        assert str(path) == manifest["outputs"][0] + ".manifest.json"
        assert manifest["seed"] == (8 if subcommand == "simulate" else None)


class TestLogging:
    def test_verbose_applies_to_its_own_run_only(self, tmp_path, caplog):
        # Three runs in one process: only the --verbose one logs its steps.
        sim = _simulate(tmp_path)
        params = tmp_path / "p.json"
        step_lines = []
        for flags in ([], ["--verbose"], []):
            caplog.clear()
            code = run([*flags, "fit", "--model", "pbm", "--sessions",
                        str(sim / "sessions.jsonl"), "--out", str(params)])
            assert code == EXIT_OK
            step_lines.append(sum(" loglik " in r.getMessage() for r in caplog.records))
        report = json.loads((tmp_path / "p.json.report.json").read_text())
        assert report["iterations"] > 0
        assert step_lines == [0, report["iterations"], 0]


# The intentclick modules, and numpy, that each subcommand must not import.
NOT_IMPORTED = {
    "ingest": {"models", "inference", "evaluate", "simulate", "intent", "reports"},
    "simulate": {"inference", "intent", "evaluate", "reports"},
    "classify": {"models", "inference", "evaluate", "simulate", "reports"},
    "fit": {"evaluate", "intent", "simulate", "reports"},
    "eval": {"inference", "intent", "simulate"},
    "compare": {"numpy", "sessions", "models", "inference", "evaluate", "simulate", "intent"},
}

# Runs cli.run(argv) and prints its exit code and the loaded modules as
# the last line of stdout.
_RUN_AND_LIST_MODULES = (
    "import json, sys\n"
    "from intentclick import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)


class TestImports:
    def test_each_subcommand_imports_only_what_it_runs(self, pipeline_inputs, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        procs = {}
        # One fresh interpreter per subcommand, all started at once; each is
        # waited for, and its pipes closed, even if an assertion fails.
        with contextlib.ExitStack() as stack:
            for subcommand in NOT_IMPORTED:
                out = tmp_path / subcommand
                out.mkdir()
                argv = MANIFEST_RUNS[subcommand](pipeline_inputs, out)
                procs[subcommand] = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv], env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for subcommand, proc in procs.items():
                stdout, stderr = proc.communicate(timeout=120)
                assert proc.returncode == 0, stderr
                code, modules = json.loads(stdout.splitlines()[-1])
                assert code == EXIT_OK, stderr
                loaded = {m.removeprefix("intentclick.") for m in modules
                          if m == "numpy" or m.startswith("intentclick.")}
                assert not loaded & NOT_IMPORTED[subcommand], subcommand

    def test_lazy_names_bind_when_read_off_cli(self, monkeypatch):
        # Each name read off cli before any run() has bound it, as a wrapper
        # installed before the first run reads it.
        for module_name, names in cli._LAZY_NAMES.items():
            module = importlib.import_module(f"intentclick.{module_name}")
            for name in names:
                monkeypatch.delattr(cli, name)
                assert getattr(cli, name) is getattr(module, name), name
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    def test_reading_a_name_imports_only_its_module(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        code = ("import json, sys\nfrom intentclick import cli\ncli.read_sessions\n"
                "print(json.dumps(sorted(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        modules = set(json.loads(proc.stdout))
        assert "intentclick.sessions" in modules
        assert not modules & {"intentclick.inference", "intentclick.models"}

    def test_public_names_resolve(self):
        for name in intentclick.__all__:
            assert getattr(intentclick, name) is not None, name
        namespace: dict = {}
        exec("from intentclick import *", namespace)
        assert set(intentclick.__all__) <= set(namespace)
        assert set(intentclick.__all__) <= set(dir(intentclick))
        with pytest.raises(AttributeError):
            intentclick.no_such_name


# Runs cli.main() as the console script does, with cli.run wrapped to note
# the collector's frozen-object count as run() starts and returns, and
# prints those, the count at exit and whether the collector is on.
_MAIN_FREEZE_COUNTS = (
    "import atexit, gc, json, sys\n"
    "from intentclick import cli\n"
    "counts, real_run = [], cli.run\n"
    "def run(argv=None):\n"
    "    counts.append(gc.get_freeze_count())\n"
    "    code = real_run(argv)\n"
    "    counts.append(gc.get_freeze_count())\n"
    "    return code\n"
    "cli.run = run\n"
    "atexit.register(lambda: print(json.dumps([*counts, gc.get_freeze_count(), gc.isenabled()])))\n"
    "sys.argv[0] = 'intentclick'\n"
    "cli.main()\n"
)


def _written_files(root: Path) -> dict:
    """Every file under root by relative path: its bytes, or for a
    manifest its JSON without the run's duration."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["duration_seconds"]
            files[path.relative_to(root)] = manifest
        else:
            files[path.relative_to(root)] = path.read_bytes()
    return files


class TestProcessPath:
    """A stage run as its own process, as ``python -m intentclick.cli`` and
    the console script run it, against cli.run in-process."""

    def test_process_writes_what_run_writes(self, pipeline_inputs, tmp_path, monkeypatch,
                                            capsys, caplog):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        # Output paths are relative, so both sides write and print the same text.
        cases = {name: argv(pipeline_inputs, ".") for name, argv in MANIFEST_RUNS.items()}
        cases["usage-error"] = ["fit", "--model", "pbm"]
        cases["data-error"] = ["compare", "--base", "missing.json", "--treat", "missing.json"]
        procs, codes = {}, {}
        # One fresh interpreter per case, all started at once; each is
        # waited for, and its pipes closed, even if an assertion fails.
        with contextlib.ExitStack() as stack:
            for name, argv in cases.items():
                cwd = tmp_path / "process" / name
                cwd.mkdir(parents=True)
                procs[name] = stack.enter_context(subprocess.Popen(
                    [sys.executable, "-m", "intentclick.cli", *argv], cwd=cwd, env=env,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            for name, argv in cases.items():
                cwd = tmp_path / "in-process" / name
                cwd.mkdir(parents=True)
                monkeypatch.chdir(cwd)
                caplog.clear()
                codes[name] = run(argv)
                out, err = capsys.readouterr()
                # A separate process logs to stderr; under pytest the records go to caplog.
                logged = "".join(f"{r.levelname} {r.name}: {r.getMessage()}\n"
                                 for r in caplog.records)
                stdout, stderr = procs[name].communicate(timeout=120)
                assert procs[name].returncode == codes[name], (name, stderr)
                assert stdout == out, name
                assert stderr == logged + err, name
                assert _written_files(tmp_path / "process" / name) == _written_files(cwd), name
        assert set(codes.values()) == {EXIT_OK, EXIT_USAGE, EXIT_DATA}
        assert codes["usage-error"] == EXIT_USAGE and codes["data-error"] == EXIT_DATA

    def test_main_freezes_at_entry_and_before_exit(self, pipeline_inputs, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        argv = MANIFEST_RUNS["compare"](pipeline_inputs, tmp_path)
        proc = subprocess.run([sys.executable, "-c", _MAIN_FREEZE_COUNTS, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        at_start, at_return, at_exit, enabled = json.loads(proc.stdout.splitlines()[-1])
        assert at_start > 0
        # The stage's own objects are frozen too, after run() returned.
        assert at_exit > at_return
        assert enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, pipeline_inputs, tmp_path, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert run(MANIFEST_RUNS["fit"](pipeline_inputs, tmp_path)) == EXIT_OK
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_only_main_calls_the_collector(self):
        uses = []
        for path in sorted(Path(intentclick.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    uses += [(path.stem, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Name) and node.id == "gc"]
        assert uses == [("cli", "main"), ("cli", "main")]


class TestErrorKinds:
    def test_exception_classes_are_the_exit_code_kinds(self):
        """One exception class per exit code: DataError, its LineError and
        NumericError in common, UsageError in cli, and none elsewhere; any
        other failure raises a built-in exception."""
        classes = {}
        for path in sorted(Path(intentclick.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    classes[path.stem, node.name] = {
                        base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                        for base in node.bases}
        # A class is an exception if a base is a built-in exception, is
        # named as one, or is a class of the package found to be one.
        names = {name for name, value in vars(builtins).items()
                 if isinstance(value, type) and issubclass(value, BaseException)}
        found: set = set()
        while True:
            more = {key for key, bases in classes.items()
                    if any(base in names or base.endswith(("Error", "Exception", "Warning"))
                           for base in bases)} - found
            if not more:
                break
            found |= more
            names |= {name for _, name in more}
        assert found == {("common", "DataError"), ("common", "LineError"),
                         ("common", "NumericError"), ("cli", "UsageError")}


def _nested_json(depth: int = 100_000) -> str:
    return "[" * depth + "]" * depth


class TestDeeplyNestedJson:
    """JSON nested too deeply to decode is a data error, not a RecursionError."""

    def test_compare_report(self, pipeline_inputs, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(_nested_json())
        code = run(["compare", "--base", str(deep), "--treat", str(pipeline_inputs / "r.json"),
                    "--out", str(tmp_path / "c.txt")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid report document: ")
        assert "Traceback" not in err

    def test_eval_params(self, pipeline_inputs, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(_nested_json())
        code = run(["eval", "--params", str(deep), "--sessions",
                    str(pipeline_inputs / "sim" / "sessions.jsonl"), "--out", str(tmp_path / "e")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: invalid parameter document: ")

    def test_fit_sessions_names_the_line(self, pipeline_inputs, tmp_path, capsys):
        first = (pipeline_inputs / "sim" / "sessions.jsonl").read_text().splitlines()[0]
        deep = tmp_path / "deep.jsonl"
        deep.write_text(first + "\n" + _nested_json() + "\n")
        code = run(["fit", "--model", "pbm", "--sessions", str(deep),
                    "--out", str(tmp_path / "p.json")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: line 2: invalid JSON: ")


class TestRepeatedJsonKeys:
    """A key repeated in one JSON object is a data error: json would keep
    the last value and drop the first silently."""

    def test_compare_report_ndcg(self, tmp_path, capsys):
        base, treat = tmp_path / "base.json", tmp_path / "treat.json"
        base.write_text(json.dumps(GOOD_REPORT))
        # json.dumps cannot repeat a key, so the repeat is spliced into its text.
        treat.write_text(json.dumps(GOOD_REPORT).replace('"ndcg": {"1": 0.5}',
                                                         '"ndcg": {"1": 0.2, "1": 0.9}'))
        out = tmp_path / "cmp.txt"
        code = run(["compare", "--base", str(base), "--treat", str(treat), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: invalid report document: key '1' repeated in one object\n"
        assert not out.exists()

    def test_eval_params_pair(self, pipeline_inputs, tmp_path, capsys):
        text = (pipeline_inputs / "p.json").read_text()
        pair = next(iter(json.loads(text)["params"]["rel"]))
        repeat = json.dumps({pair: 0.25})[1:-1]
        params = tmp_path / "p.json"
        params.write_text(text.replace('"rel": {', '"rel": {' + repeat + ",", 1))
        code = run(["eval", "--params", str(params), "--sessions",
                    str(pipeline_inputs / "sim" / "sessions.jsonl"), "--out", str(tmp_path / "e")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: invalid parameter document: key {pair!r} repeated in one object\n"
        assert not (tmp_path / "e").exists()

    def test_fit_session_clicks_names_the_line(self, pipeline_inputs, tmp_path, capsys):
        lines = (pipeline_inputs / "sim" / "sessions.jsonl").read_text().splitlines()
        flipped = [1 - c for c in json.loads(lines[1])["clicks"]]
        lines[1] = lines[1].replace('{"clicks": ', f'{{"clicks": {flipped}, "clicks": ', 1)
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("\n".join(lines) + "\n")
        code = run(["fit", "--model", "pbm", "--sessions", str(repeated),
                    "--out", str(tmp_path / "p.json")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "data error: line 2: invalid JSON: key 'clicks' repeated in one object\n"
        assert not (tmp_path / "p.json").exists()


# Besides non-numbers, perplexities eval cannot write: above 1e12, below 1,
# and just above 1 next to a huge one.
_NUMBERS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 1e300, 1.0,
                                      1.0000000000001, 0.5]),
                     st.integers(-10**400, 10**400), st.floats())
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# Each report field: a value of the right shape or any JSON value.
_REPORT_FIELDS = {
    "per_position": st.lists(_NUMBERS, max_size=3),
    "position_counts": st.lists(st.integers(-1, 3), max_size=3),
    "overall": _NUMBERS,
    "n_sessions": st.integers(-1, 3),
    "n_queries": st.integers(-1, 3),
    "ndcg": st.dictionaries(st.sampled_from(["1", "3", "-1", "01", "x"]), _NUMBERS, max_size=2),
    "ndcg_queries": st.integers(-1, 3),
    "label": st.text(max_size=4),
}
# New values for the fields that leave a report comparable with GOOD_REPORT.
_VALUE_FIELDS = {
    "per_position": st.lists(_NUMBERS, min_size=2, max_size=2),
    "overall": _NUMBERS,
    "ndcg": st.fixed_dictionaries({"1": _NUMBERS}),
    "label": st.text(max_size=4),
}


@st.composite
def _report_texts(draw, values_only=False):
    """The text of a report file: GOOD_REPORT with some fields replaced,
    dropped or mistyped, any JSON value, or a document cut short; with
    values_only, GOOD_REPORT with new values in some of _VALUE_FIELDS."""
    fields = _VALUE_FIELDS if values_only else _REPORT_FIELDS
    doc = dict(GOOD_REPORT)
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=3)):
        change = "shape" if values_only else draw(st.sampled_from(["shape", "any", "drop"]))
        if change == "drop":
            del doc[key]
        else:
            doc[key] = draw(fields[key] if change == "shape" else _JSON)
    if values_only:
        return json.dumps(doc)
    text = json.dumps(draw(_JSON) if draw(st.integers(0, 4)) == 4 else doc)
    if draw(st.integers(0, 9)) == 9:
        text = text[:draw(st.integers(0, len(text)))]
    return text


class TestCompareFuzz:
    """compare never crashes, never reports a NaN cell and never an
    infinite improvement."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.booleans().flatmap(_report_texts), st.booleans().flatmap(_report_texts))
    def test_exits_cleanly_without_nan(self, base_text, treat_text):
        with tempfile.TemporaryDirectory() as tmp:
            base, treat, out = Path(tmp) / "b.json", Path(tmp) / "t.json", Path(tmp) / "c.txt"
            base.write_text(base_text)
            treat.write_text(treat_text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(["compare", "--base", str(base), "--treat", str(treat),
                            "--out", str(out)])
            improvements, deltas = [], []
            if code == EXIT_OK:
                doc = json.loads(Path(f"{out}.json").read_text())
                improvements = [*doc["improvements"], doc["overall_improvement"]]
                deltas = list(doc["ndcg_deltas"].values())
        assert code in (EXIT_OK, EXIT_DATA)
        assert "Traceback" not in stderr.getvalue()
        assert all(map(math.isfinite, improvements))
        assert not any(math.isnan(c) for c in deltas)


# argv per reader, with the file to read at f; d is the inputs directory.
READER_RUNS = {
    "judgments": lambda d, f, o: ["eval", "--params", f"{d}/p.json", "--sessions",
                                  f"{d}/sim/sessions.jsonl", "--judgments", str(f),
                                  "--out", f"{o}/e.json"],
    "intents": lambda d, f, o: ["fit", "--model", "pbm", "--intent-aware", "--sessions",
                                f"{d}/sim/sessions.jsonl", "--intents", str(f),
                                "--out", f"{o}/p.json", "--max-iters", "2"],
    "aol": lambda d, f, o: ["ingest", "--aol", str(f), "--out", f"{o}/s.jsonl"],
    "sessions": lambda d, f, o: ["fit", "--model", "pbm", "--intent-aware", "--sessions", str(f),
                                 "--out", f"{o}/p.json", "--max-iters", "2"],
}


class TestUnusablePaths:
    """A path that cannot be read or written, such as a directory, is a
    data error, not a traceback."""

    @pytest.mark.parametrize("argv", [
        lambda d, o: ["eval", "--params", str(o), "--sessions", f"{d}/sim/sessions.jsonl",
                      "--out", f"{o}/e.json"],
        lambda d, o: ["fit", "--model", "pbm", "--sessions", str(o), "--out", f"{o}/p.json"],
        # --tol 1 stops the fit after one step, with no warning on stderr.
        lambda d, o: ["fit", "--model", "pbm", "--sessions", f"{d}/sim/sessions.jsonl",
                      "--out", str(o), "--tol", "1"],
        # The run's outputs are written, then the manifest cannot be.
        lambda d, o: ["fit", "--model", "pbm", "--sessions", f"{d}/sim/sessions.jsonl",
                      "--out", f"{o}/manifest-is-a-dir", "--tol", "1"],
    ], ids=["eval-params-dir", "fit-sessions-dir", "fit-out-dir", "manifest-dir"])
    def test_unusable_path_is_a_data_error(self, pipeline_inputs, tmp_path, capsys, argv):
        (tmp_path / "manifest-is-a-dir.manifest.json").mkdir()
        assert run(argv(pipeline_inputs, tmp_path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "Traceback" not in err


class TestEmptyPathFlags:
    """An optional path flag given as "" names a path that cannot be read
    or written, a data error; it is not the flag left out."""

    @pytest.mark.parametrize("argv", [
        lambda d, o: ["eval", "--params", f"{d}/p.json", "--sessions",
                      f"{d}/sim/sessions.jsonl", "--out", f"{o}/e.json", "--judgments", ""],
        lambda d, o: ["eval", "--params", f"{d}/p.json", "--sessions",
                      f"{d}/sim/sessions.jsonl", "--out", f"{o}/e.json", "--intents", ""],
        lambda d, o: ["fit", "--model", "pbm", "--sessions", f"{d}/sim/sessions.jsonl",
                      "--out", f"{o}/p.json", "--max-iters", "2", "--intents", ""],
        lambda d, o: ["classify", "--sessions", f"{d}/aol.jsonl", "--out", f"{o}/l.tsv",
                      "--lexicon", ""],
        lambda d, o: ["classify", "--sessions", f"{d}/aol.jsonl", "--out", f"{o}/l.tsv",
                      "--train-labels", ""],
        lambda d, o: ["classify", "--sessions", f"{d}/aol.jsonl", "--out", f"{o}/l.tsv",
                      "--train-labels", f"{d}/seed.tsv", "--model-out", ""],
    ], ids=["eval-judgments", "eval-intents", "fit-intents", "classify-lexicon",
            "classify-train-labels", "classify-model-out"])
    def test_empty_path_is_a_data_error(self, pipeline_inputs, tmp_path, capsys, argv):
        assert run(argv(pipeline_inputs, tmp_path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "Traceback" not in err

    def test_empty_model_out_without_train_labels_is_a_usage_error(self, pipeline_inputs,
                                                                    tmp_path):
        assert run(["classify", "--sessions", f"{pipeline_inputs}/aol.jsonl",
                    "--out", f"{tmp_path}/l.tsv", "--model-out", ""]) == EXIT_USAGE


class TestReaderErrors:
    """Each malformed input file is a data error naming what is wrong."""

    @pytest.mark.parametrize("reader, text, message", [
        ("judgments", "q0000\tq0000_d01\n", "line 1: expected 3 fields, got 2"),
        ("judgments", "q0000\tq0000_d01\t3\nq0000\tq0000_d02\tgood\n",
         "line 2: bad grade 'good'"),
        ("judgments", "q0000\tq0000_d01\t+3\n", "line 1: bad grade '+3'"),
        ("judgments", "q0000\tq0000_d01\t \u0663\n", "line 1: bad grade ' \u0663'"),
        ("judgments", "q0000\tq0000_d01\t1\nq0000\tq0000_d02\t2 \n",
         "line 2: bad grade '2 '"),
        ("intents", "q0000\tnav\tq0001\n", "line 1: expected 2 fields, got 3"),
        ("intents", "q0000\tnav\nq0001\tshopping\n", "line 2: unknown intent label 'shopping'"),
        ("aol", "u1\tmapquest\t2006-03-01 07:17:12\t0\thttp://www.mapquest.com\n",
         "item_rank must be positive, got 0"),
        # More digits than int() converts: still a malformed line, not a crash.
        ("aol", f"u1\tmapquest\t2006-03-01 07:17:12\t{'9' * 5000}\thttp://www.mapquest.com\n",
         "line 1: bad rank '9999"),
        # A JSON integer of more digits than int() converts names its line too.
        ("sessions", '{"session_id": "s", "query_id": "q", "intent": "unk", "docs": ["a"], '
         f'"clicks": [{"1" * 5000}]}}\n', "line 1: invalid JSON: Exceeds the limit"),
    ], ids=["judgments-field-count", "judgments-grade", "judgments-grade-plus",
            "judgments-grade-arabic-indic", "judgments-grade-trailing-space",
            "intents-field-count", "intents-label", "aol-rank-zero", "aol-rank-too-long",
            "sessions-int-too-long"])
    def test_is_a_data_error(self, pipeline_inputs, tmp_path, capsys, reader, text, message):
        path = tmp_path / "input.tsv"
        path.write_text(text)
        assert run(READER_RUNS[reader](pipeline_inputs, path, tmp_path)) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["input.tsv"]

    def test_eval_on_a_file_without_sessions(self, pipeline_inputs, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        out = tmp_path / "e.json"
        assert run(["eval", "--params", f"{pipeline_inputs}/p.json", "--sessions", str(empty),
                    "--out", str(out)]) == EXIT_DATA
        assert f"no sessions in {empty}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_eval_on_a_file_without_judgments(self, pipeline_inputs, tmp_path, capsys, text):
        path = tmp_path / "input.tsv"
        path.write_text(text)
        assert run(READER_RUNS["judgments"](pipeline_inputs, path, tmp_path)) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: no judgments in {path}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["input.tsv"]

    def test_numeric_failure_exits_3(self, pipeline_inputs, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericError("log-likelihood became non-finite (nan)")

        monkeypatch.setattr(cli, "em_fit", fail)
        out = tmp_path / "p.json"
        assert run(["fit", "--model", "pbm", "--sessions", f"{pipeline_inputs}/sim/sessions.jsonl",
                    "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: log-likelihood became non-finite (nan)\n"
        assert not out.exists()


def _one_class_seed_labels(d, o):
    (o / "seed.tsv").write_text("mapquest\tnav\nweather\tnav\n")
    return ["classify", "--sessions", f"{d}/aol.jsonl", "--out", f"{o}/l.tsv",
            "--train-labels", f"{o}/seed.tsv"]


def _eval_on_wider_sessions(d, o):
    short = _simulate(o, "short", extra=["--positions", "3", "--queries", "2",
                                         "--sessions-per-query", "5"])
    assert run(["fit", "--model", "pbm", "--sessions", str(short / "sessions.jsonl"),
                "--out", f"{o}/p3.json", "--max-iters", "2"]) == EXIT_OK
    return ["eval", "--params", f"{o}/p3.json", "--sessions", f"{d}/sim/sessions.jsonl",
            "--out", f"{o}/e.json"]


def _judgments_file(text):
    def argv(d, o):
        (o / "j.tsv").write_text(text)
        return READER_RUNS["judgments"](d, o / "j.tsv", o)
    return argv


def _compare_with_fewer_positions(d, o):
    (o / "three.json").write_text(json.dumps({**GOOD_REPORT, "per_position": [1.5, 1.2, 1.1],
                                              "position_counts": [2, 3, 1]}))
    (o / "four.json").write_text(json.dumps({**GOOD_REPORT, "per_position": [1.5, 1.2, 1.1, 1.0],
                                             "position_counts": [2, 3, 1, 1]}))
    return ["compare", "--base", f"{o}/four.json", "--treat", f"{o}/three.json",
            "--out", f"{o}/c.txt"]


class TestErrorTexts:
    """The whole stderr line and the exit code of errors raised as a
    ValueError or a DataError deep in a stage."""

    @pytest.mark.parametrize("argv, line", [
        (_one_class_seed_labels, "data error: training needs at least 2 distinct classes"),
        (_eval_on_wider_sessions, "data error: session length 4 exceeds max_positions 3"),
        (_judgments_file("q0000\tq0000_d01\t5\n"),
         "data error: line 1: grade 5 out of range [0, 4] for (q0000, q0000_d01)"),
        (_judgments_file("q0000\tq0000_d01\t1\nq0000\tq0000_d01\t2\n"),
         "data error: line 2: duplicate judgment for ('q0000', 'q0000_d01')"),
        (_compare_with_fewer_positions, "data error: position counts differ: 4 vs 3"),
    ], ids=["classify-one-class", "eval-wider-sessions", "judgment-grade-range",
            "judgment-duplicate", "compare-position-counts"])
    def test_exit_code_and_stderr(self, pipeline_inputs, tmp_path, capsys, argv, line):
        args = argv(pipeline_inputs, tmp_path)
        capsys.readouterr()
        assert run(args) == EXIT_DATA
        assert capsys.readouterr().err == line + "\n"


# Pieces of judgment and intent-label lines: the simulated log's ids and
# others, good and bad grades and labels, the good ones three times as
# likely. A lone surrogate is written as bytes that are not UTF-8.
_READER_IDS = st.sampled_from(["q0000", "q0001", "q0000_d01", "q0001_d02"] * 3
                              + ["", "x", "é", "\ud800"])
_GRADES = st.sampled_from(["0", "2", "4"] * 8 + ["5", "-1", "x", "1.0", "３", " 3", "", "9" * 20])
_LABELS = st.sampled_from(["inf", "nav", "tra", "unk"] * 3 + ["NAV", "x", "", " inf"])


@st.composite
def _reader_lines(draw, n_ids, last_field):
    """Lines of n_ids ids and a last field, as in the judgments (two ids and
    a grade) and intent-label (a query and a label) formats; now and then
    another field count, a repeated line or a blank one."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.sampled_from([n_ids] * 6 + [n_ids - 1, n_ids + 1]))
        line = "\t".join([*(draw(_READER_IDS) for _ in range(count)), draw(last_field)])
        lines += [line] * draw(st.sampled_from([1] * 5 + [2])) + [""] * draw(st.integers(0, 1))
    return lines


# Good values of each session-record field, then values that break the
# schema (types, lengths, 0/1 clicks, distinct docs, a tab in the query id).
_SESSION_FIELDS = {
    "session_id": (["s1", "s2", "é\ud800"], [None, 3, ["s"]]),
    "query_id": (["q0", "q1", "\U0001f600"], ["q\t0", None, 5, {}]),
    "intent": (["inf", "nav", "tra", "unk"], ["NAV", 0, None]),
    "docs": ([["a", "b"], ["b"], [], ["c", "a", "d"]],
             [["a", "a"], ["a", 1], "ab", [None], [["a"]]]),
    "clicks": ([], [[2], [True], [1.0], [-1], "1", None]),
}


@st.composite
def _session_lines(draw):
    """Lines of session records, each with aligned docs and clicks but one
    time in four a bad field value or a field dropped; now and then JSON
    that is not a session, a truncated line or a blank one."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        record = {key: draw(st.sampled_from(good)) for key, (good, _) in _SESSION_FIELDS.items()
                  if good}
        record["clicks"] = [draw(st.sampled_from([0, 1])) for _ in record["docs"]]
        if draw(st.integers(0, 3)) == 3:
            key = draw(st.sampled_from(sorted(_SESSION_FIELDS)))
            if draw(st.integers(0, 5)) == 5:
                del record[key]
            else:
                record[key] = draw(st.sampled_from(_SESSION_FIELDS[key][1]))
        line = json.dumps(draw(_JSON) if draw(st.integers(0, 9)) == 9 else record)
        if draw(st.integers(0, 9)) == 9:
            line = line[:draw(st.integers(0, len(line)))]
        lines += [line] + [""] * draw(st.integers(0, 1))
    return lines


class TestReaderFuzz:
    """eval never crashes on a judgments file, nor fit on an intent-label
    or a sessions file: any such file exits 0 or 2, with no traceback."""

    @staticmethod
    def _exits_cleanly(pipeline_inputs, reader, lines, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.tsv"
            text = "".join(line + newline for line in lines)
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(READER_RUNS[reader](pipeline_inputs, path, tmp))
        assert code in (EXIT_OK, EXIT_DATA)
        assert "Traceback" not in stderr.getvalue()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_reader_lines(2, _GRADES), st.sampled_from(["\n", "\r\n"]))
    def test_judgments(self, pipeline_inputs, lines, newline):
        self._exits_cleanly(pipeline_inputs, "judgments", lines, newline)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_reader_lines(1, _LABELS), st.sampled_from(["\n", "\r\n"]))
    def test_intent_labels(self, pipeline_inputs, lines, newline):
        self._exits_cleanly(pipeline_inputs, "intents", lines, newline)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_session_lines(), st.sampled_from(["\n", "\r\n"]))
    def test_sessions(self, pipeline_inputs, lines, newline):
        self._exits_cleanly(pipeline_inputs, "sessions", lines, newline)


# A valid parameter table set of each kind for the simulated log of
# pipeline_inputs (4 positions).
_PAIR = "q0000\tq0000_d01"
_GOOD_PARAMS = {
    "pbm": {"exam": {"1": 0.9, "2": 0.7, "3": 0.5, "4": 0.3}, "rel": {_PAIR: 0.6},
            "max_positions": 4},
    "ubm": {"beta": {f"{last}:{pos}": 0.5 for last in range(4) for pos in range(last + 1, 5)},
            "rel": {_PAIR: 0.6}, "max_positions": 4},
    "cascade": {"rel": {_PAIR: 0.6}},
    "dbn": {"rel": {_PAIR: 0.6}, "sat": {_PAIR: 0.4}, "gamma_cont": 0.9},
}
# Values and keys that a parameter document must not hold, or holds only
# in some places: NaN, infinities, bools, ints too large for a float,
# numbers outside [0, 1], other types, and pair, position and cell keys
# of the wrong shape or range.
_ODD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, 0, -1, 10**6,
                               10**400, -10**400, 1e300, 1.5, -0.5, 0.5, "0.5", [], {}])
_ODD_KEYS = st.sampled_from(["q0000", "", "\t", _PAIR, "q0000\tq0000_d01\tx", "0", "5", "-1",
                             "01", "x", "٣", "0:0", "0:1", "4:5", "-1:2", "a:b", "1:2:3",
                             "inf", "nav", "tra", "unk", "params", "max_positions"])


@st.composite
def _params_docs(draw):
    """A parameter document of any kind, base or intent-aware, and whether
    it is still the valid one: up to three times a field or table entry is
    dropped, given an odd value, or an odd key is added or renames one, or
    a table set gets an odd max_positions."""
    kind = draw(st.sampled_from(sorted(_GOOD_PARAMS)))
    doc = {"version": 1, "kind": kind, "intent_aware": draw(st.booleans())}
    if doc["intent_aware"]:
        doc["per_intent"] = {t: copy.deepcopy(_GOOD_PARAMS[kind]) for t in ("inf", "nav", "tra")}
        doc["fallback"] = copy.deepcopy(_GOOD_PARAMS[kind])
        params = [*doc["per_intent"].values(), doc["fallback"]]
        targets = [doc, doc["per_intent"], *params]
    else:
        doc["params"] = copy.deepcopy(_GOOD_PARAMS[kind])
        params = [doc["params"]]
        targets = [doc, *params]
    targets += [table for p in params for table in p.values() if isinstance(table, dict)]
    changes = draw(st.integers(0, 3))
    for _ in range(changes):
        target = draw(st.sampled_from(targets))
        change = draw(st.sampled_from(["drop", "value", "add", "rename", "size"]))
        if change == "size":
            draw(st.sampled_from(params))["max_positions"] = draw(
                st.sampled_from([0, -1, -3, 3, 5, 10**6, 10**400]))
        elif change in ("drop", "rename") and target:
            value = target.pop(draw(st.sampled_from(sorted(target))))
            if change == "rename":
                target[draw(_ODD_KEYS)] = value
        elif change == "value" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(_ODD_VALUES)
        else:
            target[draw(_ODD_KEYS)] = draw(st.sampled_from([0.5, 0.1]) | _ODD_VALUES | _JSON)
    return json.dumps(doc), changes == 0


class TestParamsFuzz:
    """eval never crashes on a parameter document: a malformed one is a data
    error with no traceback, and a valid one evaluates."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_params_docs(), st.booleans())
    def test_exits_cleanly(self, pipeline_inputs, doc_and_valid, judged):
        text, valid = doc_and_valid
        sim = pipeline_inputs / "sim"
        with tempfile.TemporaryDirectory() as tmp:
            params = Path(tmp) / "p.json"
            params.write_text(text)
            argv = ["eval", "--params", str(params), "--sessions", str(sim / "sessions.jsonl"),
                    "--out", f"{tmp}/e.json"]
            if judged:
                argv += ["--judgments", str(sim / "judgments.tsv")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run(argv)
        assert code == EXIT_OK if valid else code in (EXIT_OK, EXIT_DATA)
        assert "Traceback" not in stderr.getvalue()
