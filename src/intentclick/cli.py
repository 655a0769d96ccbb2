"""Command-line pipelines: ingest, simulate, classify, fit, eval, compare.

Every run writes a manifest (the parsed flags, every output, seed, version,
duration) beside its primary output so deterministic subcommands can be
reproduced byte-for-byte. Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric failure. A stage that runs out of memory is a data error
(exit 2), as a full disk is: the input is too large for the memory the
stage may use.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import logging
import sys
import time
from dataclasses import replace
from datetime import timedelta
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from . import __version__
from .common import (DEFAULT_GAP_MINUTES, DEFAULT_INTENT_MIX, DEFAULT_K_LIST, DEFAULT_MAX_ITERS,
                     DEFAULT_MAX_POSITIONS, DEFAULT_TOL, INTENT_MIX_RULE, MODEL_KINDS, DataError,
                     NumericError, is_intent_mix, write_json)

# The names the commands take from the package's modules, by module.
# run() imports only the modules its subcommand needs (see _COMMANDS) and
# binds their names here before it dispatches, keeping any already bound;
# __getattr__ binds a module's names when one is read off this module
# first. Either way the commands look every name up in this module.
# No command calls alternating_fit; perfbench/trace_stages.py wraps it here.
_LAZY_NAMES = {
    "sessions": ("Intent", "attach_intents", "group_by_query", "read_aol_log",
                 "read_intent_labels", "read_judgments", "read_sessions", "sessionize",
                 "write_intent_labels", "write_judgments", "write_sessions"),
    "models": ("IntentAwareParams", "load_params", "save_params"),
    "inference": ("EmConfig", "alternating_fit", "em_fit"),
    "simulate": ("SimConfig", "click_behavior_preset", "generate_ground_truth", "session_ids",
                 "simulate_sessions"),
    "intent": ("classify", "clicked_url_counts", "extract_features", "load_lexicon",
               "rule_label", "save_classifier", "train_classifier"),
    "evaluate": ("evaluate_model",),
    "reports": ("compare_models", "format_comparison_table", "format_report", "load_report",
                "save_report"),
}


def _bind(module_name: str) -> None:
    module = importlib.import_module(f".{module_name}", __package__)
    for name in _LAZY_NAMES[module_name]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for module_name, names in _LAZY_NAMES.items():
        if name in names:
            _bind(module_name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """A bad command line. ``usage`` is the usage text of the (sub)parser
    that refused it, or empty when a command refused its flags."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _flag_type(cast, ok, rule: str, noun: str):
    """An argparse type: ``cast(text)``, refused as a bad ``noun`` if the
    cast fails and as breaking ``rule`` if ``ok`` is false of the value."""
    def parse(text: str):
        try:
            value = cast(text)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"bad {noun} {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_positive_int = _flag_type(int, lambda value: value >= 1, "must be at least 1", "integer")
# A float above 0 and below infinity, written so that NaN fails too.
_positive_finite = _flag_type(float, lambda value: 0 < value < float("inf"),
                              "must be positive and finite", "number")


_intent_mix = _flag_type(lambda text: tuple(map(float, text.split(","))), is_intent_mix,
                         INTENT_MIX_RULE, "intent mix")


def _k_list(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(p) for p in text.split(","))


def _minutes(text: str) -> float:
    """Minutes a timedelta can hold, as a float so that the manifest stays JSON."""
    minutes = float(text)
    timedelta(minutes=minutes)
    return minutes


_gap_minutes = _flag_type(_minutes, lambda gap: gap >= 0, "gap must be at least 0 minutes", "gap")


def build_parser() -> _Parser:
    parser = _Parser(prog="intentclick", description=__doc__)
    parser.add_argument("--verbose", action="store_true",
                        help="log at INFO level: one line per EM step")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="parse an AOL-style TSV log into sessions")
    p.add_argument("--aol", required=True, help="raw five-field TSV log")
    p.add_argument("--out", required=True, help="canonical sessions output (jsonl)")
    p.add_argument("--gap-minutes", type=_gap_minutes, default=DEFAULT_GAP_MINUTES)
    p.add_argument("--max-positions", type=_positive_int, default=DEFAULT_MAX_POSITIONS)

    p = sub.add_parser("simulate", help="generate a synthetic click log")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, default="pbm")
    p.add_argument("--queries", type=_positive_int, default=100)
    p.add_argument("--sessions-per-query", type=_positive_int, default=None,
                   help="default 200; also overrides the preset's 50000")
    p.add_argument("--positions", type=_positive_int, default=DEFAULT_MAX_POSITIONS)
    p.add_argument("--intent-mix", type=_intent_mix, default=DEFAULT_INTENT_MIX)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--intent-aware", action="store_true",
                   help="intent-dependent ground-truth tables")
    p.add_argument("--intents-per-query", action="store_true",
                   help="pin one intent per query instead of sampling per session")
    p.add_argument("--shuffle-serps", action="store_true",
                   help="randomize the served doc order per session")
    p.add_argument("--behavior-preset", action="store_true",
                   help="use the calibrated click-behavior preset (ignores size flags)")

    p = sub.add_parser("classify", help="label query intents")
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True, help="query intent labels (tsv)")
    # A trained classifier reads no lexicon: only rule mode does.
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--train-labels", help="seed labels (tsv) to train a classifier")
    p.add_argument("--model-out", help="where to persist the trained classifier")
    mode.add_argument("--lexicon", help="transactional cue-word lexicon file (rule mode)")

    p = sub.add_parser("fit", help="estimate click-model parameters by EM")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True, help="parameter document (json)")
    p.add_argument("--intent-aware", action="store_true")
    p.add_argument("--alternating", action="store_true", dest="intent_aware",
                   help="a synonym of --intent-aware, kept for older command lines")
    p.add_argument("--intents", help="intent labels (tsv) to attach before fitting")
    p.add_argument("--tol", type=_positive_finite, default=DEFAULT_TOL)
    p.add_argument("--max-iters", type=_positive_int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--max-positions", type=_positive_int, default=None)

    p = sub.add_parser("eval", help="perplexity (and NDCG) of a fitted model")
    p.add_argument("--params", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--out", required=True, help="evaluation report (json)")
    p.add_argument("--judgments", help="editorial judgments (tsv) for NDCG")
    p.add_argument("--intents", help="intent labels (tsv) to attach before evaluating")
    p.add_argument("--k-list", type=_k_list, default=DEFAULT_K_LIST)
    p.add_argument("--label", default="")

    p = sub.add_parser("compare", help="improvement table of one report over another")
    p.add_argument("--base", required=True)
    p.add_argument("--treat", required=True)
    p.add_argument("--out", default="comparison.txt")
    return parser


# Each command returns the files it wrote, primary first, and the seed it used.
Outputs = tuple[list[Path], int | None]


def _handed_over(events: list) -> Iterator:
    """The events in list order, each removed from the list as it is
    handed on, so that the caller drops each one once it is done with it."""
    events.reverse()
    while events:
        yield events.pop()


def _cmd_ingest(args) -> Outputs:
    events = list(read_aol_log(args.aol))
    # Two stable passes give the order of the key (user_id, query_time),
    # ties in file order, without a key tuple per event.
    events.sort(key=attrgetter("query_time"))
    events.sort(key=attrgetter("user_id"))
    result = sessionize(
        _handed_over(events),
        gap_timeout=timedelta(minutes=args.gap_minutes),
        max_positions=args.max_positions,
    )
    out = Path(args.out)
    write_sessions(out, result.sessions, result.session_ids)
    print(
        f"ingested {len(result.sessions)} sessions "
        f"({result.retained_clicks} clicks kept, {result.dropped_clicks} dropped)"
    )
    return [out], None


def _cmd_simulate(args) -> Outputs:
    if args.behavior_preset:
        truth, config = click_behavior_preset()
        if args.sessions_per_query is not None:
            config = replace(config, sessions_per_query=args.sessions_per_query)
    else:
        config = SimConfig(
            model_kind=args.model,
            num_queries=args.queries,
            sessions_per_query=200 if args.sessions_per_query is None else args.sessions_per_query,
            positions=args.positions,
            intent_mix=args.intent_mix,
            seed=args.seed,
            intent_aware=args.intent_aware,
            intents_per_query=args.intents_per_query,
            shuffle_serps=args.shuffle_serps,
        )
        truth = generate_ground_truth(config)
    sessions = simulate_sessions(truth, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [out_dir / "sessions.jsonl", out_dir / "truth_params.json", out_dir / "judgments.tsv"]
    write_sessions(outputs[0], sessions, session_ids(truth, config))
    save_params(outputs[1], truth.params)
    write_judgments(outputs[2], truth.judgments)
    if truth.query_intents is not None:
        outputs.append(out_dir / "intents.tsv")
        write_intent_labels(outputs[3], truth.query_intents)
    print(f"simulated {len(sessions)} sessions into {out_dir}")
    return outputs, config.seed


def _cmd_classify(args) -> Outputs:
    if args.model_out is not None and args.train_labels is None:
        raise UsageError("--model-out needs --train-labels: rule mode trains no classifier")
    by_query = group_by_query(read_sessions(args.sessions))

    # Only the training queries' features are kept: every other query's
    # are computed when it is labelled and dropped once it is.
    def features(q):
        members = by_query[q]
        return extract_features(q, members, clicked_url_counts(members))

    outputs = [Path(args.out)]
    if args.train_labels is not None:
        seed_labels = read_intent_labels(args.train_labels)
        # An unk seed label is no label: the query is classified, not trained on.
        train = {q: features(q) for q in by_query
                 if seed_labels.get(q, Intent.UNKNOWN) is not Intent.UNKNOWN}
        if not train:
            raise DataError("no training labels match any query in the sessions")
        model = train_classifier(list(train.values()), [seed_labels[q] for q in train])
        labels = {q: classify(model, train[q] if q in train else features(q))[0]
                  for q in by_query}
        if args.model_out is not None:
            outputs.append(Path(args.model_out))
            save_classifier(outputs[1], model)
    else:
        lexicon = load_lexicon(args.lexicon) if args.lexicon is not None else None
        labels = {q: rule_label(q, features(q), lexicon) for q in by_query}
    write_intent_labels(outputs[0], labels)
    print(f"labeled {len(labels)} queries")
    return outputs, None


def _routed_sessions(args, intent_aware: bool):
    """The --sessions batch with any --intents labels attached. An
    intent-aware run refuses a batch in which no session has a known
    intent: every session would go to the fallback table."""
    sessions = read_sessions(args.sessions)
    if not sessions:
        raise DataError(f"no sessions in {args.sessions}")
    if args.intents is not None:
        sessions = attach_intents(sessions, read_intent_labels(args.intents))
    if intent_aware and all(intent is Intent.UNKNOWN for intent, _ in sessions.by_intent()):
        raise DataError(f"no session has a known intent: an intent-aware {args.subcommand} "
                        "needs --intents labels for at least one query of the log")
    return sessions


def _cmd_fit(args) -> Outputs:
    sessions = _routed_sessions(args, args.intent_aware)
    params, report = em_fit(
        args.model,
        sessions,
        EmConfig(tol=args.tol, max_iters=args.max_iters),
        intent_aware=args.intent_aware,
        max_positions=args.max_positions,
    )
    out = Path(args.out)
    save_params(out, params)
    report_path = Path(str(out) + ".report.json")
    write_json(report_path, report.to_json())
    status = "converged" if report.converged else "stopped at max iterations"
    print(
        f"fit {args.model} on {len(sessions)} sessions: {status} after "
        f"{report.iterations} iterations (max delta {report.final_delta:.2e})"
    )
    return [out, report_path], None


def _cmd_eval(args) -> Outputs:
    params = load_params(args.params)
    sessions = _routed_sessions(args, isinstance(params, IntentAwareParams))
    judgments = read_judgments(args.judgments) if args.judgments is not None else None
    if judgments is not None and not judgments:
        raise DataError(f"no judgments in {args.judgments}")
    report = evaluate_model(
        params, sessions, judgments=judgments, k_list=args.k_list, label=args.label
    )
    out = Path(args.out)
    save_report(out, report)
    print(format_report(report))
    print(
        f"evaluated {report.n_sessions} sessions over {report.n_queries} queries: "
        f"overall perplexity {report.overall:.4f}"
    )
    return [out], None


def _cmd_compare(args) -> Outputs:
    base = load_report(args.base)
    treat = load_report(args.treat)
    comparison = compare_models(base, treat)
    table = format_comparison_table(comparison)
    print(table)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    json_path = Path(str(out) + ".json")
    write_json(json_path, comparison.to_json())
    return [out, json_path], None


# Each subcommand's function and the _LAZY_NAMES modules it needs.
_COMMANDS = {
    "ingest": (_cmd_ingest, ("sessions",)),
    "simulate": (_cmd_simulate, ("sessions", "models", "simulate")),
    "classify": (_cmd_classify, ("sessions", "intent")),
    "fit": (_cmd_fit, ("sessions", "models", "inference")),
    "eval": (_cmd_eval, ("sessions", "models", "evaluate", "reports")),
    "compare": (_cmd_compare, ("reports",)),
}


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # basicConfig does nothing once the root logger has a handler, so the
        # level is set on the package logger on every run.
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("intentclick").setLevel(logging.INFO if args.verbose else logging.WARNING)
        command, modules = _COMMANDS[args.subcommand]
        for module_name in modules:
            _bind(module_name)
        started = time.monotonic()
        outputs, seed = command(args)
        manifest = {
            "subcommand": args.subcommand,
            "config": {k: v for k, v in vars(args).items() if k not in ("subcommand", "verbose")},
            "outputs": [str(p) for p in outputs],
            "seed": seed,
            "version": __version__,
            "duration_seconds": round(time.monotonic() - started, 6),
        }
        write_json(Path(f"{outputs[0]}.manifest.json"), manifest)
        return EXIT_OK
    except UsageError as exc:
        print(f"{exc.usage}error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        # Reported once this handler is left: that drops the exception and
        # with it the frames that hold the stage's data.
        pass
    print(f"data error: {args.subcommand} ran out of memory", file=sys.stderr)
    return EXIT_DATA


def main() -> None:
    """Run one stage as its own process. Objects alive at either freeze
    live until exit, so the collector need not walk them: not during the
    stage (the interpreter, site, this module), nor at shutdown (the
    stage's data, which the OS frees anyway). run() leaves the caller's
    collector alone."""
    gc.freeze()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
