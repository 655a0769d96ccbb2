"""Log parsing, sessionization, and canonical format round-trips."""

import json
import logging
import math
import re
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from intentclick import sessions as sessions_module
from intentclick.common import DataError, LineError, numbered_lines, write_json
from intentclick.sessions import (
    ALL_INTENTS,
    AOL_TIME_FORMAT,
    Intent,
    Judgments,
    LogEvent,
    Session,
    attach_intents,
    encode_sessions,
    group_by_query,
    normalize_query,
    parse_aol_line,
    read_aol_log,
    read_intent_labels,
    read_judgments,
    read_sessions,
    sessionize,
    write_intent_labels,
    write_judgments,
    write_sessions,
)
from intentclick.simulate import SimConfig, generate_ground_truth, session_ids, simulate_sessions


# Derandomized, a fixed budget and no example database, as test_model_properties'
# PROPERTY_SETTINGS; a timestamp is cheap to check, so the budget is larger.
TIMESTAMP_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# Query text is cheap to check as well.
QUERY_SETTINGS = settings(max_examples=500, deadline=None, derandomize=True, database=None)


def _event(user, query, ts, rank=None, url=None):
    return LogEvent(user, query, datetime(2006, 3, 1, 7, 0) + timedelta(minutes=ts), rank, url)


class TestNormalizeQuery:
    def test_lowercases_and_strips_punctuation(self):
        assert normalize_query("Hello, World!") == "hello world"

    def test_keeps_intra_token_dots(self):
        assert normalize_query("WWW.MapQuest.COM") == "www.mapquest.com"

    def test_drops_edge_dots(self):
        assert normalize_query("algorithms.") == "algorithms"
        assert normalize_query(".hidden files.") == "hidden files"

    def test_collapses_whitespace(self):
        assert normalize_query("  a   b\tc ") == "a b c"

    def test_punctuation_is_deleted_not_spaced(self):
        assert normalize_query("don't stop") == "dont stop"

    def test_every_code_point_matches_the_character_scan(self):
        # Each code point alone, before a dot and after one, the dot's other
        # side alphanumeric: the dot stays iff the code point is alphanumeric.
        # Spaces part the probes, so one text holds many.
        step = 1 << 14
        for start in range(0, sys.maxunicode + 1, step):
            chars = map(chr, range(start, min(start + step, sys.maxunicode + 1)))
            text = " ".join(f"{c} {c}.a a.{c}" for c in chars)
            assert normalize_query(text) == oracles.normalize_query(text), hex(start)

    @given(st.text(st.sampled_from(" ..\t_-'aZ9\u00b2\u00df\u0130\u0663\u00a0") | st.characters()))
    @QUERY_SETTINGS
    def test_random_text_matches_the_character_scan(self, raw):
        assert normalize_query(raw) == oracles.normalize_query(raw)


class TestParseAolLine:
    def test_click_event(self):
        ev = parse_aol_line(
            "u1\tmapquest\t2006-03-01 07:17:12\t1\thttp://www.mapquest.com"
        )
        assert ev.user_id == "u1"
        assert ev.query == "mapquest"
        assert ev.item_rank == 1
        assert ev.click_url == "http://www.mapquest.com"

    def test_query_only_event(self):
        ev = parse_aol_line("u1\tmapquest\t2006-03-01 07:17:12\t\t")
        assert ev.item_rank is None and ev.click_url is None

    def test_four_fields_is_malformed(self):
        with pytest.raises(LineError, match="^line 7: expected 5 tab-separated fields, got 4$"):
            parse_aol_line("u1\tmapquest\t2006-03-01 07:17:12\t", line_no=7)

    def test_bad_timestamp(self):
        with pytest.raises(LineError, match="^bad timestamp 'not-a-time': "):
            parse_aol_line("u1\tq\tnot-a-time\t\t")

    def test_bad_rank(self):
        with pytest.raises(LineError, match="^bad rank 'first'$"):
            parse_aol_line("u1\tq\t2006-03-01 07:17:12\tfirst\thttp://x.com")

    @pytest.mark.parametrize("rank", ["1_0", "+3", "\uff13", "-3", "3.0", "\u00b2", ""],
                             ids=["underscore", "plus", "full-width", "minus", "decimal",
                                  "superscript", "empty"])
    def test_rank_must_be_ascii_digits(self, rank):
        line = f"u1\tq\t2006-03-01 07:17:12\t{rank}\thttp://x.com"
        with pytest.raises(LineError, match=f"^line 5: bad rank {re.escape(repr(rank))}$"):
            parse_aol_line(line, line_no=5)

    def test_rank_with_leading_zero(self):
        assert parse_aol_line("u1\tq\t2006-03-01 07:17:12\t03\thttp://x.com").item_rank == 3

    def test_error_carries_line_number(self):
        with pytest.raises(LineError, match="line 42"):
            parse_aol_line("too\tfew", line_no=42)

    def test_query_empty_after_normalization(self):
        with pytest.raises(LineError, match="^query is empty after normalization$"):
            parse_aol_line("u1\t???\t2006-03-01 07:17:12\t\t")

    def test_queries_are_normalized(self):
        ev = parse_aol_line("u1\tNew York!\t2006-03-01 07:17:12\t\t")
        assert ev.query == "new york"


def _strptime_outcome(raw_time):
    """What the AOL parser must give for a timestamp field: strptime's
    value, or the text of the LineError it raises."""
    raw_time = raw_time.strip()
    try:
        return datetime.strptime(raw_time, AOL_TIME_FORMAT)
    except ValueError as exc:
        return f"bad timestamp {raw_time!r}: {exc}"


def _parsed_outcome(raw_time):
    try:
        return parse_aol_line(f"u1\tq\t{raw_time}\t\t").query_time
    except LineError as exc:
        return str(exc)


# What a mutation puts into the AOL shape "YYYY-MM-DD HH:MM:SS": at a
# separator, another separator or a letter; elsewhere an ASCII, full-width,
# Arabic-Indic or Devanagari digit, a space or a sign.
_SEPARATORS = (4, 7, 10, 13, 16)
_SEPARATOR_CHARS = "T -:+./Z\u00a0"
_DIGIT_CHARS = "0123456789０１９٣१ +-"


@st.composite
def _near_aol_times(draw):
    """An AOL timestamp of year 1 to 9999 with up to three characters
    replaced, and maybe one inserted or deleted."""
    when = datetime(1, 1, 1) + timedelta(seconds=draw(st.integers(0, 315537897599)))
    chars = list(when.strftime("%Y-%m-%d %H:%M:%S").rjust(19, "0"))
    for at in draw(st.lists(st.integers(0, 18), max_size=3)):
        chars[at] = draw(st.sampled_from(_SEPARATOR_CHARS if at in _SEPARATORS else _DIGIT_CHARS))
    edit = draw(st.sampled_from(["none", "none", "insert", "delete"]))
    at = draw(st.integers(0, len(chars) - 1))
    if edit == "insert":
        chars.insert(at, draw(st.sampled_from(_DIGIT_CHARS + _SEPARATOR_CHARS)))
    elif edit == "delete":
        del chars[at]
    return "".join(chars)


class TestAolTimestamps:
    """The parser reads timestamps exactly as datetime.strptime with
    AOL_TIME_FORMAT does, values and error texts alike."""

    @TIMESTAMP_SETTINGS
    @given(_near_aol_times())
    def test_matches_strptime_near_the_aol_shape(self, raw_time):
        assert _parsed_outcome(raw_time) == _strptime_outcome(raw_time)

    @pytest.mark.parametrize("raw_time,expected", [
        ("2006-03-01 07:17:12", datetime(2006, 3, 1, 7, 17, 12)),
        ("２006-03-01 07:17:12", datetime(2006, 3, 1, 7, 17, 12)),
        ("2006-03-01  7:17:12", datetime(2006, 3, 1, 7, 17, 12)),
        ("2006-03-01 24:00:00", None),
        ("2006-02-29 12:00:00", None),
        ("2006-03-01 07:17:60", None),
        ("2006-03-01T07:17:12", None),
        ("2006-03-01", None),
    ], ids=["aol", "full-width-digit", "double-space-before-hour", "hour-24",
            "feb-29-non-leap", "second-60", "t-separator", "date-only"])
    def test_fixed_cases(self, raw_time, expected):
        outcome = _parsed_outcome(raw_time)
        assert outcome == _strptime_outcome(raw_time)
        if expected is None:
            assert outcome.startswith("bad timestamp")
        else:
            assert outcome == expected


class TestReadAolLogMatchesLines:
    def test_events_equal_per_line_parse_with_repeated_queries(self, tmp_path):
        queries = ["New York!", "new york", "NEW  YORK", "new-york", "www.Foo.com.",
                   "www.foo.com", "Ünïcode Café", "ünïcode café?", "new york"]
        lines = [f"u{i % 3}\t{q}\t2006-03-01 07:{i:02d}:00\t{i % 4 or ''}\t"
                 f"{'http://x.com' if i % 4 else ''}\n" for i, q in enumerate(queries * 3)]
        path = tmp_path / "log.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        expected = [parse_aol_line(line, n) for n, line in enumerate(lines, start=1)]
        assert list(read_aol_log(path)) == expected
        assert len({ev.query for ev in expected}) == 4


class TestReadAolLog:
    def test_header_skipped_and_bad_lines_counted(self, tmp_path, caplog):
        path = tmp_path / "log.tsv"
        path.write_text(
            "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            "u1\tmapquest\t2006-03-01 07:17:12\t\t\n"
            "broken line\n"
            "u1\tmapquest\t2006-03-01 07:18:12\t2\thttp://www.mapquest.com\n"
        )
        with caplog.at_level(logging.WARNING, logger="intentclick.sessions"):
            events = list(read_aol_log(path))
        assert len(events) == 2
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "skipped 1 malformed line(s)" in record.getMessage()
        assert "line 3: expected 5 tab-separated fields, got 1" in record.getMessage()

    def test_only_line_one_is_a_header(self, tmp_path, caplog):
        path = tmp_path / "log.tsv"
        path.write_text(
            "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            "AnonID\tmapquest\t2006-03-01 07:17:12\t1\thttp://www.mapquest.com\n"
        )
        with caplog.at_level(logging.WARNING, logger="intentclick.sessions"):
            [event] = read_aol_log(path)
        assert (event.user_id, event.query, event.item_rank) == ("AnonID", "mapquest", 1)
        assert not caplog.records

    def test_events_share_one_string_per_user_id_and_url(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("user7\tmaps\t2006-03-01 07:00:00\t1\thttp://maps.com\n"
                        "user8\tnews\t2006-03-01 07:05:00\t2\thttp://news.com\n"
                        "user7\tnews\t2006-03-01 07:06:00\t1\thttp://maps.com\n"
                        "user8\tmaps\t2006-03-01 08:00:00\t\t\n"
                        "user7\tmaps\t2006-03-01 08:01:00\t3\thttp://news.com\n")
        a, b, c, d, e = read_aol_log(path)
        assert a.user_id is c.user_id is e.user_id and b.user_id is d.user_id
        assert a.click_url is c.click_url and b.click_url is e.click_url
        assert a.user_id != b.user_id and a.click_url != b.click_url

    def test_clean_log_warns_nothing(self, tmp_path, caplog):
        path = tmp_path / "log.tsv"
        path.write_text("u1\tmapquest\t2006-03-01 07:17:12\t\t\n")
        with caplog.at_level(logging.WARNING, logger="intentclick.sessions"):
            assert len(list(read_aol_log(path))) == 1
        assert not caplog.records

    @pytest.mark.parametrize("text", ["", "\n\n", "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"],
                             ids=["empty", "blank", "header-only"])
    def test_log_without_data_lines_yields_nothing(self, tmp_path, caplog, text):
        path = tmp_path / "log.tsv"
        path.write_text(text)
        with caplog.at_level(logging.WARNING, logger="intentclick.sessions"):
            assert list(read_aol_log(path)) == []
        assert not caplog.records

    def test_log_of_only_malformed_lines_is_a_data_error(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("broken line\nu1\tq\tnot-a-time\t\t\n")
        with pytest.raises(DataError, match="all 2 data lines are malformed.*line 1: expected 5"):
            list(read_aol_log(path))


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of the first line; a
    U+FEFF after it is text like any other."""

    @pytest.mark.parametrize("read, text", [
        (read_judgments, "q0000\tq0000_d01\t3\nq0000\tq0000_d02\t0\n"),
        (read_intent_labels, "q0000\tnav\nq0001\tinf\n"),
    ], ids=["judgments", "intent-labels"])
    def test_sidecar_reads_as_without(self, tmp_path, read, text):
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert read(marked) == read(plain)

    def test_aol_header_is_skipped_without_warning(self, tmp_path, caplog):
        path = tmp_path / "log.tsv"
        path.write_text("\ufeffAnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
                        "u1\tmapquest\t2006-03-01 07:17:12\t\t\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="intentclick.sessions"):
            [event] = read_aol_log(path)
        assert not caplog.records
        assert event.user_id == "u1"

    def test_sessions_read_as_without(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_sessions(path, encode_sessions([Session("s1", "q", Intent.UNKNOWN, ("a",), (1,))]),
                       ["s1"])
        marked = tmp_path / "marked.jsonl"
        marked.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        _assert_same_batch(read_sessions(marked), read_sessions(path))

    def test_mark_after_the_first_is_refused(self, tmp_path):
        line = '{"session_id": "s", "query_id": "q", "intent": "unk", "docs": [], "clicks": []}\n'
        path = tmp_path / "s.jsonl"
        path.write_text("\ufeff" + line + "\ufeff" + line, encoding="utf-8")
        with pytest.raises(LineError, match="^line 2: invalid JSON: Unexpected UTF-8 BOM"):
            read_sessions(path)


class TestSessionize:
    def test_clicks_within_timeout_form_one_session(self):
        events = [
            _event("u1", "maps", 0),
            _event("u1", "maps", 5, rank=2, url="maps.com"),
        ]
        result = sessionize(events)
        assert len(result.sessions) == 1
        [(_, _, docs, clicks)] = result.sessions.records()
        assert clicks == [0, 1]
        assert docs[1] == "maps.com"

    def test_query_change_splits_sessions(self):
        events = [_event("u1", "maps", 0), _event("u1", "weather", 1)]
        result = sessionize(events)
        assert len(result.sessions) == 2

    def test_gap_beyond_timeout_splits_sessions(self):
        events = [_event("u1", "maps", 0), _event("u1", "maps", 45)]
        result = sessionize(events, gap_timeout=timedelta(minutes=30))
        assert len(result.sessions) == 2

    def test_gap_of_exactly_the_timeout_keeps_one_session(self):
        # Only a gap longer than the timeout splits a session.
        events = [_event("u1", "maps", 0), _event("u1", "maps", 30, rank=1, url="a.com")]
        result = sessionize(events, gap_timeout=timedelta(minutes=30))
        assert result.session_ids == ["u1:0"]

    def test_first_url_clicked_at_a_rank_is_kept(self):
        events = [
            _event("u1", "maps", 0, rank=2, url="first.com"),
            _event("u1", "maps", 1, rank=2, url="second.com"),
        ]
        result = sessionize(events)
        [(_, _, docs, clicks)] = result.sessions.records()
        assert docs == ["q:maps:pos1", "first.com"]
        assert clicks == [0, 1]
        assert result.retained_clicks == 2

    def test_user_change_splits_sessions(self):
        events = [_event("u1", "maps", 0), _event("u2", "maps", 1)]
        assert len(sessionize(events).sessions) == 2

    def test_unclicked_positions_get_placeholder_docs(self):
        events = [_event("u1", "maps", 0, rank=3, url="maps.com")]
        [(_, _, docs, clicks)] = sessionize(events).sessions.records()
        assert docs == ["q:maps:pos1", "q:maps:pos2", "maps.com"]
        assert clicks == [0, 0, 1]

    def test_deep_clicks_dropped_and_counted(self):
        events = [
            _event("u1", "maps", 0, rank=2, url="a.com"),
            _event("u1", "maps", 1, rank=11, url="b.com"),
        ]
        result = sessionize(events, max_positions=10)
        assert result.dropped_clicks == 1
        assert result.retained_clicks == 1
        assert result.retained_clicks + result.dropped_clicks == 2

    def test_duplicate_url_at_two_ranks_stays_unique(self):
        events = [
            _event("u1", "maps", 0, rank=1, url="maps.com"),
            _event("u1", "maps", 1, rank=3, url="maps.com"),
        ]
        [(_, _, docs, clicks)] = sessionize(events).sessions.records()
        assert len(set(docs)) == 3
        assert clicks == [1, 0, 1]

    def test_deterministic(self):
        events = [
            _event("u1", "maps", 0, rank=1, url="a.com"),
            _event("u1", "maps", 2),
            _event("u2", "news", 0, rank=4, url="b.com"),
        ]
        a, b = sessionize(events), sessionize(events)
        _assert_same_batch(a.sessions, b.sessions)
        assert a.session_ids == b.session_ids == ["u1:0", "u2:0"]

    def test_every_click_retained_or_dropped_on_random_streams(self):
        import numpy as np

        rng = np.random.default_rng(17)
        queries = ["maps", "news", "cat videos"]
        for _ in range(20):
            events = []
            minute = 0
            for user in ("u1", "u2", "u3"):
                minute = 0
                for _ in range(int(rng.integers(1, 15))):
                    minute += int(rng.integers(0, 50))
                    query = queries[rng.integers(0, len(queries))]
                    if rng.random() < 0.6:
                        rank = int(rng.integers(1, 14))
                        events.append(_event(user, query, minute, rank, f"u{rank}.com"))
                    else:
                        events.append(_event(user, query, minute))
            total_clicks = sum(1 for e in events if e.item_rank is not None)
            result = sessionize(events, max_positions=10)
            assert result.retained_clicks + result.dropped_clicks == total_clicks
            in_sessions = int(result.sessions.clicks.sum())
            # duplicate ranks within a session collapse onto one click bit
            assert in_sessions <= result.retained_clicks
            assert all(n <= 10 for n in result.sessions.lengths)


def _assert_same_batch(got, want):
    """Equal SessionBatches, array by array, dtypes and key order included."""
    assert got.keys == want.keys
    assert got.queries == want.queries
    for name in ("pair", "clicks", "lengths", "intent", "query"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _program_log(source: str):
    """A batch and its session ids as the program makes them: a simulated
    log in shuffled row order, or a sessionized AOL-style log."""
    if source == "simulated":
        config = SimConfig(model_kind="dbn", num_queries=7, sessions_per_query=9,
                           positions=5, seed=3, intent_aware=True, shuffle_serps=True)
        truth = generate_ground_truth(config)
        simulated = simulate_sessions(truth, config)
        rows = np.random.default_rng(4).permutation(len(simulated))
        return simulated.take(rows), [session_ids(truth, config)[k] for k in rows]
    events = [
        _event("u1", "maps", 0, rank=2, url="a.com"),
        _event("u1", "maps", 1, rank=2, url="b.com"),
        _event("u1", "news", 2),
        _event("u1", "maps", 3, rank=1, url="a.com"),
        _event("u2", "news", 0, rank=3, url="a.com"),
        _event("u2", "news", 40, rank=1, url="q:news:pos2"),
        _event("u2", "news", 41, rank=3, url="c.com"),
    ]
    result = sessionize(events)
    return result.sessions, result.session_ids


# A key whose value is _MISSING is dropped from the record.
_MISSING = object()

# Records that are not sessions, by name: a dict of fields overrides a
# one-doc record, and a string is the whole line.
_BAD_RECORDS = {
    "length-mismatch": {"docs": ["a", "b"], "clicks": [1]},
    "docs-string": {"docs": "xy", "clicks": [0, 1]},
    "clicks-string": {"docs": ["x", "y"], "clicks": "01"},
    "click-float": {"docs": ["x", "y"], "clicks": [0, 0.9]},
    "click-string": {"docs": ["x", "y"], "clicks": [0, "1"]},
    "click-bool": {"docs": ["x", "y"], "clicks": [True, 0]},
    "docs-mixed": {"docs": [1, None, [2]], "clicks": [0, 0, 0]},
    "doc-int": {"docs": ["x", 1], "clicks": [0, 0]},
    "doc-null": {"docs": ["x", None], "clicks": [0, 0]},
    "doc-array": {"docs": ["x", ["y"]], "clicks": [0, 0]},
    "doc-object": {"docs": ["x", {"d": "y"}], "clicks": [0, 0]},
    "doc-bool": {"docs": ["x", True], "clicks": [0, 0]},
    "session-id-null": {"session_id": None},
    "query-id-int": {"query_id": 5},
    "query-id-array": {"query_id": ["x"]},
    "invalid-json": "{not json}",
    "record-array": "[1, 2]",
    "missing-key": {"docs": _MISSING},
    "unknown-intent": {"intent": "xxx"},
    "intent-array": {"intent": ["inf"]},
    "click-one-float": {"docs": ["x", "y"], "clicks": [0, 1.0]},
    "click-two": {"docs": ["x", "y"], "clicks": [0, 2]},
    "click-negative": {"docs": ["x", "y"], "clicks": [0, -1]},
    "duplicate-docs": {"docs": ["x", "x"], "clicks": [0, 1]},
    "query-id-tab": {"query_id": "q\tr"},
    "query-id-newline": {"query_id": "q\nr"},
    "query-id-cr": {"query_id": "q\rr"},
}

class TestSessionIo:
    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_sessions(path, encode_sessions([]), [])
        batch = read_sessions(path)
        assert len(batch) == 0 and batch.width == 0
        _assert_same_batch(batch, encode_sessions([]))

    def test_roundtrip_identity(self, tmp_path):
        """read_sessions of a written log is encode_sessions of its sessions."""
        sessions = [
            Session("s1", "q1", Intent.NAVIGATIONAL, ("a", "b"), (1, 0)),
            Session("s2", "q2", Intent.UNKNOWN, (), ()),
            Session("s3", "q1", Intent.TRANSACTIONAL, ("x", "y", "z"), (0, 1, 1)),
            Session("s4", "q3", Intent.INFORMATIONAL, ("b", "a"), (0, 0)),
            Session("s5", "q2", Intent.NAVIGATIONAL, ("a",), (1,)),
        ]
        path = tmp_path / "s.jsonl"
        write_sessions(path, encode_sessions(sessions), [s.session_id for s in sessions])
        batch = read_sessions(path)
        _assert_same_batch(batch, encode_sessions(sessions))
        assert batch.keys == [("q1", "a"), ("q1", "b"), ("q1", "x"), ("q1", "y"), ("q1", "z"),
                              ("q3", "b"), ("q3", "a"), ("q2", "a")]
        assert batch.queries == ["q1", "q2", "q3"]
        assert batch.query.tolist() == [0, 1, 0, 2, 1]

    # Sorted keys put a record in write_sessions' form, which read_sessions
    # reads without the JSON decoder whenever its strings need no escape.
    @pytest.mark.parametrize("fields, sort_keys", [
        pytest.param(fields, sort_keys, id=name + ("-sorted-keys" if sort_keys else ""))
        for sort_keys in (False, True) for name, fields in _BAD_RECORDS.items()])
    def test_malformed_record_is_a_parse_error(self, tmp_path, fields, sort_keys):
        """Each bad record names its line; blank lines count."""
        path = tmp_path / "s.jsonl"
        good = {"session_id": "s0", "query_id": "q", "intent": "unk", "docs": [], "clicks": []}
        if isinstance(fields, str):
            bad = fields
        else:
            record = {**good, "session_id": "s", "docs": ["x"], "clicks": [0], **fields}
            bad = json.dumps({k: v for k, v in record.items() if v is not _MISSING},
                             sort_keys=sort_keys)
        good_line = json.dumps(good, sort_keys=sort_keys)
        path.write_text(good_line + "\n\n" + bad + "\n" + good_line + "\n")
        with pytest.raises(LineError, match="^line 3: "):
            read_sessions(path)

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "s.jsonl"
        lines = ['{"session_id": "s", "query_id": "q", "intent": "unk", "docs": ["a"], '
                 '"clicks": [2]}', "{not json}"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LineError, match="^line 1: session s: clicks must be 0/1"):
            read_sessions(path)

    def test_tab_in_query_id_is_rejected(self, tmp_path):
        """A query id with a tab would not survive the parameter file, whose
        pair keys are query<TAB>doc split at the first tab."""
        path = tmp_path / "s.jsonl"
        sessions = [Session("s1", "a", Intent.UNKNOWN, ("d1",), (1,)),
                    Session("s2", "a\tb", Intent.UNKNOWN, ("d1",), (0,))]
        write_sessions(path, encode_sessions(sessions), ["s1", "s2"])
        with pytest.raises(LineError, match=r"^line 2: query_id 'a\\tb' contains a tab"):
            read_sessions(path)

    @pytest.mark.parametrize("source", ["simulated", "sessionized"])
    def test_written_batch_reads_back_row_for_row(self, tmp_path, source):
        """Query, intent, docs and clicks of every row survive
        write_sessions then read_sessions, whatever the key order."""
        batch, ids = _program_log(source)
        path = tmp_path / "s.jsonl"
        write_sessions(path, batch, ids)
        assert list(read_sessions(path).records()) == list(batch.records())
        assert [json.loads(line)["session_id"] for line in path.read_text().splitlines()] == ids

    @pytest.mark.parametrize("source", ["simulated", "sessionized"])
    def test_written_lines_skip_the_json_decoder(self, tmp_path, monkeypatch, source):
        """Every line the program writes for ASCII ids is read from its
        text: none reaches _session_record."""
        batch, ids = _program_log(source)
        path = tmp_path / "s.jsonl"
        write_sessions(path, batch, ids)

        def refuse(line):
            raise AssertionError(f"decoded as JSON: {line!r}")

        monkeypatch.setattr(sessions_module, "_session_record", refuse)
        assert list(read_sessions(path).records()) == list(batch.records())

    def test_write_needs_one_id_per_row(self, tmp_path):
        batch = encode_sessions([Session("s1", "a", Intent.UNKNOWN, ("d1",), (1,))])
        with pytest.raises(ValueError, match="1 sessions"):
            write_sessions(tmp_path / "s.jsonl", batch, [])

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(LineError, match="^line 1: invalid JSON: "):
            read_sessions(path)

    def test_unknown_intent_label(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"session_id": "s", "query_id": "q", "intent": "xxx", '
            '"docs": [], "clicks": []}\n'
        )
        with pytest.raises(LineError,
                           match="^line 1: bad session record: 'xxx' is not a valid Intent$"):
            read_sessions(path)


# Strings JSON escapes: quote, backslash, control characters, non-ASCII,
# astral and lone-surrogate code points, and the tab a query id may not hold.
_ESCAPED = st.text(
    alphabet=st.sampled_from('"\\\x00\x1f\x7f\u2028é\U0001f600\ud800\udfffab') | st.characters(),
    max_size=6)


# Strings JSON writes as their own text, with the ", " and "]" that part a
# session line's doc ids.
_PLAIN_TEXT = st.text(alphabet=st.sampled_from("ab, ]:"), max_size=4)


@st.composite
def _batches(draw, texts=_ESCAPED):
    """A batch of 0 to 6 sessions of distinct doc ids drawn from texts, each
    query showing at most 4 of them, plus one id from texts per session."""
    queries = draw(st.lists(texts.filter(lambda q: "\t" not in q), min_size=1, max_size=3))
    sessions = []
    for k in range(draw(st.integers(0, 6))):
        docs = draw(st.lists(texts, max_size=4, unique=True))
        sessions.append(Session(f"{k}", draw(st.sampled_from(queries)),
                                draw(st.sampled_from(ALL_INTENTS)), tuple(docs),
                                tuple(draw(st.lists(st.integers(0, 1), min_size=len(docs),
                                                    max_size=len(docs))))))
    ids = draw(st.lists(texts, min_size=len(sessions), max_size=len(sessions)))
    return encode_sessions(sessions), ids


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                         2.2250738585072014e-308, 1e-310])
# Documents of float tables (dicts of str keys to finite floats, or to any
# floats) nested in dicts and lists, among other JSON values, int-keyed
# dicts included.
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _ESCAPED
    | st.dictionaries(_ESCAPED, st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                      max_size=5)
    | st.dictionaries(_ESCAPED, _FLOATS, max_size=5)
    | st.dictionaries(st.integers(), _FLOATS, max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_ESCAPED, inner, max_size=3),
    max_leaves=8,
)


class TestWritersMatchStdlibJson:
    """Both writers join JSON text themselves; their bytes are the stdlib
    encoder's."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_batches())
    def test_session_lines_are_json_dumps(self, batch_and_ids):
        batch, ids = batch_and_ids
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            write_sessions(path, batch, ids)
            got = path.read_bytes()
        want = "".join(
            json.dumps({"session_id": i, "query_id": q, "intent": t.value, "docs": d, "clicks": c},
                       sort_keys=True) + "\n"
            for i, (q, t, d, c) in zip(ids, batch.records()))
        assert got == want.encode("utf-8")

    def test_session_blocks_join_across_1024_rows(self, tmp_path):
        sessions = [Session(f"s{k}", f"q{k % 7}", ALL_INTENTS[k % 4], (f"d{k % 5}", "é"),
                            (k % 2, 1)) for k in range(2100)]
        ids = [s.session_id for s in sessions]
        path = tmp_path / "s.jsonl"
        write_sessions(path, encode_sessions(sessions), ids)
        assert path.read_text().splitlines() == [
            json.dumps({"session_id": s.session_id, "query_id": s.query_id,
                        "intent": s.intent.value, "docs": list(s.docs),
                        "clicks": list(s.clicks)}, sort_keys=True) for s in sessions]

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(_DOCS)
    def test_write_json_is_json_dump(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.json"
            write_json(path, doc)
            got = path.read_bytes()
        assert got == (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()

    @pytest.mark.parametrize("table", [{"a": math.nan, "b": 0.5}, {"a": math.inf},
                                       {"a": -math.inf, "b": -0.0}, {"a": 5e-324, "é": 1e308}])
    def test_write_json_special_floats(self, tmp_path, table):
        doc = {"params": {"rel": table}}
        write_json(tmp_path / "d.json", doc)
        assert (tmp_path / "d.json").read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def test_write_json_table_slices(self, tmp_path):
        # More entries than one write, nested two levels down, next to
        # values the stdlib encodes.
        table = {f"q{k:05d}\té": k / 7 - 1 for k in range(2500, 0, -1)}
        doc = {"params": {"rel": table, "exam": [0.5, 0.25], "n": 3}, "kind": "pbm", "t": {}}
        path = tmp_path / "d.json"
        write_json(path, doc)
        assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"


_SESSION_KEYS = ("clicks", "docs", "intent", "query_id", "session_id")


def _session_dicts(batch, ids) -> list[dict]:
    return [{"session_id": i, "query_id": q, "intent": t.value, "docs": d, "clicks": c}
            for i, (q, t, d, c) in zip(ids, batch.records())]


@st.composite
def _session_files(draw):
    """A batch, its session ids and the text of a file of its records: None
    for write_sessions' own lines, else the records through json.dumps in
    another key order, with other separators or raw non-ASCII."""
    batch, ids = draw(_batches(draw(st.sampled_from([_PLAIN_TEXT, _ESCAPED]))))
    if draw(st.booleans()):
        return batch, ids, None
    # Half the time sorted, as written, so that lines of raw non-ASCII
    # strings can match write_sessions' form.
    order = draw(st.just(_SESSION_KEYS) | st.permutations(_SESSION_KEYS))
    separators = draw(st.sampled_from([(", ", ": ")] * 3 + [(",", ":"), (", ", ":"),
                                                            (" , ", " : ")]))
    ascii_only = draw(st.booleans())
    return batch, ids, "".join(
        json.dumps({key: r[key] for key in order}, separators=separators,
                   ensure_ascii=ascii_only) + "\n" for r in _session_dicts(batch, ids))


@st.composite
def _changed_lines(draw):
    """The line write_sessions writes for a session of plain strings (as
    json.dumps with sorted keys), with one change: a bad click, a repeated,
    extra or missing key, a duplicate doc, lengths off by one, leading or
    trailing text, a raw control character in the query id, or a leading
    U+FEFF."""
    docs = draw(st.lists(_PLAIN_TEXT, max_size=4, unique=True))
    clicks = draw(st.lists(st.integers(0, 1), min_size=len(docs), max_size=len(docs)))
    record = {"clicks": clicks, "docs": docs, "intent": draw(st.sampled_from(ALL_INTENTS)).value,
              "query_id": draw(_PLAIN_TEXT), "session_id": draw(_PLAIN_TEXT)}
    kind = draw(st.sampled_from(["click", "repeated-key", "extra-key", "missing-key",
                                 "duplicate-doc", "length", "leading", "trailing",
                                 "raw-control", "bom"]))
    if kind == "click":
        record["clicks"] = [*clicks[:-1], draw(st.sampled_from([True, 1.0, 2]))]
    elif kind == "extra-key":
        record[draw(st.sampled_from(["extra", "clicks2", "a"]))] = 0
    elif kind == "missing-key":
        del record[draw(st.sampled_from(_SESSION_KEYS))]
    elif kind == "duplicate-doc":
        record["docs"], record["clicks"] = ([*docs, docs[0]], [*clicks, 0]) if docs else (
            ["d", "d"], [0, 0])
    elif kind == "length":
        record["clicks"] = clicks[:-1] if clicks and draw(st.booleans()) else [*clicks, 0]
    line = json.dumps(record, sort_keys=True)
    if kind == "repeated-key":
        key = draw(st.sampled_from(_SESSION_KEYS))
        repeat = f'"{key}": {json.dumps(record[key])}'
        line = f"{{{repeat}, {line[1:]}" if draw(st.booleans()) else f"{line[:-1]}, {repeat}}}"
    elif kind == "leading":
        line = draw(st.sampled_from([" ", "  ", "\t"])) + line
    elif kind == "trailing":
        line += draw(st.sampled_from([" x", ",", "}", " {}", "\x0b", "\u2028", " \t", "  "]))
    elif kind == "raw-control":
        # JSON refuses a control character left unescaped in a string.
        control = draw(st.sampled_from(["\t", "\x00", "\x1f", "\x0c"]))
        line = line.replace('"query_id": "', '"query_id": "' + control, 1)
    elif kind == "bom":
        line = "\ufeff" + line
    return line


def _read_by_decoder(path):
    """read_sessions with every line decoded as JSON by _session_record."""
    columns = sessions_module._BatchColumns()
    for line_no, line in numbered_lines(path):
        try:
            columns.add(*sessions_module._session_record(line))
        except LineError as exc:
            raise LineError(str(exc), line_no) from None
    return columns.build()


def _outcome(read, path):
    """The batch read, or the kind and text of the error raised: a
    LineError, or a UnicodeDecodeError for bytes that are not UTF-8."""
    try:
        return read(path)
    except (DataError, ValueError) as exc:
        return type(exc), str(exc)


class TestSessionsReadAsDecoded:
    """read_sessions reads write_sessions' own lines from their text; every
    file gives the batch, or the error text and line, that decoding each
    line as JSON gives."""

    @staticmethod
    def _same_outcome(path):
        got, want = _outcome(read_sessions, path), _outcome(_read_by_decoder, path)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_batch(got, want)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_session_files())
    def test_written_and_reformatted_files(self, drawn):
        batch, ids, text = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            if text is None:
                write_sessions(path, batch, ids)
            else:
                # Raw lone surrogates become bytes that are not UTF-8.
                path.write_bytes(text.encode("utf-8", "surrogatepass"))
            self._same_outcome(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_changed_lines())
    def test_one_changed_line(self, line):
        """The changed line is the second of three, after a written one."""
        good = '{"clicks": [0], "docs": ["a"], "intent": "unk", "query_id": "q", "session_id": "s"}'
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            path.write_text(f"{good}\n{line}\n{good}\n", encoding="utf-8")
            self._same_outcome(path)


class TestSessionBatch:
    def test_group_by_query_gives_each_query_its_own_batch(self):
        sessions = [
            Session("s1", "q1", Intent.NAVIGATIONAL, ("a", "b", "c"), (1, 0, 0)),
            Session("s2", "q2", Intent.UNKNOWN, ("b",), (1,)),
            Session("s3", "q1", Intent.INFORMATIONAL, ("c", "d"), (0, 1)),
            Session("s4", "q2", Intent.UNKNOWN, (), ()),
        ]
        groups = group_by_query(encode_sessions(sessions))
        assert list(groups) == ["q1", "q2"]
        for query, batch in groups.items():
            _assert_same_batch(batch, encode_sessions([s for s in sessions if s.query_id == query]))

    @pytest.mark.parametrize("seed", range(4))
    def test_group_by_query_is_take_of_each_querys_rows(self, seed):
        # Queries interleaved, docs drawn in a different order per session,
        # so each query's first-read key order is not its sorted order.
        rng = np.random.default_rng(seed)
        sessions = []
        for k in range(60):
            query = f"q{rng.integers(7)}"
            docs = [f"d{j}" for j in rng.permutation(9)[:rng.integers(0, 6)]]
            clicks = rng.integers(0, 2, size=len(docs)).tolist()
            sessions.append(Session(f"s{k}", query, ALL_INTENTS[rng.integers(4)], docs, clicks))
        batch = encode_sessions(sessions)
        # A listed query with no rows gets an empty batch, as take gives.
        batch = replace(batch, queries=[*batch.queries, "q_without_rows"])
        groups = group_by_query(batch)
        assert list(groups) == batch.queries
        for code, (query, got) in enumerate(groups.items()):
            _assert_same_batch(got, batch.take(np.flatnonzero(batch.query == code)))


class TestSessionInvariants:
    def test_click_values_must_be_binary(self):
        with pytest.raises(LineError, match="^session s: clicks must be 0/1$"):
            Session("s", "q", Intent.UNKNOWN, ("a",), (2,))

    def test_docs_must_be_unique(self):
        with pytest.raises(LineError, match="^session s: duplicate doc ids$"):
            Session("s", "q", Intent.UNKNOWN, ("a", "a"), (0, 1))

    def test_clicked_positions(self):
        s = Session("s", "q", Intent.UNKNOWN, ("a", "b", "c"), (1, 0, 1))
        [(_, _, _, clicks)] = encode_sessions([s]).records()
        assert tuple(i + 1 for i, c in enumerate(clicks) if c) == (1, 3)
        assert sum(clicks) == 2


class TestJudgments:
    def test_roundtrip(self, tmp_path):
        judgments = Judgments([("q1", "d1"), ("q1", "d2")], [4, 0])
        path = tmp_path / "j.tsv"
        write_judgments(path, judgments)
        assert read_judgments(path) == Judgments([("q1", "d1"), ("q1", "d2")], [4, 0])

    def test_grade_out_of_range(self, tmp_path):
        with pytest.raises(LineError, match=r"^grade 5 out of range \[0, 4\] for \(q, d\)$"):
            write_judgments(tmp_path / "j.tsv", Judgments([("q", "d")], [5]))

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\td\t1\nq\td\t2\n")
        with pytest.raises(LineError, match="duplicate"):
            read_judgments(path)

    def test_grade_out_of_range_names_its_line(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("q\td1\t1\nq\td2\t5\n")
        with pytest.raises(LineError, match="line 2: grade 5 out of range"):
            read_judgments(path)


class TestIntentLabels:
    def test_roundtrip_and_attach(self, tmp_path):
        labels = {"q1": Intent.NAVIGATIONAL, "q2": Intent.TRANSACTIONAL}
        path = tmp_path / "labels.tsv"
        write_intent_labels(path, labels)
        assert read_intent_labels(path) == labels
        sessions = [
            Session("s1", "q1", Intent.UNKNOWN, ("a",), (0,)),
            Session("s2", "q3", Intent.UNKNOWN, ("b",), (1,)),
        ]
        relabeled = attach_intents(encode_sessions(sessions), labels)
        assert [ALL_INTENTS[k] for k in relabeled.intent.tolist()] == [
            Intent.NAVIGATIONAL, Intent.UNKNOWN]

    def test_repeated_query_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("q1\tnav\nq2\tinf\nq1\ttra\n")
        with pytest.raises(LineError, match="line 3: duplicate label for query 'q1'"):
            read_intent_labels(path)
