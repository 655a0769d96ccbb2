"""Query-log ingestion and the canonical session/judgment formats.

Raw search logs (AOL-style five-field TSV) are parsed into LogEvents,
grouped into per-query sessions, and written out as line-delimited JSON
records. Editorial relevance judgments and query intent labels travel as
plain TSV sidecars. Inside the program every session is a row of a
SessionBatch, the columnar form that ``sessionize``, the simulator and
``read_sessions`` build; ``encode_sessions`` builds one from hand-made
Session records. Judgments travel as the columns of Judgments.
"""

from __future__ import annotations

import logging
import re
import string
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .common import DEFAULT_GAP_MINUTES, DEFAULT_MAX_POSITIONS, JSON_ERRORS, DataError, decode_json

logger = logging.getLogger(__name__)

AOL_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
DEFAULT_GAP_TIMEOUT = timedelta(minutes=DEFAULT_GAP_MINUTES)


class Intent(str, Enum):
    """Query intent label under the Broder taxonomy, plus Unknown."""

    INFORMATIONAL = "inf"
    NAVIGATIONAL = "nav"
    TRANSACTIONAL = "tra"
    UNKNOWN = "unk"


# Fixed class order used everywhere a deterministic ordering is needed
# (classifier outputs, tie-breaking, serialization).
KNOWN_INTENTS = (Intent.INFORMATIONAL, Intent.NAVIGATIONAL, Intent.TRANSACTIONAL)
ALL_INTENTS = (*KNOWN_INTENTS, Intent.UNKNOWN)


class LineError(DataError):
    """A malformed record of a line-oriented file, at 1-based line_no if given."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


class MalformedRecordError(LineError):
    """A raw log line does not have the expected field count."""


class MalformedFieldError(MalformedRecordError):
    """A raw log line has the right shape but an unparseable field."""


class SessionFormatError(LineError):
    """A canonical session record violates the session schema."""


class JudgmentError(LineError):
    """A relevance judgment record is out of range or duplicated."""


# ASCII punctuation but the dot, and a dot without an alphanumeric on both
# sides; [^\W_] matches exactly the characters str.isalnum() accepts.
_DROPPED_FROM_QUERY = re.compile("[" + re.escape(string.punctuation.replace(".", "")) + "]"
                                 + r"|(?<![^\W_])\.|\.(?![^\W_])")


def normalize_query(raw: str) -> str:
    """Lowercase and strip ASCII punctuation, keeping intra-token dots.

    Dots survive only between alphanumerics so URL-like queries
    ("www.foo.com") keep their shape while trailing periods vanish.
    Whitespace is collapsed to single spaces.
    """
    return " ".join(_DROPPED_FROM_QUERY.sub("", raw.lower()).split())


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One raw log record: a query submission, optionally with a click."""

    user_id: str
    query: str
    query_time: datetime
    item_rank: int | None = None
    click_url: str | None = None

    def __post_init__(self):
        if (self.item_rank is None) != (self.click_url is None):
            raise MalformedFieldError(
                "item_rank and click_url must be both present or both absent"
            )
        if self.item_rank is not None and self.item_rank < 1:
            raise MalformedFieldError(f"item_rank must be positive, got {self.item_rank}")
        if not self.query:
            raise MalformedFieldError("query is empty after normalization")

    @property
    def is_click(self) -> bool:
        return self.item_rank is not None


def _check_session(session_id: str, docs: Sequence, clicks: Sequence) -> None:
    """A SessionFormatError unless docs and clicks are one session's: the
    two align, clicks are 0/1 and doc ids distinct."""
    if len(docs) != len(clicks):
        raise SessionFormatError(f"session {session_id}: {len(docs)} docs vs {len(clicks)} clicks")
    if not set(clicks) <= {0, 1}:
        raise SessionFormatError(f"session {session_id}: clicks must be 0/1")
    if len(set(docs)) != len(docs):
        raise SessionFormatError(f"session {session_id}: duplicate doc ids")


@dataclass(frozen=True)
class Session:
    """One query impression: ranked docs plus aligned binary clicks."""

    session_id: str
    query_id: str
    intent: Intent
    docs: tuple[str, ...]
    clicks: tuple[int, ...]

    def __post_init__(self):
        _check_session(self.session_id, self.docs, self.clicks)

    def __len__(self) -> int:
        return len(self.docs)


def _used(names: list, codes: np.ndarray) -> tuple[list, np.ndarray]:
    """The names that codes use, in names order, and the codes renumbered
    into that list."""
    used, renumbered = np.unique(codes, return_inverse=True)
    return [names[k] for k in used.tolist()], renumbered


@dataclass(frozen=True)
class SessionBatch:
    """Sessions as padded (session, position) arrays.

    ``pair`` holds codes into ``keys``, the (query_id, doc_id) pairs the
    batch shows, in the order they were first read (a simulated batch lists
    each query's pairs in SERP order), and ``clicks`` the 0/1
    outcomes (int8). Cells at or beyond a row's entry in ``lengths`` are
    padding, with pair code 0 and no click. ``intent`` indexes ALL_INTENTS
    and ``query`` indexes ``queries``, the query ids of the batch in the
    order they were first read. The width is the longest session's length.
    """

    keys: list[tuple[str, str]]
    pair: np.ndarray
    clicks: np.ndarray
    lengths: np.ndarray
    intent: np.ndarray
    queries: list[str]
    query: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def width(self) -> int:
        return self.pair.shape[1]

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def valid(self) -> np.ndarray:
        """Mask of the cells that hold an event, not padding."""
        return np.arange(self.width) < self.lengths[:, None]

    def take(self, rows: np.ndarray) -> "SessionBatch":
        """The given rows, trimmed to their longest session, with keys and
        queries cut to those the rows show (in this batch's order)."""
        lengths = self.lengths[rows]
        width = int(lengths.max(initial=0))
        valid = np.arange(width) < lengths[:, None]
        keys, codes = _used(self.keys, self.pair[rows, :width][valid])
        pair = np.zeros(valid.shape, dtype=np.int64)
        pair[valid] = codes
        queries, query = _used(self.queries, self.query[rows])
        return SessionBatch(keys, pair, self.clicks[rows, :width], lengths, self.intent[rows],
                            queries, query)

    def by_intent(self) -> list[tuple[Intent, np.ndarray]]:
        """(intent, row indices) for each intent present, in ALL_INTENTS order."""
        groups = [(t, np.flatnonzero(self.intent == k)) for k, t in enumerate(ALL_INTENTS)]
        return [(t, rows) for t, rows in groups if rows.size]

    def records(self) -> Iterator[tuple[str, Intent, list[str], list[int]]]:
        """(query_id, intent, docs, clicks) of each row, in row order; rows
        are decoded 1024 at a time, never the whole batch at once."""
        for block in self._row_blocks([d for _, d in self.keys]):
            for q, t, docs, clicks in block:
                yield self.queries[q], ALL_INTENTS[t], docs, clicks

    def _row_blocks(self, doc_texts: list[str]) -> Iterator[list[tuple[int, int, list, list]]]:
        """Rows 1024 at a time, each as (query code, intent code, docs,
        clicks), its docs given as the doc_texts entries of its pair codes."""
        texts = np.array(doc_texts, dtype=object)
        for start in range(0, len(self), 1024):
            rows = slice(start, start + 1024)
            columns = (self.query[rows].tolist(), self.intent[rows].tolist(),
                       self.lengths[rows].tolist(), texts[self.pair[rows]].tolist(),
                       self.clicks[rows].tolist())
            yield [(q, t, docs[:n], clicks[:n]) for q, t, n, docs, clicks in zip(*columns)]


class _BatchColumns:
    """Sessions added one at a time, as the columns of a SessionBatch."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        # query_id -> (query code, {doc_id: pair code}), in first-read order
        self.queries: dict[str, tuple[int, dict[str, int]]] = {}
        self.pair: list[int] = []
        self.clicks: list[int] = []
        self.lengths: list[int] = []
        self.intent: list[int] = []
        self.query: list[int] = []

    def add(self, query_id: str, intent: int, docs: Sequence[str], clicks: Sequence[int]) -> None:
        entry = self.queries.get(query_id)
        if entry is None:
            entry = self.queries[query_id] = (len(self.queries), {})
        query, codes = entry
        for d in docs:
            code = codes.get(d)
            if code is None:
                code = codes[d] = len(self.keys)
                self.keys.append((query_id, d))
            self.pair.append(code)
        self.clicks += clicks
        self.lengths.append(len(docs))
        self.intent.append(intent)
        self.query.append(query)

    def build(self) -> SessionBatch:
        lengths = np.array(self.lengths, dtype=np.int64)
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        pair = np.zeros(valid.shape, dtype=np.int64)
        pair[valid] = self.pair
        clicks = np.zeros(valid.shape, dtype=np.int8)
        clicks[valid] = self.clicks
        return SessionBatch(self.keys, pair, clicks, lengths,
                            np.array(self.intent, dtype=np.int8), list(self.queries),
                            np.array(self.query, dtype=np.int64))


def encode_sessions(sessions: Iterable[Session]) -> SessionBatch:
    """The one conversion of in-memory Session records into a SessionBatch."""
    columns = _BatchColumns()
    for s in sessions:
        columns.add(s.query_id, ALL_INTENTS.index(s.intent), s.docs, s.clicks)
    return columns.build()


def _ascii_int(text: str) -> int | None:
    """The integer that text spells in ASCII digits, or None for any other
    text: int() alone would also read "+3", " 3", "1_0" and other scripts' digits."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def _aol_time(raw_time: str, line_no: int | None) -> datetime:
    """The timestamp of an AOL record, as strptime with AOL_TIME_FORMAT reads it."""
    # fromisoformat is much faster, but accepts shapes that strptime does
    # not, and ISO 8601 allows hour 24 (the end of a day), which strptime
    # rejects; so it only sees the fixed AOL shape below hour 24, and
    # strptime gives every other value and every error text.
    if (len(raw_time) == 19 and raw_time[4] == raw_time[7] == "-" and raw_time[10] == " "
            and raw_time[13] == raw_time[16] == ":" and raw_time[11:13] < "24"):
        try:
            return datetime.fromisoformat(raw_time)
        except ValueError:
            pass
    try:
        return datetime.strptime(raw_time, AOL_TIME_FORMAT)
    except ValueError as exc:
        raise MalformedFieldError(f"bad timestamp {raw_time!r}: {exc}", line_no) from None


def _parse_aol_line(line: str, line_no: int | None, normalized: dict[str, str]) -> LogEvent:
    """parse_aol_line, with normalized caching normalize_query by raw query."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise MalformedRecordError(
            f"expected 5 tab-separated fields, got {len(fields)}", line_no
        )
    user_id, raw_query, raw_time, raw_rank, raw_url = map(str.strip, fields)
    query_time = _aol_time(raw_time, line_no)
    rank: int | None = None
    url: str | None = None
    if raw_rank or raw_url:
        rank = _ascii_int(raw_rank)
        if rank is None:
            raise MalformedFieldError(f"bad rank {raw_rank!r}", line_no)
        url = raw_url
    query = normalized.get(raw_query)
    if query is None:
        query = normalized[raw_query] = normalize_query(raw_query)
    try:
        return LogEvent(user_id, query, query_time, rank, url or None)
    except MalformedFieldError as exc:
        raise MalformedFieldError(str(exc), line_no) from None


def parse_aol_line(line: str, line_no: int | None = None) -> LogEvent:
    """Parse one AOL-style TSV record into a LogEvent.

    Field order: AnonID, Query, QueryTime, ItemRank, ClickURL. Empty
    ItemRank/ClickURL mean a query-only event.
    """
    return _parse_aol_line(line, line_no, {})


def read_aol_log(path) -> Iterator[LogEvent]:
    """Yield LogEvents from an AOL-style TSV file.

    A header line (first field "AnonID") is skipped, and so are malformed
    lines; ``parse_aol_line`` names what is wrong with one. Once the file
    is read, skipped lines are logged as one warning with their count and
    the first one's error; a file with data lines but none that parses is
    a DataError. Each distinct raw query is normalized once per call.
    """
    normalized: dict[str, str] = {}
    parsed = skipped = 0
    first_error: MalformedRecordError | None = None
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if line_no == 1 and line.split("\t")[0].strip() == "AnonID":
                continue
            try:
                event = _parse_aol_line(line, line_no, normalized)
            except MalformedRecordError as exc:
                skipped += 1
                first_error = first_error or exc
                continue
            parsed += 1
            yield event
    if skipped and not parsed:
        raise DataError(f"no line of {path} parses: all {skipped} data lines are malformed; "
                        f"the first: {first_error}")
    if skipped:
        logger.warning("skipped %d malformed line(s) of %s; the first: %s",
                       skipped, path, first_error)


@dataclass
class SessionizeResult:
    """Sessions as a batch, the id of each row, and the clicks kept and dropped."""

    sessions: SessionBatch
    session_ids: list[str]
    retained_clicks: int
    dropped_clicks: int


def _query_groups(events: Iterable[LogEvent], gap_timeout: timedelta) -> Iterator[list[LogEvent]]:
    """Runs of consecutive events with the same user and query, each within
    gap_timeout of the previous one."""
    group: list[LogEvent] = []
    for ev in events:
        if group:
            last = group[-1]
            if (ev.user_id != last.user_id or ev.query != last.query
                    or ev.query_time - last.query_time > gap_timeout):
                yield group
                group = []
        group.append(ev)
    if group:
        yield group


def sessionize(
    events: Iterable[LogEvent],
    gap_timeout: timedelta = DEFAULT_GAP_TIMEOUT,
    max_positions: int = DEFAULT_MAX_POSITIONS,
) -> SessionizeResult:
    """Group events (sorted by user, then time) into per-query sessions.

    Consecutive events with the same user and the same normalized query,
    each within gap_timeout of the previous one, form one session, with id
    ``user:n`` for the user's n-th session. Clicked ranks set the click bit
    and take the clicked URL as doc id; unclicked positions up to the
    deepest observed rank get placeholder ids ``q:<query>:pos<rank>``. An
    id that an earlier position of the session already has gets ``#<rank>``
    appended until it is new. Click events beyond max_positions are
    dropped and counted.
    """
    columns = _BatchColumns()
    session_ids: list[str] = []
    user_session_counts: dict[str, int] = {}
    retained = dropped = 0
    unknown = ALL_INTENTS.index(Intent.UNKNOWN)
    for group in _query_groups(events, gap_timeout):
        user, query = group[0].user_id, group[0].query
        seq = user_session_counts[user] = user_session_counts.get(user, -1) + 1
        clicked: dict[int, str] = {}
        for ev in group:
            rank = ev.item_rank
            if rank is None:
                continue
            if rank > max_positions:
                dropped += 1
                continue
            retained += 1
            clicked.setdefault(rank, ev.click_url)
        docs: list[str] = []
        clicks: list[int] = []
        for pos in range(1, max(clicked, default=0) + 1):
            doc = clicked.get(pos)
            clicks.append(0 if doc is None else 1)
            if doc is None:
                doc = f"q:{query}:pos{pos}"
            while doc in docs:
                doc = f"{doc}#{pos}"
            docs.append(doc)
        session_id = f"{user}:{seq}"
        _check_session(session_id, docs, clicks)
        columns.add(query, unknown, docs, clicks)
        session_ids.append(session_id)
    return SessionizeResult(columns.build(), session_ids, retained, dropped)


def write_sessions(path, batch: SessionBatch, session_ids: Sequence[str]) -> None:
    """Write the batch as line-delimited JSON records, one per row in row
    order; session_ids[i] is the id of row i. Each line is
    ``json.dumps(record, sort_keys=True)``, joined from strings that are
    each JSON-encoded once: every doc id, query id and intent of the batch,
    and each session id."""
    if len(session_ids) != len(batch):
        raise ValueError(f"{len(session_ids)} session ids for {len(batch)} sessions")
    encode = encode_basestring_ascii
    queries = [encode(q) for q in batch.queries]
    intents = [encode(t.value) for t in ALL_INTENTS]
    with open(path, "w", encoding="utf-8") as fh:
        start = 0
        for block in batch._row_blocks([encode(d) for _, d in batch.keys]):
            ids = session_ids[start:start + len(block)]
            start += len(block)
            # str() of a list of ints is its JSON text.
            fh.write("".join(
                f'{{"clicks": {clicks}, "docs": [{", ".join(docs)}], "intent": {intents[t]}, '
                f'"query_id": {queries[q]}, "session_id": {encode(session_id)}}}\n'
                for session_id, (q, t, docs, clicks) in zip(ids, block)))


_INTENT_CODES = {t.value: k for k, t in enumerate(ALL_INTENTS)}
_STR = frozenset((str,))
_INT = frozenset((int,))


def _session_record(line: str) -> tuple[str, int, list, list]:
    """(query_id, intent code, docs, clicks) of one session record; a
    SessionFormatError without a line number says what is wrong."""
    try:
        record = decode_json(line)
    except JSON_ERRORS as exc:
        raise SessionFormatError(f"invalid JSON: {exc}") from None
    try:
        value = record["intent"]
        intent = _INTENT_CODES.get(value) if type(value) is str else None
        if intent is None:
            raise ValueError(f"{value!r} is not a valid Intent")
        session_id, query_id = record["session_id"], record["query_id"]
        docs, clicks = record["docs"], record["clicks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SessionFormatError(f"bad session record: {exc}") from None
    # _check_session checks clicks are 0/1, which true and 1.0 also pass.
    if not (type(session_id) is str and type(query_id) is str
            and type(docs) is list and type(clicks) is list
            and set(map(type, docs)) <= _STR and set(map(type, clicks)) <= _INT):
        raise SessionFormatError(
            "session_id and query_id must be strings, docs and clicks arrays, "
            "docs of strings, clicks of 0/1 ints"
        )
    if "\t" in query_id or "\n" in query_id or "\r" in query_id:
        raise SessionFormatError(
            f"query_id {query_id!r} contains a tab or line break, which parameter "
            "and intent-label files use to separate a query from a doc or a record"
        )
    _check_session(session_id, docs, clicks)
    return query_id, intent, docs, clicks


def read_sessions(path) -> SessionBatch:
    """Read line-delimited session records straight into a SessionBatch.

    Every record must be a valid session: session_id and query_id are
    JSON strings and query_id has no tab or line break, intent is a known
    label, docs and clicks are equally long JSON arrays, doc ids are
    distinct strings and every click is the integer 0 or 1. The first
    record that is not raises a SessionFormatError naming its line.
    """
    columns = _BatchColumns()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                columns.add(*_session_record(line))
            except SessionFormatError as exc:
                raise SessionFormatError(str(exc), line_no) from None
    return columns.build()


def _check_grade(query_id: str, doc_id: str, grade: int, line_no: int | None = None) -> None:
    if not 0 <= grade <= 4:
        raise JudgmentError(f"grade {grade} out of range [0, 4] for ({query_id}, {doc_id})",
                            line_no)


@dataclass(frozen=True)
class Judgments:
    """Relevance judgments as columns: grades[i] (0..4) grades the
    (query_id, doc_id) pair keys[i]. No pair is judged twice."""

    keys: list[tuple[str, str]]
    grades: list[int]

    def __len__(self) -> int:
        return len(self.keys)


def write_judgments(path, judgments: Judgments) -> None:
    """Write query_id<TAB>doc_id<TAB>grade records; a grade outside 0..4 is a JudgmentError."""
    for (query_id, doc_id), grade in zip(judgments.keys, judgments.grades):
        _check_grade(query_id, doc_id, grade)
    with open(path, "w", encoding="utf-8") as fh:
        for (query_id, doc_id), grade in zip(judgments.keys, judgments.grades):
            fh.write(f"{query_id}\t{doc_id}\t{grade}\n")


def _tsv_records(path, n_fields: int, error: type) -> Iterator[tuple[int, list[str]]]:
    """The tab-separated records of a sidecar file with their 1-based line
    numbers, blank lines skipped; a record without n_fields fields is an ``error``."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != n_fields:
                raise error(f"expected {n_fields} fields, got {len(fields)}", line_no)
            yield line_no, fields


def read_judgments(path) -> Judgments:
    """Read query_id<TAB>doc_id<TAB>grade records; ASCII-digit grades, no duplicates."""
    keys: dict[tuple[str, str], None] = {}
    grades = []
    for line_no, (query_id, doc_id, raw_grade) in _tsv_records(path, 3, JudgmentError):
        grade = _ascii_int(raw_grade)
        if grade is None:
            raise JudgmentError(f"bad grade {raw_grade!r}", line_no)
        key = (query_id, doc_id)
        if key in keys:
            raise JudgmentError(f"duplicate judgment for {key}", line_no)
        _check_grade(query_id, doc_id, grade, line_no)
        keys[key] = None
        grades.append(grade)
    return Judgments(list(keys), grades)


def write_intent_labels(path, labels: Mapping[str, Intent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query_id in sorted(labels):
            fh.write(f"{query_id}\t{labels[query_id].value}\n")


def read_intent_labels(path) -> dict[str, Intent]:
    """Read query_id<TAB>label records (inf|nav|tra|unk); a repeated query is an error."""
    labels: dict[str, Intent] = {}
    for line_no, (query_id, raw) in _tsv_records(path, 2, LineError):
        if query_id in labels:
            raise LineError(f"duplicate label for query {query_id!r}", line_no)
        try:
            labels[query_id] = Intent(raw)
        except ValueError:
            raise LineError(f"unknown intent label {raw!r}", line_no) from None
    return labels


def attach_intents(batch: SessionBatch, labels: Mapping[str, Intent]) -> SessionBatch:
    """The batch with each session's intent set from a query->intent
    mapping; queries without a label get Unknown."""
    codes = [ALL_INTENTS.index(labels.get(q, Intent.UNKNOWN)) for q in batch.queries]
    return replace(batch, intent=np.array(codes, dtype=np.int8)[batch.query])


def group_by_query(batch: SessionBatch) -> dict[str, SessionBatch]:
    """Each query's sessions as a batch of their own, in the order of
    batch.queries: batch.take of the query's rows, in row order."""
    rows = np.argsort(batch.query, kind="stable")
    ends = np.cumsum(np.bincount(batch.query, minlength=batch.n_queries))[:-1]
    return {q: batch.take(part) for q, part in zip(batch.queries, np.split(rows, ends))}
