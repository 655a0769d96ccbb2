"""Query-log ingestion and the canonical session/judgment formats.

Raw search logs (AOL-style five-field TSV) are parsed into LogEvents,
grouped into per-query Sessions, and written out as line-delimited JSON
records. Editorial relevance judgments and query intent labels travel as
plain TSV sidecars. Inside the program, models and fitters compute on a
SessionBatch, the columnar form ``encode_sessions`` builds from Sessions.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError

AOL_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"
DEFAULT_GAP_TIMEOUT = timedelta(minutes=30)
DEFAULT_MAX_POSITIONS = 10


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


_PUNCT_TO_DROP = set(string.punctuation) - {"."}


def normalize_query(raw: str) -> str:
    """Lowercase and strip ASCII punctuation, keeping intra-token dots.

    Dots survive only between alphanumerics so URL-like queries
    ("www.foo.com") keep their shape while trailing periods vanish.
    Whitespace is collapsed to single spaces.
    """
    lowered = raw.lower()
    out = []
    for i, ch in enumerate(lowered):
        if ch in _PUNCT_TO_DROP:
            continue
        if ch == ".":
            prev_ok = i > 0 and lowered[i - 1].isalnum()
            next_ok = i + 1 < len(lowered) and lowered[i + 1].isalnum()
            if not (prev_ok and next_ok):
                continue
        out.append(ch)
    return " ".join("".join(out).split())


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Session:
    """One query impression: ranked docs plus aligned binary clicks."""

    session_id: str
    query_id: str
    intent: Intent
    docs: tuple[str, ...]
    clicks: tuple[int, ...]

    def __post_init__(self):
        if len(self.docs) != len(self.clicks):
            raise SessionFormatError(
                f"session {self.session_id}: {len(self.docs)} docs vs "
                f"{len(self.clicks)} clicks"
            )
        if not set(self.clicks) <= {0, 1}:
            raise SessionFormatError(f"session {self.session_id}: clicks must be 0/1")
        if len(set(self.docs)) != len(self.docs):
            raise SessionFormatError(f"session {self.session_id}: duplicate doc ids")

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def total_clicks(self) -> int:
        return sum(self.clicks)

    def clicked_positions(self) -> tuple[int, ...]:
        """1-based positions that were clicked."""
        return tuple(i + 1 for i, c in enumerate(self.clicks) if c)


@dataclass(frozen=True)
class SessionBatch:
    """Sessions as padded (session, position) arrays.

    ``pair`` holds codes into ``keys``, the (query_id, doc_id) pairs the
    batch shows, in the order encode_sessions first saw them, and
    ``clicks`` the 0/1 outcomes (int8). Cells at or beyond a row's entry in
    ``lengths`` are padding, with pair code 0 and no click. ``intent``
    indexes ALL_INTENTS. The width is the longest session's length.
    """

    keys: list[tuple[str, str]]
    pair: np.ndarray
    clicks: np.ndarray
    lengths: np.ndarray
    intent: np.ndarray

    @property
    def width(self) -> int:
        return self.pair.shape[1]

    @property
    def valid(self) -> np.ndarray:
        """Mask of the cells that hold an event, not padding."""
        return np.arange(self.width) < self.lengths[:, None]

    def take(self, rows: np.ndarray) -> "SessionBatch":
        """The given rows, trimmed to their longest session, with keys cut
        to the pairs those rows show (in this batch's key order)."""
        lengths = self.lengths[rows]
        width = int(lengths.max(initial=0))
        pair = self.pair[rows, :width]
        shown = np.bincount(pair[np.arange(width) < lengths[:, None]], minlength=len(self.keys))
        used = np.flatnonzero(shown)
        # Padding keeps code 0: it maps to 0 whether or not key 0 is used.
        code = np.zeros(len(self.keys), dtype=np.int64)
        code[used] = np.arange(len(used))
        keys = [self.keys[k] for k in used.tolist()]
        return SessionBatch(keys, code[pair], self.clicks[rows, :width], lengths, self.intent[rows])

    def by_intent(self) -> list[tuple[Intent, np.ndarray]]:
        """(intent, row indices) for each intent present, in ALL_INTENTS order."""
        groups = [(t, np.flatnonzero(self.intent == k)) for k, t in enumerate(ALL_INTENTS)]
        return [(t, rows) for t, rows in groups if rows.size]


def encode_sessions(sessions: Sequence[Session]) -> SessionBatch:
    """The one conversion of Session records into a SessionBatch."""
    n = len(sessions)
    lengths = np.fromiter(map(len, sessions), dtype=np.int64, count=n)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    index: dict[tuple[str, str], int] = {}
    pair = np.zeros(valid.shape, dtype=np.int64)
    pair[valid] = [index.setdefault((s.query_id, d), len(index)) for s in sessions for d in s.docs]
    clicks = np.zeros(valid.shape, dtype=np.int8)
    clicks[valid] = [c for s in sessions for c in s.clicks]
    intent = np.fromiter((ALL_INTENTS.index(s.intent) for s in sessions), dtype=np.int8, count=n)
    return SessionBatch(list(index), pair, clicks, lengths, intent)


@dataclass(frozen=True)
class RelevanceJudgment:
    """Editorial relevance grade for a (query, doc) pair, 0..4."""

    query_id: str
    doc_id: str
    grade: int

    def __post_init__(self):
        if not 0 <= self.grade <= 4:
            raise JudgmentError(
                f"grade {self.grade} out of range [0, 4] for "
                f"({self.query_id}, {self.doc_id})"
            )


def parse_aol_line(line: str, line_no: int | None = None) -> LogEvent:
    """Parse one AOL-style TSV record into a LogEvent.

    Field order: AnonID, Query, QueryTime, ItemRank, ClickURL. Empty
    ItemRank/ClickURL mean a query-only event.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise MalformedRecordError(
            f"expected 5 tab-separated fields, got {len(fields)}", line_no
        )
    user_id, raw_query, raw_time, raw_rank, raw_url = (f.strip() for f in fields)
    try:
        query_time = datetime.strptime(raw_time, AOL_TIME_FORMAT)
    except ValueError as exc:
        raise MalformedFieldError(f"bad timestamp {raw_time!r}: {exc}", line_no) from None
    rank: int | None = None
    url: str | None = None
    if raw_rank or raw_url:
        try:
            rank = int(raw_rank)
        except ValueError:
            raise MalformedFieldError(f"bad rank {raw_rank!r}", line_no) from None
        url = raw_url
    query = normalize_query(raw_query)
    try:
        return LogEvent(user_id, query, query_time, rank, url or None)
    except MalformedFieldError as exc:
        raise MalformedFieldError(str(exc), line_no) from None


def read_aol_log(path, on_error: str = "raise") -> Iterator[LogEvent]:
    """Yield LogEvents from an AOL-style TSV file.

    A header line (first field "AnonID") is skipped. on_error is "raise"
    or "skip"; with "skip", malformed lines are silently dropped.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if line_no == 1 and line.split("\t")[0].strip() == "AnonID":
                continue
            try:
                yield parse_aol_line(line, line_no)
            except MalformedRecordError:
                if on_error == "raise":
                    raise


@dataclass
class SessionizeResult:
    """Sessions plus bookkeeping for click events kept vs dropped."""

    sessions: list[Session]
    retained_clicks: int = 0
    dropped_clicks: int = 0


def sessionize(
    events: Iterable[LogEvent],
    gap_timeout: timedelta = DEFAULT_GAP_TIMEOUT,
    max_positions: int = DEFAULT_MAX_POSITIONS,
) -> SessionizeResult:
    """Group events (sorted by user, then time) into per-query sessions.

    Consecutive events with the same user and the same normalized query,
    each within gap_timeout of the previous one, form one session. Clicked
    ranks set the click bit; unclicked positions up to the deepest observed
    rank get synthetic placeholder doc ids. Click events beyond
    max_positions are dropped and counted.
    """
    result = SessionizeResult(sessions=[])
    group: list[LogEvent] = []
    user_session_counts: dict[str, int] = {}

    def flush():
        if not group:
            return
        user = group[0].user_id
        query = group[0].query
        seq = user_session_counts.get(user, 0)
        user_session_counts[user] = seq + 1
        clicked: dict[int, str] = {}
        for ev in group:
            if not ev.is_click:
                continue
            if ev.item_rank > max_positions:
                result.dropped_clicks += 1
                continue
            result.retained_clicks += 1
            clicked.setdefault(ev.item_rank, ev.click_url)
        depth = max(clicked) if clicked else 0
        docs: list[str] = []
        clicks: list[int] = []
        for pos in range(1, depth + 1):
            if pos in clicked:
                doc = clicked[pos]
                if doc in docs:
                    doc = f"{doc}#{pos}"
                docs.append(doc)
                clicks.append(1)
            else:
                docs.append(f"q:{query}:pos{pos}")
                clicks.append(0)
        result.sessions.append(
            Session(
                session_id=f"{user}:{seq}",
                query_id=query,
                intent=Intent.UNKNOWN,
                docs=tuple(docs),
                clicks=tuple(clicks),
            )
        )
        group.clear()

    prev: LogEvent | None = None
    for ev in events:
        if prev is not None and (
            ev.user_id != prev.user_id
            or ev.query != prev.query
            or ev.query_time - prev.query_time > gap_timeout
        ):
            flush()
        group.append(ev)
        prev = ev
    flush()
    return result


# JSON numbers; bool is excluded because type(True) is bool, not int.
JSON_NUMBER_TYPES = frozenset((int, float))


def write_json(path, doc) -> None:
    """The one JSON document layout: sorted keys, one-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path, what: str):
    """One JSON document; invalid JSON is a DataError naming ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid {what}: {exc}") from None


def write_sessions(path, sessions: Iterable[Session]) -> None:
    """Write sessions as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sessions:
            record = {
                "session_id": s.session_id,
                "query_id": s.query_id,
                "intent": s.intent.value,
                "docs": list(s.docs),
                "clicks": list(s.clicks),
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_sessions(path) -> list[Session]:
    """Read line-delimited session records, enforcing session invariants:
    session_id and query_id are JSON strings, docs and clicks are JSON
    arrays, every doc id is a string and every click is the integer 0 or 1."""
    sessions = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SessionFormatError(f"invalid JSON: {exc}", line_no) from None
            try:
                intent = Intent(record["intent"])
                session_id, query_id = record["session_id"], record["query_id"]
                docs, clicks = record["docs"], record["clicks"]
                # Session checks clicks are 0/1, which true and 1.0 also pass.
                if not (type(session_id) is str and type(query_id) is str
                        and type(docs) is list and type(clicks) is list
                        and all(type(d) is str for d in docs)
                        and all(type(c) is int for c in clicks)):
                    raise SessionFormatError(
                        "session_id and query_id must be strings, docs and clicks arrays, "
                        "docs of strings, clicks of 0/1 ints"
                    )
                session = Session(
                    session_id=session_id,
                    query_id=query_id,
                    intent=intent,
                    docs=tuple(docs),
                    clicks=tuple(clicks),
                )
            except SessionFormatError as exc:
                raise SessionFormatError(str(exc), line_no) from None
            except (KeyError, TypeError, ValueError) as exc:
                raise SessionFormatError(f"bad session record: {exc}", line_no) from None
            sessions.append(session)
    return sessions


def write_judgments(path, judgments: Iterable[RelevanceJudgment]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j in judgments:
            fh.write(f"{j.query_id}\t{j.doc_id}\t{j.grade}\n")


def read_judgments(path) -> list[RelevanceJudgment]:
    """Read query_id<TAB>doc_id<TAB>grade records; duplicates are errors."""
    judgments = []
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise JudgmentError(f"expected 3 fields, got {len(fields)}", line_no)
            query_id, doc_id, raw_grade = fields
            try:
                grade = int(raw_grade)
            except ValueError:
                raise JudgmentError(f"bad grade {raw_grade!r}", line_no) from None
            key = (query_id, doc_id)
            if key in seen:
                raise JudgmentError(f"duplicate judgment for {key}", line_no)
            seen.add(key)
            try:
                judgments.append(RelevanceJudgment(query_id, doc_id, grade))
            except JudgmentError as exc:
                raise JudgmentError(str(exc), line_no) from None
    return judgments


def write_intent_labels(path, labels: Mapping[str, Intent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query_id in sorted(labels):
            fh.write(f"{query_id}\t{labels[query_id].value}\n")


def read_intent_labels(path) -> dict[str, Intent]:
    """Read query_id<TAB>label records (inf|nav|tra); a repeated query is an error."""
    labels: dict[str, Intent] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise LineError(f"expected 2 fields, got {len(fields)}", line_no)
            query_id, raw = fields
            if query_id in labels:
                raise LineError(f"duplicate label for query {query_id!r}", line_no)
            try:
                labels[query_id] = Intent(raw)
            except ValueError:
                raise LineError(f"unknown intent label {raw!r}", line_no) from None
    return labels


def attach_intents(
    sessions: Sequence[Session], labels: Mapping[str, Intent]
) -> list[Session]:
    """Return sessions relabeled from a query->intent mapping.

    Queries without a label keep (or fall back to) Unknown.
    """
    return [
        replace(s, intent=labels.get(s.query_id, Intent.UNKNOWN)) for s in sessions
    ]


def group_by_query(sessions: Iterable[Session]) -> dict[str, list[Session]]:
    grouped: dict[str, list[Session]] = {}
    for s in sessions:
        grouped.setdefault(s.query_id, []).append(s)
    return grouped
