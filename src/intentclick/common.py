"""Definitions shared by every stage that need no numpy.

The error kinds, the model kinds, the probability clamp, the defaults the
command line states, the one JSON document layout, the one JSON decoder
and the one position key.
``compare`` and the command-line parser import this without loading
numpy or the model code.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from json.encoder import encode_basestring_ascii


class DataError(Exception):
    """Input data is malformed or violates a format invariant (exit 2)."""


class NumericError(Exception):
    """A numeric computation produced an unusable result (exit 3)."""


PBM = "pbm"
CASCADE = "cascade"
UBM = "ubm"
DBN = "dbn"
MODEL_KINDS = (PBM, CASCADE, UBM, DBN)

# Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] before logs.
PROB_CLAMP = 1e-12

DEFAULT_MAX_POSITIONS = 10
# EM's stopping rule: the largest parameter change, and the step budget.
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITERS = 200
# Idle minutes that end an ingested session.
DEFAULT_GAP_MINUTES = 30.0
# Simulated sessions' informational, navigational and transactional shares.
DEFAULT_INTENT_MIX = (1 / 3, 1 / 3, 1 / 3)
INTENT_MIX_RULE = "intent mix must be three non-negative numbers that sum to 1"
# The NDCG cut-offs eval reports by default.
DEFAULT_K_LIST = (1, 3, 5, 7, 10)
# The n of the nCS and nRS intent features.
DEFAULT_NCS_N = 2
DEFAULT_NRS_N = 3

# JSON numbers; bool is excluded because type(True) is bool, not int.
JSON_NUMBER_TYPES = frozenset((int, float))


def is_intent_mix(mix) -> bool:
    """Whether mix keeps INTENT_MIX_RULE, to within 1e-9 on the sum;
    written so that NaN fails."""
    return len(mix) == 3 and all(p >= 0 for p in mix) and abs(sum(mix) - 1.0) <= 1e-9


def position_from_json(text: str) -> int:
    """str(position) read back; int() also reads "1_0", " 1", "+2" and other scripts' digits."""
    position = int(text)
    if str(position) != text:
        raise ValueError(f"position {text!r} is not written as str() writes an integer")
    return position


def write_json(path, doc) -> None:
    """The one JSON document layout: sorted keys, one-space indent, final
    newline; the bytes of ``json.dump(doc, fh, sort_keys=True, indent=1)``
    and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_indented(fh, doc, "\n")
        fh.write("\n")


def _write_indented(fh, value, newline: str) -> None:
    """Write value as json.dumps(value, sort_keys=True, indent=1) does,
    nested where each of its lines starts with newline.

    json's encoder runs in pure Python whenever it indents, so a float
    table, a non-empty dict of str keys to finite floats, is joined here
    instead, 256 entries a write; other dicts of str keys are walked, and
    every other value is the stdlib encoder's text, re-indented (a JSON
    text has no raw newline inside a string)."""
    if not (type(value) is dict and value and all(type(key) is str for key in value)):
        fh.write(json.dumps(value, sort_keys=True, indent=1).replace("\n", newline))
        return
    inner = newline + " "
    items = sorted(value.items())
    if all(type(v) is float and math.isfinite(v) for v in value.values()):
        for start in range(0, len(items), 256):
            fh.write("," if start else "{")
            fh.write(",".join(f"{inner}{encode_basestring_ascii(key)}: {float.__repr__(v)}"
                              for key, v in items[start:start + 256]))
    else:
        for i, (key, v) in enumerate(items):
            fh.write(f"{',' if i else '{'}{inner}{encode_basestring_ascii(key)}: ")
            _write_indented(fh, v, inner)
    fh.write(newline + "}")


class RepeatedKeyError(ValueError):
    """A JSON object that gives one key twice."""


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        key = next(key for key, n in counts.items() if n > 1)
        raise RepeatedKeyError(f"key {key!r} repeated in one object")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
# What decode_json raises on a text it refuses.
JSON_ERRORS = (json.JSONDecodeError, RecursionError, RepeatedKeyError)


def decode_json(text: str):
    """json.loads(text), except that an object with a repeated key, which
    json would read as its last value, raises RepeatedKeyError."""
    if text.startswith("\ufeff"):
        # json.loads' own refusal, which the decoder alone does not make.
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def read_json(path, what: str):
    """One JSON document; invalid JSON, JSON nested too deeply to decode,
    or an object with a repeated key is a DataError naming ``what``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return decode_json(text)
    except JSON_ERRORS as exc:
        raise DataError(f"invalid {what}: {exc}") from None
