"""Definitions shared by every stage that need no numpy.

The model kinds, the probability clamp, the size defaults the command
line states, the one JSON document layout and the one position key.
``compare`` and the command-line parser import this without loading
numpy or the model code.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

from .errors import DataError

PBM = "pbm"
CASCADE = "cascade"
UBM = "ubm"
DBN = "dbn"
MODEL_KINDS = (PBM, CASCADE, UBM, DBN)

# Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] before logs.
PROB_CLAMP = 1e-12

DEFAULT_MAX_POSITIONS = 10
# The NDCG cut-offs eval reports by default.
DEFAULT_K_LIST = (1, 3, 5, 7, 10)
# The n of the nCS and nRS intent features.
DEFAULT_NCS_N = 2
DEFAULT_NRS_N = 3

# JSON numbers; bool is excluded because type(True) is bool, not int.
JSON_NUMBER_TYPES = frozenset((int, float))


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


def read_json(path, what: str):
    """One JSON document; invalid JSON, or JSON nested too deeply to
    decode, is a DataError naming ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"invalid {what}: {exc}") from None
