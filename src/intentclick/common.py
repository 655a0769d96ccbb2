"""Definitions shared by every stage that need no numpy.

The model kinds, the probability clamp, the size defaults the command
line states, and the one JSON document layout. ``compare`` and the
command-line parser import this without loading numpy or the model code.
"""

from __future__ import annotations

import json

from .errors import DataError

PBM = "pbm"
CASCADE = "cascade"
UBM = "ubm"
DBN = "dbn"
MODEL_KINDS = (PBM, CASCADE, UBM, DBN)

# Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] before logs.
PROB_CLAMP = 1e-12

DEFAULT_MAX_POSITIONS = 10
# The n of the nCS and nRS intent features.
DEFAULT_NCS_N = 2
DEFAULT_NRS_N = 3

# JSON numbers; bool is excluded because type(True) is bool, not int.
JSON_NUMBER_TYPES = frozenset((int, float))


def write_json(path, doc) -> None:
    """The one JSON document layout: sorted keys, one-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path, what: str):
    """One JSON document; invalid JSON, or JSON nested too deeply to
    decode, is a DataError naming ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"invalid {what}: {exc}") from None
