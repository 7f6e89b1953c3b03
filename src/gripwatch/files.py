"""The on-disk formats: one reader and one writer per kind of file.

A document file (model, geometry, report) is one JSON object and a newline.
A line file (episode log, feature file) is JSON Lines: a header object that
names the file's ``format`` and ``version``, then one object per record.

Every reader reports malformed content, including invalid UTF-8, as
ParseError and a header of another version as VersionMismatch. An OSError
passes through as itself. One rule decides what a record that is not what
its reader expects raises: the reader builds it inside ``malformed(what,
line)``, which turns any exception of MALFORMED (KeyError, TypeError,
ValueError, OverflowError, GripwatchError) into one ParseError that starts
with ``what``; a missing key reads ``no 'x' field``. ``detect`` catches the
same MALFORMED per line and reports each line by its own class.

What a number is, for every record that holds one, is decided here too. A
reader hands the raw JSON values to a record, which checks them by these rules;
a JSON list becomes an array through ``number_array``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import GripwatchError, ParseError, VersionMismatch

# What building a record from JSON values its reader does not expect raises: a
# missing key, a wrong type or value, a number past float, or the record's check.
MALFORMED = (KeyError, TypeError, ValueError, OverflowError, GripwatchError)


def is_number(value) -> bool:
    """An int or a float, numpy scalars included; never a bool (which Python
    counts as an int) or a string."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """A number that is an int or a numpy integer."""
    return is_number(value) and isinstance(value, (int, np.integer))


def is_number_array(array: np.ndarray) -> bool:
    """An array of numbers: of integer or float dtype, or, as numpy holds
    integers past 64 bits, of object dtype with every entry a number."""
    kind = array.dtype.kind
    return kind in "iuf" or (kind == "O" and all(map(is_number, array.flat)))


def number_array(values) -> np.ndarray:
    """The array of a JSON value that should hold numbers. numpy reads a lone
    true or false among numbers as 1 or 0, so a bool in a number array is
    refused here, by one scan of its entries; the record checks the rest."""
    array = np.array(values)
    if array.ndim and array.dtype.kind in "iuf":
        entries = values
        for _ in range(array.ndim - 1):
            entries = chain.from_iterable(entries)
        if bool in set(map(type, entries)):
            raise TypeError("true or false among numbers")
    return array


def _object(data: bytes, what: str, line=None) -> dict:
    try:
        value = json.loads(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 in {what}: {exc.reason}", line=line) from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ParseError(f"invalid JSON in {what}: {getattr(exc, 'msg', exc)}", line=line) from exc
    if not isinstance(value, dict):
        raise ParseError(f"{what} is not a JSON object", line=line)
    return value


@contextmanager
def malformed(what: str, line=None):
    """Re-raise a MALFORMED exception of the block as one ParseError that
    starts with ``what`` (if any); a ParseError passes through unchanged."""
    try:
        yield
    except ParseError:
        raise
    except MALFORMED as exc:
        reason = f"no {exc} field" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"{what}: {reason}" if what else reason, line=line) from exc


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_json(path, what: str) -> dict:
    """The JSON object a document file holds; ``what`` names it in errors."""
    with open(path, "rb") as fh:
        return _object(fh.read(), f"{what} file")


def check_header(record: dict, fmt: str, version: int, line=None) -> None:
    if record.get("format") != fmt:
        raise ParseError(f"expected format {fmt!r}, got {record.get('format')!r}", line=line)
    if record.get("version") != version:
        raise VersionMismatch(f"unsupported {fmt} version {record.get('version')!r}")


def write_jsonl(path, header: dict, records) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path, fmt: str, version: int):
    """Yield (line number, object) for the header and then each record.

    The header is the first non-blank line; blank lines are skipped.
    """
    header_seen = False
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            record = _object(line, "record", lineno)
            if not header_seen:
                check_header(record, fmt, version, lineno)
                header_seen = True
            yield lineno, record
    if not header_seen:
        raise ParseError(f"no {fmt} header")
