"""The record that flows through the pipeline, the wire format of every
record type, JSONL helpers for it, and the one opener of every input file."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

from .errors import DomainError

__all__ = ["REQUIRED", "CorpusRecord", "encode", "decode", "check_input", "read_input",
           "iter_jsonl", "dump_line"]

# The default of a field that a record must carry.
REQUIRED = object()

# What each scalar kind accepts and how messages name it.  Booleans are
# JSON's own type: ``true`` is never an integer or a number.
_SCALARS = {str: (str, "a string"), bool: (bool, "a boolean"),
            int: (int, "an integer"), float: ((int, float), "a number")}


def encode(obj: Any, schema: str) -> dict:
    """``{"schema": schema, **fields}`` for a dataclass record.  Nested
    records and arrays take their own wire form; fields that are not
    constructor arguments are left out."""
    data: dict[str, Any] = {"schema": schema}
    for f in dataclasses.fields(obj):
        if f.init:
            value = getattr(obj, f.name)
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            elif hasattr(value, "tolist"):
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            data[f.name] = value
    return data


def decode(cls: Callable[..., Any], data: Any, spec: dict[str, tuple[Any, Any]],
           schema: str | None = None) -> Any:
    """``cls(**fields)`` from a parsed JSON object, checked against ``spec``.

    ``spec`` maps each field to ``(kind, default)``.  A kind is ``str``,
    ``bool``, ``int``, ``float`` (any number), a one-element list ``[kind]``
    for a list of that kind, or a nested record's ``from_dict``, which gets
    the field's object.  An absent field takes its default unless that is
    ``REQUIRED``.  Nothing is coerced: a wrong type, a missing required
    field or a string that cannot be encoded as UTF-8 raises a DomainError
    naming the field.  With ``schema``, the object's ``schema`` tag must
    equal it."""
    if not isinstance(data, dict):
        raise DomainError("expected a JSON object")
    if schema is not None and data.get("schema") != schema:
        raise DomainError(f"unsupported schema {data.get('schema')!r}, expected {schema!r}")
    fields = {}
    for name, (kind, default) in spec.items():
        if name in data or default is REQUIRED:
            fields[name] = _check(data.get(name), kind, name)
        else:
            fields[name] = default
    return cls(**fields)


def _check(value: Any, kind: Any, name: str) -> Any:
    """``value`` if it is of ``kind``, with list items checked and a nested
    record decoded; else a DomainError naming the field."""
    if isinstance(kind, list):
        types, what = list, "a list"
    else:
        types, what = _SCALARS.get(kind, (dict, "an object"))
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise DomainError(f"record needs {what} {name!r} field")
    if isinstance(kind, list):
        return [_check(item, kind[0], f"{name}[{i}]") for i, item in enumerate(value)]
    if types is dict:
        return kind(value)
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError(f"record field {name!r} cannot be encoded as UTF-8") from None
    return value


_CORPUS_FIELDS = {
    "repo": (str, ""),
    "focal_class": (str, ""),
    "focal_method": (str, ""),
    "prompt": (str, ""),
    "test": (str, REQUIRED),
    "source": (str, "generated"),
}


@dataclass(frozen=True)
class CorpusRecord:
    """One (prompt, generated test) pair with its provenance metadata."""

    repo: str
    focal_class: str
    focal_method: str
    prompt: str
    test: str
    source: str = "generated"  # "generated" | "human"

    def to_dict(self) -> dict:
        return encode(self, "corpus.v1")

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusRecord":
        """Raises DomainError unless ``test`` is a string and every other
        field present is one."""
        return decode(cls, data, _CORPUS_FIELDS)


def dump_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def check_input(path: str | Path) -> None:
    """Raise a DomainError unless ``path`` names a file."""
    if not path:
        raise DomainError("empty input file path")
    if not os.path.isfile(path):
        why = " (the path holds a null byte)" if "\0" in str(path) else ""
        raise DomainError(f"input file not found: {path}{why}")


def _open_input(path: str | Path) -> TextIO:
    """``path`` as UTF-8 text past a leading byte-order mark, with bytes
    that are not UTF-8 read as lone surrogates."""
    check_input(path)
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def read_input(path: str | Path, parse: Callable[[str], Any] | None = None) -> Any:
    """The whole text of the input file ``path``, or ``parse(text)``.  A
    DomainError names the path and the line of the first byte that is not
    UTF-8; a ValueError, RecursionError or DomainError from ``parse``
    becomes a DomainError that names the path."""
    with _open_input(path) as handle:
        text = handle.read()
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            line = text.count("\n", 0, exc.start) + 1
            raise DomainError(f"{path}: line {line}: bytes that are not UTF-8") from None
    if parse is None:
        return text
    try:
        return parse(text)
    except (ValueError, RecursionError, DomainError) as exc:
        raise DomainError(f"{path}: {exc}") from None


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict | None, str | None]]:
    """Stream (line_number, parsed_object, error) triples.

    Blank lines are skipped.  A line that fails to parse, or parses to
    something other than an object, yields (n, None, message) so callers
    can keep their output aligned with the input; the message does not
    repeat the line number.  The file is opened as ``read_input`` opens it,
    but bytes that are not UTF-8 stay in the line as lone surrogates,
    which ``decode`` rejects in any field it reads."""
    with _open_input(path) as handle:
        for n, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                yield n, None, f"invalid JSON ({exc.msg})"
                continue
            except RecursionError:
                yield n, None, "invalid JSON (nested too deep)"
                continue
            if not isinstance(obj, dict):
                yield n, None, "expected a JSON object"
                continue
            yield n, obj, None
