"""The record that flows through the pipeline, and JSONL helpers for it."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DomainError

__all__ = ["CorpusRecord", "iter_jsonl", "write_jsonl", "dump_line"]


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
        return {
            "schema": "corpus.v1",
            "repo": self.repo,
            "focal_class": self.focal_class,
            "focal_method": self.focal_method,
            "prompt": self.prompt,
            "test": self.test,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusRecord":
        """Raises DomainError unless ``test`` is a string."""
        if not isinstance(data.get("test"), str):
            raise DomainError("record needs a string 'test' field")
        return cls(
            repo=str(data.get("repo", "")),
            focal_class=str(data.get("focal_class", "")),
            focal_method=str(data.get("focal_method", "")),
            prompt=str(data.get("prompt", "")),
            test=data["test"],
            source=str(data.get("source", "generated")),
        )


def dump_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict | None, str | None]]:
    """Stream (line_number, parsed_object, error) triples.

    Blank lines are skipped.  A line that fails to parse, or parses to
    something other than an object, yields (n, None, message) so callers
    can keep their output aligned with the input."""
    with open(path, encoding="utf-8") as handle:
        for n, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                yield n, None, f"line {n}: invalid JSON ({exc.msg})"
                continue
            if not isinstance(obj, dict):
                yield n, None, f"line {n}: expected a JSON object"
                continue
            yield n, obj, None


def write_jsonl(path: str | Path, objs: Iterable[dict]) -> int:
    """Write dicts one per line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for obj in objs:
            handle.write(dump_line(obj))
            handle.write("\n")
            count += 1
    return count
