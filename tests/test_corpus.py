"""Corpus record and JSONL round-trip tests."""

from __future__ import annotations

import json

import pytest

from tqual.corpus import REQUIRED, CorpusRecord, decode, dump_line, encode, iter_jsonl
from tqual.errors import DomainError


def make_record(i: int = 0) -> CorpusRecord:
    return CorpusRecord(
        repo=f"repo{i}",
        focal_class="UploadCommand",
        focal_method="Stop",
        prompt="p",
        test="[TestMethod]\npublic void TestStop()\n{\n}",
    )


def test_record_dict_round_trip():
    record = make_record()
    data = record.to_dict()
    assert data["schema"] == "corpus.v1"
    assert CorpusRecord.from_dict(data) == record


def test_from_dict_defaults_optional_fields():
    record = CorpusRecord.from_dict({"test": "x"})
    assert record.test == "x"
    assert record.repo == ""
    assert record.source == "generated"


@pytest.mark.parametrize("change, message", [
    ({"test": None}, "record needs a string 'test' field"),
    ({"repo": ["a"]}, "record needs a string 'repo' field"),
    ({"focal_method": 42}, "record needs a string 'focal_method' field"),
    ({"source": False}, "record needs a string 'source' field"),
    ({"prompt": "\ud800"}, "record field 'prompt' cannot be encoded as UTF-8"),
])
def test_from_dict_coerces_nothing(change, message):
    with pytest.raises(DomainError) as excinfo:
        CorpusRecord.from_dict({**make_record().to_dict(), **change})
    assert str(excinfo.value) == message


def test_decode_checks_list_items_and_nested_records():
    spec = {"names": ([str], REQUIRED), "inner": (CorpusRecord.from_dict, None)}
    assert decode(dict, {"names": ["a"]}, spec) == {"names": ["a"], "inner": None}
    with pytest.raises(DomainError, match=r"'names\[1\]'"):
        decode(dict, {"names": ["a", 2]}, spec)
    with pytest.raises(DomainError, match="record needs an object 'inner' field"):
        decode(dict, {"names": [], "inner": [{"test": "x"}]}, spec)
    with pytest.raises(DomainError, match="record needs a string 'test' field"):
        decode(dict, {"names": [], "inner": {}}, spec)
    with pytest.raises(DomainError, match="expected a JSON object"):
        decode(dict, ["names"], spec)


def test_encode_adds_the_schema_tag():
    record = make_record()
    assert encode(record, "corpus.v1") == {"schema": "corpus.v1", **vars(record)}


def test_dump_line_is_deterministic():
    data = {"b": 1, "a": 2}
    assert dump_line(data) == dump_line(dict(reversed(list(data.items()))))
    assert json.loads(dump_line(data)) == data


def test_write_then_iter_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = [make_record(i) for i in range(3)]
    path.write_text("".join(dump_line(r.to_dict()) + "\n" for r in records), encoding="utf-8")
    back = [
        CorpusRecord.from_dict(obj) for _, obj, err in iter_jsonl(path) if err is None
    ]
    assert back == records


def test_iter_jsonl_reports_bad_lines_in_place(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text('{"test": "a"}\n\nnot json\n[1, 2]\n{"test": "b"}\n')
    triples = list(iter_jsonl(path))
    assert [n for n, _, _ in triples] == [1, 3, 4, 5]
    assert triples[0][2] is None
    assert "invalid JSON" in triples[1][2]
    assert "expected a JSON object" in triples[2][2]
    assert triples[3][2] is None
