"""README facts checked against the code they describe, so the two cannot drift."""

from __future__ import annotations

from pathlib import Path

from test_cli import SECTIONS_READ, takes_config
from tqual import cli
from tqual.analyzer import PROPERTIES, PROPERTY_FIELDS, QualityReport, ScoreConfig
from tqual.curation import is_golden
from tqual.rewards import canonical_property

README = Path(__file__).parent.parent / "README.md"


def property_rows() -> list[list[str]]:
    """The cells of each row of README's "Quality properties" table."""
    section = README.read_text(encoding="utf-8").split("## Quality properties\n", 1)[1]
    lines = section.strip().split("\n\n", 1)[0].splitlines()
    assert lines[0].startswith("| Property | Meaning | Reward names |")
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def names(cell: str) -> tuple[str, ...]:
    return tuple(part.strip().strip("`") for part in cell.split(",") if part.strip())


def test_readme_lists_every_property_in_report_order_with_its_reward_names():
    rows = property_rows()
    assert [names(row[0])[0] for row in rows] == list(PROPERTY_FIELDS)
    for row, prop in zip(rows, PROPERTIES):
        want = (prop.name, *prop.short_names) if prop.desirable is not None else ()
        assert names(row[2]) == want, prop.name
        assert all(canonical_property(name) == prop.name for name in want)


def test_readme_marks_what_the_golden_filter_and_the_default_score_read():
    rows = {names(row[0])[0]: row for row in property_rows()}
    states = {"present": True, "absent": False}
    golden = {prop: states[row[3]] for prop, row in rows.items() if row[3]}
    values = {prop: golden.get(prop, False) for prop in rows}
    assert is_golden(QualityReport(focal_method_name="Stop", **values))
    for prop in rows:
        flipped = QualityReport(focal_method_name="Stop", **{**values, prop: not values[prop]})
        assert is_golden(flipped) == (prop not in golden), prop

    config = ScoreConfig()
    assert tuple(p for p, row in rows.items() if row[4] == "+") == config.positive_properties
    assert tuple(p for p, row in rows.items() if row[4] == "−") == config.smell_properties
    assert {row[4] for row in rows.values()} == {"+", "−", ""}


def config_sections() -> dict[str, tuple[str, ...]]:
    """The commands README's "Configuration" list names, with the sections
    it says each one reads."""
    section = README.read_text(encoding="utf-8").split("### Configuration\n", 1)[1]
    lead = "Six commands take `--config`, and each reads these sections of it:\n\n"
    items = section.split(lead, 1)[1].split("\n\n", 1)[0].splitlines()
    listed = {}
    for item in items:
        command, _, sections = item.removeprefix("- ").partition(": ")
        listed[command.strip("`")] = names(sections)
    return listed


def test_readme_names_the_commands_that_take_config():
    # SECTIONS_READ is checked against what each command builds in test_cli.py.
    listed = config_sections()
    assert set(listed) == {name for name in cli._COMMANDS if takes_config(name)}
    assert listed == {name: tuple(sections) for name, sections in SECTIONS_READ.items()}
