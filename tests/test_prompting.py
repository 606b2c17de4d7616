"""Prompt builder tests: context levels, budgets, and path conventions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lexer import CODE_FRAGMENTS
from test_snapshot import FOCAL_FILES, _as_class, _soups
from tqual import prompting
from tqual.errors import FocalNotFound, PromptTooLong
from tqual.lexer import OFFSET, TEXT, scan
from tqual.parser import parse_focal_file
# Aliased: the library name starts with "test_" and pytest would try to
# collect it as a test function otherwise.
from tqual.prompting import test_path_for as path_for
from tqual.prompting import (
    BudgetConfig,
    build_prompt,
    estimate_tokens,
    render_level,
)

# Member-shaped pieces for class bodies: methods (one named Run, which
# renders), fields, properties, comments, a nested class and line breaks.
MEMBER_FRAGMENTS = [
    "void Run() { x = 1; }", "int M(int a) => a;", "void N();", "int f;",
    "int g = 1, h;", "public int P { get; set; } = 2;", "// note\n",
    "/* block */", "class B { int y; void Run() { } }", "\n", "    ",
]


@pytest.fixture(scope="module")
def inventory_tree(inventory_source):
    return parse_focal_file(inventory_source)


@pytest.fixture(scope="module")
def upload_tree(upload_source):
    return parse_focal_file(upload_source)


# ── token estimation and paths ───────────────────────────────────────


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("") == 0
    assert estimate_tokens("a") == 1
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


def test_estimate_tokens_at_budget_boundary():
    assert estimate_tokens("x" * 6144) == 1536


def test_estimate_tokens_respects_config():
    assert estimate_tokens("abcdefgh", BudgetConfig(chars_per_token=8)) == 1


def test_test_path_convention():
    assert path_for("src/Commands/UploadCommand.cs") == "src/Commands/TestUploadCommand.cs"
    assert path_for("Foo.cs") == "TestFoo.cs"


def test_budget_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(prompt_token_budget=0)
    with pytest.raises(ValueError):
        BudgetConfig(chars_per_token=0)
    with pytest.raises(ValueError):
        BudgetConfig(prompt_token_budget=2000, completion_token_budget=512)


# ── context levels ───────────────────────────────────────────────────


def test_level_1_is_the_whole_file(inventory_tree, inventory_source):
    assert render_level(inventory_tree, "Reserve", 1) == inventory_source


def test_level_2_keeps_focal_body_and_reduces_siblings(inventory_tree):
    text = render_level(inventory_tree, "Reserve", 2)
    # Focal body survives.
    assert "_stock[sku] -= quantity;" in text
    # Sibling bodies are gone but their signatures remain.
    assert "public void Receive(string sku, int quantity);" in text
    assert "_stock[sku] += quantity;" not in text


def test_level_3_drops_fields_and_comments(inventory_tree):
    level2 = render_level(inventory_tree, "Reserve", 2)
    level3 = render_level(inventory_tree, "Reserve", 3)
    assert "Dictionary<string, int> _stock" in level2
    assert "Dictionary<string, int> _stock" not in level3
    assert "//" in level2
    assert "//" not in level3


def test_a_field_with_several_declarators_is_one_span():
    source = ("class C {\n"
              "    int a, b;\n"
              "    int c = F(x, y), d = 2;\n"
              "    public void Run() { a = c; }\n"
              "}")
    tree = parse_focal_file(source)
    (cls,) = tree.classes
    assert [source[slice(*span)] for span in cls.fields] == [
        "int a, b;", "int c = F(x, y), d = 2;"]
    level2 = render_level(tree, "Run", 2)
    assert "    int a, b;\n    int c = F(x, y), d = 2;\n" in level2
    assert render_level(tree, "Run", 3) == "class C {\n    public void Run() { a = c; }\n}"


def test_level_4_keeps_only_declaration_and_focal_method(inventory_tree):
    text = render_level(inventory_tree, "Reserve", 4)
    assert "class InventoryService" in text
    assert "Reserve" in text
    assert "Receive" not in text
    assert "LowStock" not in text


def test_levels_shrink_monotonically_for_every_method(
    inventory_tree, upload_tree
):
    for tree in (inventory_tree, upload_tree):
        for cls in tree.walk_classes():
            for method in cls.methods:
                lengths = [
                    len(render_level(tree, method.name, level))
                    for level in (1, 2, 3, 4)
                ]
                assert lengths == sorted(lengths, reverse=True), method.name


@pytest.mark.parametrize("path", sorted(FOCAL_FILES.glob("*.cs")), ids=lambda p: p.name)
def test_crlf_files_render_as_their_lf_renders(path):
    source = path.read_text(encoding="utf-8")
    lf, crlf = parse_focal_file(source), parse_focal_file(source.replace("\n", "\r\n"))
    for cls in lf.walk_classes():
        for method in cls.methods:
            for level in (1, 2, 3, 4):
                expected = render_level(lf, method.name, level).replace("\n", "\r\n")
                assert render_level(crlf, method.name, level) == expected, (method.name, level)


def test_level_4_drops_a_nested_class():
    tree = parse_focal_file(
        "class A {\n    void Run() { }\n    class B { int x; }\n    int f;\n}\n"
    )
    assert render_level(tree, "Run", 4) == "class A {\n    void Run() { }\n}"


# A focal class whose members are typed with tuples.
TUPLE_CLASS = (
    "public class Cart {\n"
    "    private (int Count, decimal Total) _summary;\n"
    "    private readonly Dictionary<string, (int, int)> _holds = new();\n"
    "    public async Task<(bool Ok, string Error)> CheckoutAsync(string user) { return (true, user); }\n"
    "    public (int, int) Split(int n) { return (n / 2, n - n / 2); }\n"
    "    public int Count() => _summary.Count;\n"
    "}"
)


def test_tuple_typed_members_render_as_methods_and_fields():
    tree = parse_focal_file(TUPLE_CLASS)
    assert render_level(tree, "CheckoutAsync", 2) == (
        "public class Cart {\n"
        "    private (int Count, decimal Total) _summary;\n"
        "    private readonly Dictionary<string, (int, int)> _holds = new();\n"
        "    public async Task<(bool Ok, string Error)> CheckoutAsync(string user) { return (true, user); }\n"
        "    public (int, int) Split(int n);\n"
        "    public int Count();\n"
        "}")
    assert render_level(tree, "Split", 3) == (
        "public class Cart {\n"
        "    public async Task<(bool Ok, string Error)> CheckoutAsync(string user);\n"
        "    public (int, int) Split(int n) { return (n / 2, n - n / 2); }\n"
        "    public int Count();\n"
        "}")


def reference_apply_edits(text: str, edits: list[tuple[int, int, str]]) -> str:
    """``_apply_edits`` with the merge of partly overlapping deletions that
    it once had: edits nested inside another are dropped, overlapping
    deletions are merged."""
    cleaned: list[tuple[int, int, str]] = []
    for start, end, repl in sorted(edits, key=lambda e: (e[0], -(e[1]))):
        if cleaned:
            prev_start, prev_end, prev_repl = cleaned[-1]
            if start >= prev_start and end <= prev_end:
                continue  # fully covered
            if start < prev_end:  # partial overlap: only deletions do this
                cleaned[-1] = (prev_start, max(prev_end, end), prev_repl if prev_repl else repl)
                continue
        cleaned.append((start, end, repl))
    out: list[str] = []
    pos = 0
    for start, end, repl in cleaned:
        out.append(text[pos:start])
        out.append(repl)
        pos = max(pos, end)
    out.append(text[pos:])
    return "".join(out)


def recorded_edits(source: str) -> list[tuple[str, list[tuple[int, int, str]]]]:
    """The (text, edits) of every ``_apply_edits`` call that rendering each
    method of ``source`` at levels 2 to 4 makes."""
    calls = []
    real = prompting._apply_edits

    def recording(text, edits):
        calls.append((text, list(edits)))
        return real(text, edits)

    tree = parse_focal_file(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompting, "_apply_edits", recording)
        for cls in tree.walk_classes():
            for method in cls.methods:
                for level in (2, 3, 4):
                    render_level(tree, method.name, level)
    return calls


def check_edits(text: str, edits: list[tuple[int, int, str]]) -> int:
    """Assert that every two edits are nested or disjoint and that the
    render matches the reference; returns the number of nested pairs."""
    nested = 0
    for i, (a, b, _) in enumerate(edits):
        for c, d, _ in edits[i + 1:]:
            inside = a <= c and d <= b or c <= a and b <= d
            assert inside or b <= c or d <= a, (text, edits)
            nested += inside
    assert prompting._apply_edits(text, edits) == reference_apply_edits(text, edits)
    return nested


@given(st.lists(st.sampled_from(CODE_FRAGMENTS + MEMBER_FRAGMENTS * 3), max_size=40))
@settings(max_examples=300, deadline=None)
def test_edits_match_the_reference_on_class_soups(fragments):
    for text, edits in recorded_edits(_as_class("".join(fragments))):
        check_edits(text, edits)


def test_edits_match_the_reference_on_the_fixtures_and_nest():
    nested = 0
    for path in sorted(FOCAL_FILES.glob("*.cs")):
        for text, edits in recorded_edits(path.read_text(encoding="utf-8")):
            nested += check_edits(text, edits)
    nested += sum(check_edits(text, edits) for text, edits in recorded_edits(_as_class(
        "// lead\n    void Run() { }\n    int f; // f\n"
        "    class B { /* b */ int y; }\n    void M() { }\n")))
    # Nested edits occur, so dropping them is exercised.
    assert nested > 0


def test_unknown_level_rejected(inventory_tree):
    with pytest.raises(ValueError):
        render_level(inventory_tree, "Reserve", 5)


def test_unknown_method_raises(inventory_tree):
    with pytest.raises(FocalNotFound):
        render_level(inventory_tree, "NoSuchMethod", 1)


# ── prompt assembly ──────────────────────────────────────────────────


def test_prompt_uses_level_1_when_budget_is_large(inventory_tree):
    record = build_prompt(inventory_tree, "Reserve", "src/InventoryService.cs")
    assert record.context_level == 1
    assert record.focal_path == "src/InventoryService.cs"
    assert record.test_path == "src/TestInventoryService.cs"
    assert record.prompt_text.endswith("[TestMethod]\npublic void TestReserve")
    assert record.estimated_tokens == estimate_tokens(record.prompt_text)


def test_prompt_picks_minimal_fitting_level(inventory_tree):
    sizes = {}
    for level in (1, 2, 3, 4):
        context = render_level(inventory_tree, "Reserve", level)
        prompt = (
            f"src/InventoryService.cs:\n{context}\n"
            "src/TestInventoryService.cs:\n[TestMethod]\npublic void TestReserve"
        )
        sizes[level] = estimate_tokens(prompt)
    assert sizes[1] > sizes[2] > sizes[4]

    # A budget strictly between level 2 and level 1 must select level 2.
    budget = sizes[1] - 1
    cfg = BudgetConfig(
        prompt_token_budget=budget,
        completion_token_budget=512,
        model_context=budget + 512,
    )
    record = build_prompt(inventory_tree, "Reserve", "src/InventoryService.cs", cfg)
    assert record.context_level == 2
    assert record.estimated_tokens <= budget


def test_prompt_too_long_when_even_level_4_overflows(inventory_tree):
    cfg = BudgetConfig(
        prompt_token_budget=10, completion_token_budget=10, model_context=20
    )
    with pytest.raises(PromptTooLong):
        build_prompt(inventory_tree, "Reserve", "src/InventoryService.cs", cfg)


def test_prompt_record_dict(inventory_tree):
    record = build_prompt(inventory_tree, "Reserve", "src/InventoryService.cs")
    data = record.to_dict()
    assert data["schema"] == "prompt.v1"
    assert data["context_level"] == 1
    assert data["prompt_text"] == record.prompt_text


def test_build_prompt_walks_the_classes_once(monkeypatch):
    """One walk over the file's classes per prompt, however many levels it
    tries, and the prompt that the level's render gives."""
    count = 300
    source = "".join(f"class C{i}\n{{\n    void M{i}() {{ Run({i}); }}\n}}\n"
                     for i in range(count))
    tree = parse_focal_file(source)
    # Level 1, the whole file, does not fit; level 2, one class, does.
    cfg = BudgetConfig(prompt_token_budget=64, completion_token_budget=64, model_context=128)
    walks = []
    walk_classes = type(tree).walk_classes

    def counted(self):
        walks.append(self)
        yield from walk_classes(self)

    for i in (0, count // 2, count - 1):
        context = render_level(tree, f"M{i}", 2)
        monkeypatch.setattr(type(tree), "walk_classes", counted)
        record = build_prompt(tree, f"M{i}", "src/C.cs", cfg)
        monkeypatch.undo()
        assert record.context_level == 2
        assert record.prompt_text.startswith(f"src/C.cs:\n{context}\n")
        assert sum(walked is tree for walked in walks) == 1
        walks.clear()


# ── comment ownership ────────────────────────────────────────────────


def reference_class_comments(tree) -> list[list[tuple[int, int]]]:
    """Comment spans per class in ``walk_classes`` order, owned the way the
    parser once attached them: each comment goes to the innermost class
    whose span holds it, and a class's comments are those of every class
    in its ``walk()``."""
    comments = [(t[OFFSET], t[OFFSET] + len(t[TEXT])) for t in scan(tree.source)[1]]
    classes = list(tree.walk_classes())
    owned: dict[int, list[tuple[int, int]]] = {id(cls): [] for cls in classes}
    for span in comments:
        owner = None
        for cls in classes:
            if cls.span[0] <= span[0] and span[1] <= cls.span[1]:
                if owner is None or (cls.span[1] - cls.span[0]) < (owner.span[1] - owner.span[0]):
                    owner = cls
        if owner is not None:
            owned[id(owner)].append(span)
    return [sorted(span for node in cls.walk() for span in owned[id(node)])
            for cls in classes]


NESTED_CLASS_CASES = [
    "class A { // a\n class B { /* b */ class C { // c\n } } // a2\n }",
    "// top\nnamespace N { /* n */ class A { } // between\n class B { // b\n } }",
    "class A { // a\n class B { // b\n void M() { /* m */ } ",  # unclosed nested type
    "class A { class B // b\n } // a\n",  # bodiless nested type
    "class A { struct S; // s\n interface I : IFoo ; /* i */ }",
    "class A { enum E { X /* x */ } // a\n record R(int x); }",
    "#if DEBUG\nclass A {\n#endif\n class B { } /* a */ }\n// after",
    "class A { int f; // f\n } class B { /* b */ } // tail",
]


@pytest.mark.parametrize("source", NESTED_CLASS_CASES)
def test_class_comments_match_the_attach_reference(source):
    tree = parse_focal_file(source)
    assert [tree.comments_within(cls.span) for cls in tree.walk_classes()] \
        == reference_class_comments(tree)


def test_class_comments_match_the_attach_reference_on_the_snapshot_corpus():
    fixtures = [p.read_text(encoding="utf-8") for p in sorted(FOCAL_FILES.glob("*.cs"))]
    soups = _soups()
    owned = 0
    for source in fixtures + [_as_class(s) for s in soups] + soups:
        tree = parse_focal_file(source)
        got = [tree.comments_within(cls.span) for cls in tree.walk_classes()]
        assert got == reference_class_comments(tree), source
        owned += sum(map(len, got))
    assert owned > 100
