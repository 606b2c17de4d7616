"""Doubling tests: every reader of the token stream runs in linear time.

Each case builds one repeated fragment at n and at 4n repeats and compares
the best of three timings of each.  Linear code reads about 4x (less,
where fixed costs show), quadratic code about 16x; the bound is 8x.  Every
input stays under 50 kB, so that a quadratic path shows as seconds, not
minutes.
"""

from __future__ import annotations

import gc
import time

import pytest

from tqual import parser
from tqual.analyzer import analyze
from tqual.completion import RawCompletion, prompt_hint_for, truncate_completion
from tqual.lexer import scan, tokenize
from tqual.parser import parse_focal_file
from tqual.prompting import PromptTooLong, build_prompt

BOUND = 8.0
MAX_CHARS = 50_000


def _as_method(body: str) -> str:
    return f"[TestMethod]\npublic void TestRun()\n{{\n{body}\n}}"


def _as_class(body: str) -> str:
    return f"namespace N {{\nclass C {{\n{body}\n}}\n}}"


def _analyze(source: str) -> None:
    analyze(source, "Run")


def _truncate(completion: str) -> None:
    truncate_completion(RawCompletion(prompt_hint_for("Run"), completion))


def _prompt(source: str) -> None:
    try:
        build_prompt(parse_focal_file(source), "Run", "src/C.cs")
    except PromptTooLong:  # every level was rendered
        pass


def _body(fragment: str):
    return lambda n: _as_method(fragment * n)


def _members(fragment: str):
    return lambda n: _as_class(fragment * n)


# name -> (n, the input at n repeats, what reads it)
CASES = {
    # test bodies
    "unclosed a<b,": (400, _body("a<b, "), _analyze),
    "unclosed Foo(": (800, _body("Foo("), _analyze),
    "ternary chain": (600, lambda n: _as_method("x = " + "c ? a : " * n + "b;"), _analyze),
    "interpolation holes": (200, _body('s = $"{a}{b.Run()}";\n'), _analyze),
    'unclosed $"{': (1500, _body('$"{'), _analyze),
    "new X<": (400, _body("new X<"), _analyze),
    "stray > (": (800, _body("> ("), _analyze),
    "a > (b);": (300, _body("a > (b);\n"), _analyze),
    "x.M<T>(a<b);": (200, _body("x.M<T>(a<b);\n"), _analyze),
    "[a] lines": (800, _body("[a]\n"), _analyze),
    "a<b;": (400, _body("a<b;"), _analyze),
    "a<b<c;": (400, _body("a<b<c;"), _analyze),
    "a<b)": (400, _body("a<b)"), _analyze),
    "(a<<))": (300, _body("(a<<))"), _analyze),
    # focal files
    "operator >( members": (200, _members("bool operator >(C a, C b) => true;\n"),
                            parse_focal_file),
    "int > (x); members": (300, _members("int > (x);\n"), parse_focal_file),
    "(); members": (400, _members("();\n"), parse_focal_file),
    "generic methods": (200, _members("List<T> M<T, U<V>>(T a) where T : U { }\n"),
                        parse_focal_file),
    "unclosed class C { runs": (300, lambda n: "class C {" * n, parse_focal_file),
    "attributed fields": (300, _members("[A(1)] int x;\n"), parse_focal_file),
    "unterminated members": (800, _members("public int x "), parse_focal_file),
    "comments in classes": (200, lambda n: "class C { // c\n /* d */ int x; }\n" * n,
                            parse_focal_file),
    # the lexer and the stages around the parsers
    ";[a runs": (1000, lambda n: ";[a" * n, tokenize),
    "truncation": (300, lambda n: "\n  x.Run(); // }\n" * n + "}\n[TestMethod]", _truncate),
    "prompt building": (150, _members(
        "void Run() { }\n/* c */ int f;\nvoid M<T>(int a) { a.Run(); }\n"), _prompt),
}


def _ratio(run, small, large) -> float:
    """Best time on ``large`` over best time on ``small``, three runs each,
    interleaved.  A ratio over the bound is measured twice more, keeping
    every run, so that one burst of load on the host does not fail linear
    code; quadratic code reads about 16x however often it runs."""
    best = {small: float("inf"), large: float("inf")}
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for _ in range(3):
                for source in (small, large):
                    start = time.perf_counter()
                    run(source)
                    best[source] = min(best[source], time.perf_counter() - start)
            if best[large] / best[small] < BOUND:
                break
    finally:
        gc.enable()
    return best[large] / best[small]


@pytest.mark.parametrize("name", list(CASES))
def test_four_times_the_input_takes_under_eight_times_as_long(name):
    n, build, run = CASES[name]
    small, large = build(n), build(4 * n)
    assert len(large) < MAX_CHARS
    ratio = _ratio(run, small, large)
    assert ratio < BOUND, f"{name}: 4x the input took {ratio:.1f}x as long"


class _CountingTokens(list):
    """A token list that counts the tokens read out of it."""

    reads = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item


# Reads are counted, not timed, so these bounds do not move with the host's
# load.  Linear code reads a bounded number of times per token and about 4x
# the tokens at 4x the input; quadratic code reads about 16x.
MAX_READS_PER_TOKEN = 8
READS_BOUND = 6.0


def _reads(monkeypatch, run, source) -> tuple[int, int]:
    """Tokens read out of the parser's token lists while ``run`` reads
    ``source``, and the tokens those lists hold."""
    lists: list[_CountingTokens] = []

    def counting_scan(text: str):
        significant, comments = scan(text)
        lists.append(_CountingTokens(significant))
        return lists[-1], comments

    monkeypatch.setattr(parser, "tokenize", counting_scan)
    run(source)
    return sum(toks.reads for toks in lists), sum(len(toks) for toks in lists)


@pytest.mark.parametrize("name", [name for name, (_, _, run) in CASES.items()
                                  if run in (_analyze, parse_focal_file, _prompt)])
def test_four_times_the_input_reads_under_six_times_the_tokens(monkeypatch, name):
    n, build, run = CASES[name]
    small_reads, _ = _reads(monkeypatch, run, build(n))
    large_reads, large_tokens = _reads(monkeypatch, run, build(4 * n))
    assert large_reads <= MAX_READS_PER_TOKEN * large_tokens, \
        f"{name}: {large_reads / large_tokens:.2f} reads per token"
    ratio = large_reads / small_reads
    assert ratio < READS_BOUND, f"{name}: 4x the input read {ratio:.2f}x the tokens"


def test_type_references_read_no_further_than_their_first_foreign_token():
    # Every '<' is unclosed, so each statement's generic list runs to the
    # end of the stream; only the ';' after it may be read.
    significant, _ = scan("a<b;" * 2000)
    toks = _CountingTokens(significant)
    *_, angles = parser._token_diagnostics(significant)
    for k in range(0, len(toks), 4):
        assert parser._type_end(toks, angles, k) == -1
    assert toks.reads < 10 * len(toks)
    # Every '(' and '<' is unclosed, or closes only after a ')' of the
    # fragment before, so a tuple walk or generic list that read on to its
    # closer would read the rest of the stream from each fragment.
    for fragment in ["(a;", "a<b)", "(a<<))"]:
        significant, _ = scan(fragment * 2000)
        toks = _CountingTokens(significant)
        *_, angles = parser._token_diagnostics(significant)
        for k in range(0, len(toks), len(toks) // 2000):
            assert parser._type_end(toks, angles, k) == -1
        assert toks.reads < 10 * len(toks)
