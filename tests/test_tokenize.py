"""The one-regex tokenizer against the character loop it replaced.

`tokenize_ref.tokenize` is the earlier tokenizer, kept verbatim but for
its container, a token holding a separate span. On every input the two must
give the same tokens (kind, text, file, start, end, line and col) or the
same `error[parse]`, except for the end-of-input token after a trailing
`--` comment: the reference leaves its column where the comment starts.

Every span that the parser gives a node of a corpus, family or mutant
program holds the source text between its offsets, and a line and column
that agree with the newlines before it.
"""

from __future__ import annotations

import random

import pytest
from conftest import corpus_files, perfbench_gen
from tokenize_ref import tokenize as tokenize_ref

from pvgr.ast import Node
from pvgr.diagnostic import Diagnostic
from pvgr.parser import ParseError, parse_program, tokenize


def loc(sp) -> tuple:
    return (sp.file, sp.start, sp.end, sp.line, sp.col)


def tokens_or_error(tokenizer, src: str):
    """Each token's (kind, text, file, start, end, line, col), or the error:
    a token of `tokenize` is its own span, one of the reference holds one."""
    try:
        return [(t.kind, t.text, *loc(getattr(t, "span", t))) for t in tokenizer(src, "F")]
    except ParseError as e:
        return ("error", e.message, loc(e.span))


def assert_agrees(src: str) -> None:
    got, want = tokens_or_error(tokenize, src), tokens_or_error(tokenize_ref, src)
    if got == want:
        return
    # the only difference allowed: the column of the end of input after a
    # comment that runs to it, which the reference reports at the comment
    assert isinstance(got, list) and isinstance(want, list), (src, got, want)
    assert got[:-1] == want[:-1], src
    (*_, start, end, line, col), (*_, ref_start, ref_end, ref_line, ref_col) = got[-1], want[-1]
    line_start = src.rfind("\n") + 1
    assert (start, end, line) == (ref_start, ref_end, ref_line), src
    assert col == len(src) - line_start + 1, src
    assert src.startswith("--", line_start + ref_col - 1), src


def family_programs() -> list[str]:
    gen = perfbench_gen()
    return [
        gen.FAMILIES[fam](n, random.Random(seed))
        for fam in ("chain", "fan", "hold") for n in (3, 8, 16) for seed in (1, 2, 3)
    ]


def test_agrees_on_corpus_programs_and_sidecars():
    for path in corpus_files():
        assert_agrees(path.read_text())
        assert_agrees(path.with_suffix(".pvgr.expected").read_text())


def test_agrees_on_generated_families():
    for src in family_programs():
        assert_agrees(src)


# Fragments the mutants splice in: letters and digits outside ASCII (`²` is
# a digit to `str.isdigit` but not to `\d`), carriage returns and tabs,
# primed identifiers, characters that start no token, a lone `-` or `+`,
# every two-character punctuation mark and its near misses, comments, and
# words that a keyword is a prefix of.
FRAGMENTS = [
    "é", "x²", "²", "1²", "١", "١٢x", "½", "x½", "\r", "\t", "\r\n", "x'", "a''b", "1'", "$", "@",
    "-", "+", "->", "/\\", "/", "+c", "+b", "+x", "+cat", "-->", "--", "-- note\n", "\n", " ",
    "let", "lets", "in", "int", "nu", "nuap", "nuapx", "Int", "_", "_1", "0", "07", "12ab",
]


def mutants(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    bases = [p.read_text() for p in corpus_files()] + family_programs()[:9]
    out = []
    for _ in range(count):
        src = rng.choice(bases)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(src) + 1)
            if rng.random() < 0.25:
                src = src[:i] + src[i + rng.randint(1, 8):]  # delete a stretch
            else:
                src = src[:i] + rng.choice(FRAGMENTS) + src[i:]
        if rng.random() < 0.2:
            src += rng.choice(["--", "-- trailing", "--\t", "\n--"])  # a comment to the end of input
        out.append(src)
    return out


def test_agrees_on_seeded_mutants():
    srcs = mutants(600, seed=13)
    errors = 0
    for src in srcs:
        assert_agrees(src)
        errors += isinstance(tokens_or_error(tokenize, src), tuple)
    # both outcomes, and every fragment, are exercised
    assert 100 < errors < len(srcs) - 100
    assert all(any(f in src for src in srcs) for f in FRAGMENTS)
    assert sum(src.endswith("--") for src in srcs) > 10


@pytest.mark.parametrize(
    "src, kinds",
    [
        ("x²", [("ident", "x²")]),
        ("²x", [("num", "²"), ("ident", "x")]),  # `[^\W\d]` would read one identifier
        ("١٢ 1²", [("num", "١٢"), ("num", "1²")]),
        ("é'", [("ident", "é'")]),
        ("+cat->/\\", [("+c", "+c"), ("ident", "at"), ("->", "->"), ("/\\", "/\\")]),
        ("nuap nu nuapx", [("nuap", "nuap"), ("nu", "nu"), ("ident", "nuapx")]),
    ],
)
def test_words_outside_ascii_and_longest_matches(src, kinds):
    assert [(t.kind, t.text) for t in tokenize(src)][:-1] == kinds
    assert_agrees(src)


@pytest.mark.parametrize("src, char, col", [("x ½", "½", 3), ("1'", "'", 2), ("a\r\n\t+x", "+", 2), ("-", "-", 1)])
def test_a_character_that_starts_no_token_is_a_parse_error(src, char, col):
    with pytest.raises(ParseError) as exc:
        tokenize(src)
    assert exc.value.message == f"unexpected character {char!r}"
    assert exc.value.span.col == col
    assert_agrees(src)


def node_spans(tree: Node) -> list:
    """The span of every node of `tree` that has one."""
    out, todo = [], [tree]
    while todo:
        x = todo.pop()
        if isinstance(x, Node):
            out.append(x.span)
            todo += [getattr(x, f) for f in x._fields]
        elif isinstance(x, tuple):
            todo += x
    return [sp for sp in out if sp is not None]


def assert_located(src: str, sp) -> None:
    """`sp` is the stretch of `src` it names, at the line and column that
    counting newlines gives."""
    assert sp.file == "F" and src[sp.start : sp.end] == sp.text, (src, sp, sp.text)
    assert sp.line == src.count("\n", 0, sp.start) + 1, (src, sp)
    assert sp.col == sp.start - src.rfind("\n", 0, sp.start), (src, sp)


def test_every_node_span_is_its_source_text_and_place():
    srcs = [p.read_text() for p in corpus_files()] + family_programs() + mutants(600, seed=13)
    parsed = 0
    for src in srcs:
        try:
            prog = parse_program(src, "F")
        except Diagnostic as e:
            assert_located(src, e.span)
            continue
        parsed += 1
        spans = node_spans(prog.config or prog.expr)
        assert spans and all(sp.kind for sp in spans)
        for sp in spans:
            assert_located(src, sp)
    assert parsed > len(corpus_files()) + len(family_programs())
