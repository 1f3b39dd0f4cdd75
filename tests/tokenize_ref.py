"""The tokenizer as it was before it became one regular-expression pass,
kept verbatim as the reference that `tests/test_tokenize.py` compares
the scanner of `pvgr.parser` against, token by token.

It differs from that scanner in one place only: it does not
advance the column through a `--` comment, so after a trailing comment the
end-of-input token is reported where the comment starts.

Its logic is unchanged; only the container it builds is its own: a `Token`
that holds a separate `Span`, as pvgr's tokens did before each token
became its own location.
"""

from __future__ import annotations

from typing import NamedTuple

from pvgr.parser import KEYWORDS, PUNCT, ParseError


class Span(NamedTuple):
    file: str
    start: int
    end: int
    line: int
    col: int


class Token(NamedTuple):
    kind: str
    text: str
    span: Span


def tokenize(src: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def span(start: int, end: int, sl: int, sc: int) -> Span:
        return Span(filename, start, end, sl, sc)

    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            text = src[i:j]
            kind = text if text in KEYWORDS else "ident"
            toks.append(Token(kind, text, span(i, j, line, col)))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("num", src[i:j], span(i, j, line, col)))
            col += j - i
            i = j
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(Token(p, p, span(i, i + len(p), line, col)))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError("parse", f"unexpected character {c!r}", span(i, i + 1, line, col))
    toks.append(Token("eof", "", span(n, n, line, col)))
    return toks
