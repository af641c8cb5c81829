"""Minimal C++ lexer for the static analyzer (analyzer.py).

Produces a token stream with comments stripped and string/char literals
collapsed to single STRING/CHAR tokens, so rules never match inside text.
This is deliberately a *lexical* engine, not a parser: the analyzer's
rules operate on token patterns and on facts a heuristic function-body
extractor pulls from them, which keeps the tool dependency-free -- it
runs on a bare python3, no libclang/clang-query needed.  The rule
semantics are declarative enough that an AST engine could replace this
module without touching the rule definitions; until the toolchain ships
clang python bindings everywhere, lexical matching plus the fixture
self-tests (tests/analyzer_fixtures) is the contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# Token kinds
IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"
PP = "pp"  # one whole preprocessor directive line (continuations folded)


@dataclass
class Token:
    kind: str
    value: str
    line: int
    col: int


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"\.?[0-9](?:[0-9a-zA-Z_.']|[eEpP][+-])*")
# Longest-first so '::' lexes as one token, '...' as one token, etc.
_PUNCTS = [
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=",
]


def lex(text: str) -> list[Token]:
    """Tokenizes C++ source text; never raises on malformed input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        # Whitespace
        if c in " \t\r\n\f\v":
            advance(1)
            continue
        # Line comment
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        # Block comment
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            advance((end + 2 if end != -1 else n) - i)
            continue
        # Preprocessor directive: fold up to the unescaped newline
        if c == "#" and (not tokens or tokens[-1].line != line):
            start, start_line, start_col = i, line, col
            while i < n:
                if text[i] == "\n" and not text[start:i].rstrip().endswith(
                        "\\"):
                    break
                advance(1)
            tokens.append(
                Token(PP, " ".join(text[start:i].split()), start_line,
                      start_col))
            continue
        # Raw string literal
        m = re.match(r'(?:u8|u|U|L)?R"([^()\\ ]*)\(', text[i:])
        if m:
            closer = ")" + m.group(1) + '"'
            end = text.find(closer, i + m.end())
            tokens.append(Token(STRING, "<raw>", line, col))
            advance((end + len(closer) if end != -1 else n) - i)
            continue
        # String / char literal (with encoding prefixes)
        m = re.match(r"(?:u8|u|U|L)?(['\"])", text[i:])
        if m:
            quote = m.group(1)
            j = i + m.end()
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            tokens.append(
                Token(STRING if quote == '"' else CHAR, "<lit>", line, col))
            advance(min(j + 1, n) - i)
            continue
        # Identifier / keyword
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token(IDENT, m.group(0), line, col))
            advance(len(m.group(0)))
            continue
        # Number (pp-number, loosely)
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUMBER_RE.match(text, i)
            tokens.append(Token(NUMBER, m.group(0), line, col))
            advance(len(m.group(0)))
            continue
        # Punctuation
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Token(PUNCT, p, line, col))
                advance(len(p))
                break
        else:
            tokens.append(Token(PUNCT, c, line, col))
            advance(1)
    return tokens


def qualified_at(tokens: list[Token], index: int) -> str:
    """The `a::b::c` qualified name whose *last* identifier sits at
    `index`; walks `::`-joined identifiers leftwards."""
    parts = [tokens[index].value]
    j = index
    while (j >= 2 and tokens[j - 1].kind == PUNCT
           and tokens[j - 1].value == "::" and tokens[j - 2].kind == IDENT):
        parts.append(tokens[j - 2].value)
        j -= 2
    return "::".join(reversed(parts))


def match_qualified(tokens: list[Token], index: int, name: str) -> bool:
    """True when the qualified name ending at `index` ends with `name`
    (e.g. name='std::mutex' matches both `std::mutex` and
    `::std::mutex`)."""
    q = qualified_at(tokens, index)
    return q == name or q.endswith("::" + name)
