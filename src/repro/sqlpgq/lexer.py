"""Tokenizer for the SQL/PGQ surface syntax subset.

The lexer covers the statements used in the paper (``CREATE PROPERTY
GRAPH`` view definitions and ``SELECT ... FROM GRAPH_TABLE(...)`` queries)
plus the pattern punctuation of MATCH clauses: ``-[t:Label]->``, ``<-[t]-``,
quantifiers ``*``, ``+`` and ``{n,m}``, and ordinary SQL punctuation.
Keywords are case-insensitive; identifiers keep their original spelling.

Token grammar, one compiled master pattern (``\\s``, ``\\w`` and ``\\d``
are Unicode classes)::

    skipped   \\s+  and  --[^\\n]*       only "\\n" starts a new line
    IDENT     [^\\W\\d]\\w*               starting with a letter or "_"; a
                                       KEYWORD when its upper case is one
    NUMBER    [0-9]+(\\.[0-9]+)?([eE][+-]?[0-9]+)?
                                       not followed by "." or a digit
    STRING    '([^']|'')*'  |  "[^"]*" value without the quotes; inside
                                       single quotes '' is one quote
    SYMBOL    <> != >= <= -> <- ]- -[  or one of  ( ) [ ] { } , . ; : * + = < > - /

Anything else is a :class:`~repro.errors.ParseError` at the line and
column where it starts: a digit run outside NUMBER (``1.2.3``, ``1.``,
``١٢``, ``²``) is a malformed number, a lone quote an unterminated string
literal, any other character unexpected.  ``--`` opens a comment wherever
a token could start.  A NUMBER has no sign: the parser reads ``-`` before
a NUMBER in an operand as a negative literal (``t.amount > -1``), since
``-`` also opens ``-[...]->``.

The ``:`` symbol is position-disambiguated by the parser: inside a pattern
element it separates a variable from its labels (``(x:Account)``), while
in a WHERE operand position ``: name`` is a parameter placeholder
(``t.amount > :minimum``) bound at execution time by the prepared
statement API.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ParseError

#: Keywords recognized by the parser (upper-cased for comparison).
KEYWORDS = {
    "CREATE", "PROPERTY", "GRAPH", "NODES", "VERTEX", "EDGES", "EDGE", "TABLE", "TABLES",
    "KEY", "LABEL", "LABELS", "PROPERTIES", "SOURCE", "TARGET", "REFERENCES",
    "SELECT", "DISTINCT", "FROM", "GRAPH_TABLE", "MATCH", "WHERE", "RETURN", "COLUMNS",
    "AS", "AND", "OR", "NOT", "ALL", "ARE",
}


class Token(NamedTuple):
    """A single token with its position for error reporting."""

    kind: str          # KEYWORD, IDENT, NUMBER, STRING, SYMBOL, EOF
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind == "KEYWORD" and self.value.upper() in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind == "SYMBOL" and self.value in symbols


_MASTER = re.compile(
    r"""
    (?P<WS>\s+)
    |(?P<WORD>[^\W\d]\w*)
    |(?P<COMMENT>--[^\n]*)
    |(?P<SYMBOL><>|!=|>=|<=|->|<-|\]-|-\[|[()\[\]{},.;:*+=<>\-/])
    |(?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?![.\d]))
    |(?P<STRING>'[^']*(?:''[^']*)*'|"[^"]*")
    |(?P<BADNUMBER>\d[.\d]*)
    |(?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_new_token = tuple.__new__


def source_excerpt(text: str, line: int, column: int) -> Optional[str]:
    """The source line at ``line`` with a caret under ``column``.

    Returns ``None`` when the position falls outside ``text`` (stale
    positions must never crash error rendering).
    """
    lines = text.splitlines()
    if not 1 <= line <= len(lines):
        return None
    excerpt = lines[line - 1].replace("\t", " ")
    caret = " " * max(column - 1, 0) + "^"
    return f"{excerpt}\n{caret}"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on text outside the
    token grammar of the module docstring."""
    return _lex(text)[0]


def _lex(text: str) -> Tuple[List[Token], List[Optional[str]]]:
    """The tokens of ``text`` and, index for index, their match keys: the
    upper-cased keyword, the symbol, or ``None`` (what :class:`TokenStream`
    compares against)."""
    tokens: List[Token] = []
    keys: List[Optional[str]] = []
    line, line_start = 1, 0
    # Where EOF sits: the end of the text, or the start of a final comment.
    eof = len(text)
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        value = match.group()
        start = match.start()
        if kind == "WS":
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
            continue
        column = start - line_start + 1
        key = None
        if kind == "WORD":
            if not (value[0].isalpha() or value[0] == "_"):
                raise _error(value[0], line, column)
            key = value.upper()
            # Keywords keep their original spelling so they can double as
            # identifiers (e.g. an output alias named "target").
            if key in KEYWORDS:
                kind = "KEYWORD"
            else:
                kind, key = "IDENT", None
        elif kind == "SYMBOL":
            key = value
        elif kind == "STRING":
            text = value[1:-1]
            if value[0] == "'":
                text = text.replace("''", "'")
            tokens.append(_new_token(Token, (kind, text, line, column)))
            keys.append(None)
            if "\n" in value:
                line += value.count("\n")
                line_start = start + value.rindex("\n") + 1
            continue
        elif kind == "COMMENT":
            if match.end() == eof:
                eof = start
            continue
        elif kind != "NUMBER":
            raise _error(value, line, column)
        tokens.append(_new_token(Token, (kind, value, line, column)))
        keys.append(key)
    tokens.append(_new_token(Token, ("EOF", "", line, eof - line_start + 1)))
    keys.append(None)
    return tokens, keys


def _error(text: str, line: int, column: int) -> ParseError:
    """The error for ``text``, which starts a malformed number, an
    unterminated string, or is one unexpected character."""
    if text[0].isdigit():
        return ParseError(f"malformed number {text!r}", line=line, column=column)
    if text in ("'", '"'):
        return ParseError("unterminated string literal", line=line, column=column)
    return ParseError(f"unexpected character {text!r}", line=line, column=column)


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers.

    Lexes ``source`` once and keeps each token's match key (see
    :func:`_lex`), so a keyword or symbol test is one membership check.
    The list carries one extra EOF, so ``peek(1)`` at the end needs no
    clamp; the cursor never moves past the first EOF.  Parse errors carry
    a one-line excerpt of ``source`` with a caret under the offending
    token.
    """

    __slots__ = ("_tokens", "_keys", "_position", "_source")

    def __init__(self, source: str):
        tokens, keys = _lex(source)
        self._tokens = tokens + tokens[-1:]
        self._keys = keys + [None]
        self._position = 0
        self._source = source

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._position + offset]

    def at(self, *keys: str) -> bool:
        """Whether the current token is one of the keywords / symbols ``keys``."""
        return self._keys[self._position] in keys

    def advance(self) -> Token:
        position = self._position
        token = self._tokens[position]
        if token.kind != "EOF":
            self._position = position + 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.peek()
        found = "end of input" if token.kind == "EOF" else f"{token.kind} {token.value!r}"
        detail = f"{message} (found {found})"
        snippet = source_excerpt(self._source, token.line, token.column)
        if snippet is not None:
            detail = f"{detail}\n{snippet}"
        return ParseError(detail, line=token.line, column=token.column)

    def accept(self, *keys: str) -> Optional[Token]:
        """The current token if it is one of the keywords / symbols
        ``keys`` (consumed), else ``None``."""
        position = self._position
        if self._keys[position] in keys:
            self._position = position + 1
            return self._tokens[position]
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.accept(*names)
        if token is None:
            raise self.error(f"expected keyword {' or '.join(names)}")
        return token

    def expect_symbol(self, *symbols: str) -> Token:
        token = self.accept(*symbols)
        if token is None:
            raise self.error(f"expected {' or '.join(symbols)}")
        return token

    def expect_identifier(self) -> Token:
        position = self._position
        token = self._tokens[position]
        if token.kind != "IDENT" and token.kind != "KEYWORD":
            raise self.error("expected an identifier")
        self._position = position + 1
        return token
