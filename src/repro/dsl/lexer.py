"""Tokenizer for mac files.

The MACEDON grammar (Figure 4 of the paper) is small: identifiers, numbers,
strings, a handful of punctuation characters, and brace-delimited blocks.
Transition bodies and library routines contain embedded action code (C++ in
the paper, Python here), so the lexer supports a *raw block* mode that
captures a brace-balanced region verbatim, skipping braces that appear inside
string literals and comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import MacSyntaxError

#: Token kinds produced by the lexer.
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
PUNCT = "PUNCT"
EOF = "EOF"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")
_PUNCT_CHARS = "{}[]();|!=,"
#: The characters a raw block's scan stops at: quotes, comments, braces.
_RAW_STOP_RE = re.compile(r"[\"'#{}]")


@dataclass(frozen=True)
class Token:
    """One lexical token with its source line (1-based) for error messages."""

    kind: str
    value: str
    line: int

    def is_punct(self, char: str) -> bool:
        return self.kind == PUNCT and self.value == char

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, line={self.line})"


class Lexer:
    """A cursor over the mac source with both token and raw-block reading."""

    def __init__(self, text: str, filename: Optional[str] = None) -> None:
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self._peeked: Optional[Token] = None

    # ----------------------------------------------------------------- helpers
    def _error(self, message: str) -> MacSyntaxError:
        return MacSyntaxError(message, filename=self.filename, line=self.line)

    def _advance(self, count: int) -> None:
        chunk = self.text[self.pos:self.pos + count]
        self.line += chunk.count("\n")
        self.pos += count

    def _skip_ws_and_comments(self) -> None:
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char in " \t\r\n":
                self._advance(1)
                continue
            if self.text.startswith("//", self.pos) or char == "#":
                end = self.text.find("\n", self.pos)
                if end == -1:
                    end = len(self.text)
                self._advance(end - self.pos)
                continue
            if self.text.startswith("/*", self.pos):
                end = self.text.find("*/", self.pos + 2)
                if end == -1:
                    raise self._error("unterminated /* comment")
                self._advance(end + 2 - self.pos)
                continue
            break

    # ------------------------------------------------------------------ tokens
    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._read_token()
        return self._peeked

    def next(self) -> Token:
        token = self.peek()
        self._peeked = None
        return token

    def _read_token(self) -> Token:
        self._skip_ws_and_comments()
        if self.pos >= len(self.text):
            return Token(EOF, "", self.line)
        char = self.text[self.pos]
        line = self.line
        if char in "\"'":
            return self._read_string(char)
        match = _NUMBER_RE.match(self.text, self.pos)
        if match and (char.isdigit() or
                      (char == "-" and self.pos + 1 < len(self.text)
                       and self.text[self.pos + 1].isdigit())):
            self._advance(match.end() - self.pos)
            return Token(NUMBER, match.group(0), line)
        match = _IDENT_RE.match(self.text, self.pos)
        if match:
            self._advance(match.end() - self.pos)
            return Token(IDENT, match.group(0), line)
        if char in _PUNCT_CHARS:
            self._advance(1)
            return Token(PUNCT, char, line)
        raise self._error(f"unexpected character {char!r}")

    def _read_string(self, quote: str) -> Token:
        line = self.line
        end = self.pos + 1
        while end < len(self.text):
            if self.text[end] == "\\":
                end += 2
                continue
            if self.text[end] == quote:
                break
            end += 1
        else:
            raise self._error("unterminated string literal")
        value = self.text[self.pos + 1:end]
        self._advance(end + 1 - self.pos)
        return Token(STRING, value, line)

    # ------------------------------------------------------------- expectations
    def expect_ident(self, expected: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != IDENT:
            raise self._error(f"expected identifier, found {token.value!r}")
        if expected is not None and token.value != expected:
            raise self._error(f"expected {expected!r}, found {token.value!r}")
        return token

    def expect_punct(self, char: str) -> Token:
        token = self.next()
        if not token.is_punct(char):
            raise self._error(f"expected {char!r}, found {token.value!r}")
        return token

    def accept_punct(self, char: str) -> bool:
        if self.peek().is_punct(char):
            self.next()
            return True
        return False

    def accept_ident(self, value: str) -> bool:
        token = self.peek()
        if token.kind == IDENT and token.value == value:
            self.next()
            return True
        return False

    def at_eof(self) -> bool:
        return self.peek().kind == EOF

    # --------------------------------------------------------------- raw blocks
    def read_raw_block(self) -> tuple[str, int]:
        """Read a ``{ ... }`` block verbatim (for transition bodies / routines).

        Returns the text between the outer braces (exclusive) and the line on
        which the block started.  Nested braces are tracked; braces inside
        string literals and ``#`` comments in the embedded code are ignored.
        A pending peeked ``{`` token is honoured as the opening brace.
        """
        if self._peeked is not None:
            if not self._peeked.is_punct("{"):
                raise self._error(
                    f"expected '{{' to open a code block, found {self._peeked.value!r}"
                )
            start_line = self._peeked.line
            self._peeked = None
        else:
            self._skip_ws_and_comments()
            if self.pos >= len(self.text) or self.text[self.pos] != "{":
                raise self._error("expected '{' to open a code block")
            start_line = self.line
            self._advance(1)
        depth = 1
        start = self.pos
        while (stop := _RAW_STOP_RE.search(self.text, self.pos)) is not None:
            self._advance(stop.start() - self.pos)
            char = stop.group()
            if char in "\"'":
                self._skip_embedded_string(char)
                continue
            if char == "#":
                end = self.text.find("\n", self.pos)
                if end == -1:
                    end = len(self.text)
                self._advance(end - self.pos)
                continue
            if char == "{":
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    body = self.text[start:self.pos]
                    self._advance(1)
                    return body, start_line
            self._advance(1)
        raise MacSyntaxError("unterminated code block", filename=self.filename,
                             line=start_line)

    def _skip_embedded_string(self, quote: str) -> None:
        # Handle triple-quoted strings in embedded Python.
        triple = quote * 3
        if self.text.startswith(triple, self.pos):
            end = self.text.find(triple, self.pos + 3)
            if end == -1:
                raise self._error("unterminated triple-quoted string in code block")
            self._advance(end + 3 - self.pos)
            return
        end = self.pos + 1
        while end < len(self.text):
            if self.text[end] == "\\":
                end += 2
                continue
            if self.text[end] == quote or self.text[end] == "\n":
                break
            end += 1
        self._advance(min(end + 1, len(self.text)) - self.pos)
