r"""Tokenizer for the Verilog subset.

Handles identifiers, escaped identifiers, system identifiers, sized and
unsized numeric literals, strings, all multi-character operators used by
the subset, ``(* attribute *)`` markers, line/block comments, and a small
preprocessor (``\`define`` object macros, ``\`undef``, ``\`ifdef``/
``\`ifndef``/``\`else``/``\`endif``, and directive-ignoring for
``\`timescale``/``\`default_nettype``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .ast_nodes import SourcePos


class LexError(Exception):
    """Raised when the source text cannot be tokenized."""

    def __init__(self, message: str, pos: SourcePos):
        super().__init__(f"{pos}: {message}")
        self.pos = pos


KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer real parameter
    localparam assign always initial begin end fork join if else case casex
    casez endcase default for while repeat posedge negedge or and not
    genvar generate endgenerate function endfunction task endtask signed
    unsigned
    """.split()
)

# Longest-match-first operator table.
OPERATORS = [
    "<<<", ">>>", "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~&", "~|", "~^", "^~",
    "+:", "-:", "**",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ",", ";", ".", "#", "@", "(", ")", "[", "]", "{", "}",
]

TOKEN_OPS = frozenset(OPERATORS)

#: one alternation, longest operator first, so the first alternative
#: that matches is the longest operator at that position
_OP_RE = re.compile("|".join(
    re.escape(op) for op in sorted(OPERATORS, key=len, reverse=True)))
_BLANK_RE = re.compile(r"[ \t\r\f]+")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``kind`` is one of ``ID``, ``SYSID``, ``NUMBER``, ``BASEDNUM``,
    ``STRING``, ``OP``, ``KEYWORD``, ``ATTR_OPEN``, ``ATTR_CLOSE``, ``EOF``.
    """

    kind: str
    text: str
    pos: SourcePos

    def is_op(self, *ops: str) -> bool:
        return self.kind == "OP" and self.text in ops

    def is_kw(self, *kws: str) -> bool:
        return self.kind == "KEYWORD" and self.text in kws


_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SYSID_RE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_$]*")
_DEC_RE = re.compile(r"[0-9][0-9_]*")
_BASED_RE = re.compile(r"'\s*(s?)([bBoOdDhH])\s*([0-9a-fA-FxXzZ_?]+)")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
_DIRECTIVE_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)")


#: a line comment, a block comment or a string — then, so that each is
#: reported where it opens, a block comment or string that never closes
_COMMENT_RE = re.compile(
    r'//[^\n]*|/\*[\s\S]*?\*/|' + _STRING_RE.pattern + r'|/\*|"')
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _blank_comment(m: re.Match[str]) -> str:
    found = m.group(0)
    if found in ('"', "/*"):
        what = "string" if found == '"' else "block comment"
        raise LexError(f"unterminated {what}", SourcePos(
            m.string.count("\n", 0, m.start()) + 1, 1))
    return found if found[0] == '"' else _NOT_NEWLINE_RE.sub(" ", found)


def _strip_comments(text: str) -> str:
    """Replace comments with whitespace, preserving line structure."""
    return _COMMENT_RE.sub(_blank_comment, text)


class Preprocessor:
    """Minimal Verilog preprocessor: object macros and conditionals."""

    IGNORED_DIRECTIVES = frozenset(
        ["timescale", "default_nettype", "resetall", "celldefine", "endcelldefine"]
    )

    def __init__(self, defines: Optional[Dict[str, str]] = None):
        self.defines: Dict[str, str] = dict(defines or {})

    def process(self, text: str) -> str:
        out_lines: List[str] = []
        # Stack of booleans: are we currently emitting?
        emit_stack: List[bool] = []
        for line in text.split("\n"):
            stripped = line.strip()
            m = _DIRECTIVE_RE.match(stripped)
            if m and stripped.startswith("`"):
                name = m.group(1)
                rest = stripped[m.end() :].strip()
                if name == "define":
                    if all(emit_stack):
                        parts = rest.split(None, 1)
                        if parts:
                            self.defines[parts[0]] = parts[1] if len(parts) > 1 else ""
                    out_lines.append("")
                    continue
                if name == "undef":
                    if all(emit_stack):
                        self.defines.pop(rest.strip(), None)
                    out_lines.append("")
                    continue
                if name == "ifdef":
                    emit_stack.append(rest.split()[0] in self.defines if rest else False)
                    out_lines.append("")
                    continue
                if name == "ifndef":
                    emit_stack.append(rest.split()[0] not in self.defines if rest else True)
                    out_lines.append("")
                    continue
                if name == "else":
                    if emit_stack:
                        emit_stack[-1] = not emit_stack[-1]
                    out_lines.append("")
                    continue
                if name == "endif":
                    if emit_stack:
                        emit_stack.pop()
                    out_lines.append("")
                    continue
                if name in self.IGNORED_DIRECTIVES:
                    out_lines.append("")
                    continue
                # Fall through: macro use at line start is handled below.
            if emit_stack and not all(emit_stack):
                out_lines.append("")
                continue
            out_lines.append(self._expand(line))
        return "\n".join(out_lines)

    def _expand(self, line: str, depth: int = 0) -> str:
        if "`" not in line or depth > 32:
            return line

        def repl(match: "re.Match[str]") -> str:
            name = match.group(1)
            if name in self.defines:
                return self.defines[name]
            return match.group(0)

        expanded = _DIRECTIVE_RE.sub(repl, line)
        if expanded != line:
            return self._expand(expanded, depth + 1)
        return expanded


def tokenize(text: str, defines: Optional[Dict[str, str]] = None) -> List[Token]:
    """Tokenize *text*, returning a list ending with an ``EOF`` token."""
    text = Preprocessor(defines).process(text)
    text = _strip_comments(text)
    tokens: List[Token] = []
    line, line_start = 1, 0
    i, n = 0, len(text)

    def pos(at: int) -> SourcePos:
        return SourcePos(line, at - line_start + 1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r\f":
            i = _BLANK_RE.match(text, i).end()
            continue
        if ch == "(" and text.startswith("(*", i):
            tokens.append(Token("ATTR_OPEN", "(*", pos(i)))
            i += 2
            continue
        if ch == "*" and text.startswith("*)", i):
            tokens.append(Token("ATTR_CLOSE", "*)", pos(i)))
            i += 2
            continue
        if ch == '"':
            m = _STRING_RE.match(text, i)
            if not m:
                raise LexError("unterminated string", pos(i))
            raw = m.group(1)
            value = raw.replace("\\n", "\n").replace("\\t", "\t").replace('\\"', '"').replace("\\\\", "\\")
            tokens.append(Token("STRING", value, pos(i)))
            i = m.end()
            continue
        if ch == "'":
            m = _BASED_RE.match(text, i)
            if not m:
                raise LexError("malformed based literal", pos(i))
            tokens.append(Token("BASEDNUM", m.group(0), pos(i)))
            i = m.end()
            continue
        if ch.isdigit():
            m = _DEC_RE.match(text, i)
            assert m is not None
            end = m.end()
            based = _BASED_RE.match(text, end)
            if based:
                tokens.append(Token("BASEDNUM", text[i : based.end()], pos(i)))
                i = based.end()
            else:
                tokens.append(Token("NUMBER", m.group(0), pos(i)))
                i = end
            continue
        if ch == "$":
            m = _SYSID_RE.match(text, i)
            if not m:
                raise LexError("malformed system identifier", pos(i))
            tokens.append(Token("SYSID", m.group(0), pos(i)))
            i = m.end()
            continue
        if ch == "\\":
            # Escaped identifier: backslash up to whitespace.
            j = i + 1
            while j < n and not text[j].isspace():
                j += 1
            tokens.append(Token("ID", text[i + 1 : j], pos(i)))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            m = _ID_RE.match(text, i)
            assert m is not None
            word = m.group(0)
            kind = "KEYWORD" if word in KEYWORDS else "ID"
            tokens.append(Token(kind, word, pos(i)))
            i = m.end()
            continue
        m = _OP_RE.match(text, i)
        if not m:
            raise LexError(f"unexpected character {ch!r}", pos(i))
        tokens.append(Token("OP", m.group(0), pos(i)))
        i = m.end()
    tokens.append(Token("EOF", "", pos(i)))
    return tokens


def parse_based_literal(text: str) -> "tuple[Optional[int], bool, str, int, int]":
    """Decode a based literal into ``(width, signed, base, value, xz_mask)``.

    ``x``/``z``/``?`` digits are mapped to 0 in ``value`` (the library
    models 2-state values; see DESIGN.md) but the bits they cover are
    recorded in ``xz_mask`` so ``casez``/``casex`` don't-care matching
    still works.
    """
    text = text.strip()
    width: Optional[int] = None
    tick = text.index("'")
    if tick > 0:
        width = int(text[:tick].replace("_", ""))
    rest = text[tick + 1 :].strip()
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:].strip()
    base = rest[0].lower()
    digits = rest[1:].replace("_", "")
    radix = {"b": 2, "o": 8, "d": 10, "h": 16}[base]
    bits_per_digit = {"b": 1, "o": 3, "d": 0, "h": 4}[base]
    xz_mask = 0
    if bits_per_digit:
        for ch in digits:
            xz_mask <<= bits_per_digit
            if ch in "xXzZ?":
                xz_mask |= (1 << bits_per_digit) - 1
    clean = re.sub(r"[xXzZ?]", "0", digits)
    value = int(clean, radix) if clean else 0
    if width is not None:
        value &= (1 << width) - 1
        xz_mask &= (1 << width) - 1
    return width, signed, base, value, xz_mask
