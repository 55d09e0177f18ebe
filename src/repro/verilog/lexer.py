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
from typing import Dict, List, NamedTuple, Optional

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


class Token(NamedTuple):
    """A single lexical token.

    ``kind`` is one of ``ID``, ``SYSID``, ``NUMBER``, ``BASEDNUM``,
    ``STRING``, ``OP``, ``KEYWORD``, ``ATTR_OPEN``, ``ATTR_CLOSE``, ``EOF``.
    A tuple, so :func:`tokenize` builds one with ``tuple.__new__``.
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

#: the whole token grammar as one alternation, one named group per
#: kind.  The first alternative that matches wins, so ``(*``/``*)``
#: precede the operators, operators run longest first and a sized based
#: literal precedes a plain number.  ``BLANK`` and ``NL`` make no token;
#: ``ERROR`` takes the one character nothing else starts with, so the
#: matches tile the text.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("BLANK", r"[ \t\r\f]+"),
    ("NL", r"\n[ \t\r\f]*"),
    ("ID", _ID_RE.pattern),
    ("ATTR_OPEN", r"\(\*"),
    ("ATTR_CLOSE", r"\*\)"),
    ("OP", "|".join(map(re.escape, sorted(OPERATORS, key=len, reverse=True)))),
    ("BASEDNUM", f"(?:{_DEC_RE.pattern})?{_BASED_RE.pattern}"),
    ("NUMBER", _DEC_RE.pattern),
    ("STRING", _STRING_RE.pattern),
    ("SYSID", _SYSID_RE.pattern),
    ("ESCID", r"\\\S*"),
    ("ERROR", r"[\s\S]"),
)))

#: what an ``ERROR`` character means when it opens a token that failed
_OPENER_ERRORS = {'"': "unterminated string", "'": "malformed based literal",
                  "$": "malformed system identifier"}


#: a line comment, a block comment, a string or an escaped identifier
#: (which may hold ``"``, ``//`` or ``/*``) — then, so that each is
#: reported where it opens, a block comment or string that never closes
_COMMENT_RE = re.compile(
    r'//[^\n]*|/\*[\s\S]*?\*/|' + _STRING_RE.pattern + r'|\\\S*|/\*|"')
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _blank_comment(m: re.Match[str]) -> str:
    found = m.group(0)
    if found in ('"', "/*"):
        what = "string" if found == '"' else "block comment"
        raise LexError(f"unterminated {what}", SourcePos(
            m.string.count("\n", 0, m.start()) + 1, 1))
    return found if found[0] in '"\\' else _NOT_NEWLINE_RE.sub(" ", found)


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
        if "`" not in text:
            return text
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
    """Tokenize *text*, returning a list ending with an ``EOF`` token.

    One walk of :data:`_TOKEN_RE`.  A token's column counts from the
    last newline before it, including one inside an earlier string or
    based literal.
    """
    text = _strip_comments(Preprocessor(defines).process(text))
    tokens: List[Token] = []
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BLANK":
            continue
        start = m.start()
        if kind == "NL":
            line += 1
            line_start = start + 1
            continue
        word = m.group()
        pos = new(SourcePos, (line, start - line_start + 1))
        if kind == "OP":  # the commonest kind, kept as matched
            pass
        elif kind == "ID":
            if word in KEYWORDS:
                kind = "KEYWORD"
        elif kind == "STRING" or kind == "BASEDNUM":
            if "\n" in word:
                line += word.count("\n")
                line_start = start + word.rindex("\n") + 1
            if kind == "STRING":
                word = (word[1:-1].replace("\\n", "\n").replace("\\t", "\t")
                        .replace('\\"', '"').replace("\\\\", "\\"))
        elif kind == "ESCID":
            kind, word = "ID", word[1:]
        elif kind == "ERROR":
            raise LexError(_OPENER_ERRORS.get(
                word, f"unexpected character {word!r}"), pos)
        append(new(Token, (kind, word, pos)))
    append(new(Token, ("EOF", "", new(SourcePos, (line, len(text) - line_start + 1)))))
    return tokens


#: digit value and digit width per base letter
_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}
_DIGIT_BITS = {"b": 1, "o": 3, "d": 0, "h": 4}
_XZ_RE = re.compile(r"[xXzZ?]")


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
    xz_mask = 0
    if _XZ_RE.search(digits):
        bits_per_digit = _DIGIT_BITS[base]
        if bits_per_digit:
            for ch in digits:
                xz_mask <<= bits_per_digit
                if ch in "xXzZ?":
                    xz_mask |= (1 << bits_per_digit) - 1
        digits = _XZ_RE.sub("0", digits)
    value = int(digits, _RADIX[base]) if digits else 0
    if width is not None:
        value &= (1 << width) - 1
        xz_mask &= (1 << width) - 1
    return width, signed, base, value, xz_mask
