"""Tokenizer unit tests."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.verilog import ast, parse, parse_stmt
from repro.verilog.ast_nodes import SourcePos
from repro.verilog.lexer import (
    KEYWORDS, OPERATORS, LexError, Preprocessor, parse_based_literal, tokenize,
)
from repro.verilog.parser import ParseError


def kinds(text):
    return [t.kind for t in tokenize(text) if t.kind != "EOF"]


def texts(text):
    return [t.text for t in tokenize(text) if t.kind != "EOF"]


class TestBasicTokens:
    def test_identifiers(self):
        assert kinds("foo _bar baz_9 a$b") == ["ID"] * 4

    def test_keywords(self):
        assert kinds("module endmodule wire reg") == ["KEYWORD"] * 4

    def test_keyword_prefix_is_identifier(self):
        # 'modulex' must not lex as keyword + x.
        toks = tokenize("modulex")
        assert toks[0].kind == "ID" and toks[0].text == "modulex"

    def test_system_identifiers(self):
        toks = tokenize("$display $fopen")
        assert [t.kind for t in toks[:2]] == ["SYSID", "SYSID"]
        assert toks[0].text == "$display"

    def test_escaped_identifier(self):
        toks = tokenize(r"\my+weird+name rest")
        assert toks[0].kind == "ID"
        assert toks[0].text == "my+weird+name"
        assert toks[1].text == "rest"

    def test_decimal_numbers(self):
        assert texts("42 1_000") == ["42", "1_000"]

    def test_based_literals(self):
        toks = tokenize("8'hFF 4'b1010 32'd7 'h10")
        assert all(t.kind == "BASEDNUM" for t in toks[:4])

    def test_strings_with_escapes(self):
        toks = tokenize(r'"a\nb" "q\"uote"')
        assert toks[0].text == "a\nb"
        assert toks[1].text == 'q"uote'

    def test_multichar_operators_longest_match(self):
        assert texts("<<< >>> === !== <= >= && || << >>") == [
            "<<<", ">>>", "===", "!==", "<=", ">=", "&&", "||", "<<", ">>",
        ]

    def test_attribute_markers(self):
        toks = tokenize("(* non_volatile *) reg x;")
        assert toks[0].kind == "ATTR_OPEN"
        assert toks[1].text == "non_volatile"
        assert toks[2].kind == "ATTR_CLOSE"

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("module `")


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_block_comment_preserves_line_numbers(self):
        toks = tokenize("/* one\ntwo */\nfoo")
        assert toks[0].pos.line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_comment_markers_inside_strings(self):
        toks = tokenize('"no // comment" x')
        assert toks[0].kind == "STRING"
        assert toks[0].text == "no // comment"


class TestPreprocessor:
    def test_define_and_use(self):
        out = Preprocessor().process("`define WIDTH 8\nreg [`WIDTH-1:0] x;")
        assert "reg [8-1:0] x;" in out

    def test_nested_macro_expansion(self):
        pre = Preprocessor()
        out = pre.process("`define A `B\n`define B 5\nwire w = `A;")
        assert "wire w = 5;" in out

    def test_undef(self):
        out = Preprocessor().process("`define X 1\n`undef X\n`X")
        assert "`X" in out

    def test_ifdef_taken(self):
        out = Preprocessor().process(
            "`define F\n`ifdef F\nyes\n`else\nno\n`endif"
        )
        assert "yes" in out and "no" not in out

    def test_ifndef(self):
        out = Preprocessor().process("`ifndef MISSING\nyes\n`endif")
        assert "yes" in out

    def test_ifdef_else_branch(self):
        out = Preprocessor().process("`ifdef MISSING\nyes\n`else\nno\n`endif")
        assert "no" in out and "yes" not in out

    def test_timescale_ignored(self):
        out = Preprocessor().process("`timescale 1ns/1ps\nmodule m;")
        assert "module m;" in out and "timescale" not in out

    def test_initial_defines_parameter(self):
        pre = Preprocessor({"EXT": "123"})
        assert "123" in pre.process("x = `EXT;")


class TestBasedLiteralDecoding:
    def test_hex(self):
        assert parse_based_literal("8'hFF") == (8, False, "h", 0xFF, 0)

    def test_signed_marker(self):
        width, signed, base, value, xz = parse_based_literal("4'sb1010")
        assert signed and width == 4 and value == 0b1010

    def test_width_truncation(self):
        assert parse_based_literal("4'hFF")[3] == 0xF

    def test_underscores(self):
        assert parse_based_literal("16'hAB_CD")[3] == 0xABCD

    def test_dontcare_mask_binary(self):
        width, _, _, value, xz = parse_based_literal("4'b1?0?")
        assert value == 0b1000
        assert xz == 0b0101

    def test_dontcare_mask_hex(self):
        _, _, _, value, xz = parse_based_literal("8'h?F")
        assert value == 0x0F
        assert xz == 0xF0

    def test_unsized(self):
        width, _, base, value, _ = parse_based_literal("'d42")
        assert width is None and value == 42


def _parse_based_literal_reference(text):
    """``parse_based_literal`` before its tables and pattern were
    hoisted and its mask loop skipped for x/z-free digits, frozen."""
    text = text.strip()
    width = None
    tick = text.index("'")
    if tick > 0:
        width = int(text[:tick].replace("_", ""))
    rest = text[tick + 1:].strip()
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


_DIGITS = {"b": "01", "o": "01234567", "d": "0123456789",
           "h": "0123456789abcdefABCDEF"}
_blanks = st.text(" \t\n", max_size=2)


@st.composite
def based_literals(draw):
    """Width (with ``_``), ``s``/``S``, base in either case, digits of
    that base with ``_`` and x/z/? (a decimal may be all ``x``), and a
    blank run between any two parts."""
    base = draw(st.sampled_from("bodh"))
    alphabet = _DIGITS[base] + "_" + ("xXzZ?" if base != "d" else "")
    digits = draw(st.one_of(
        st.text(alphabet, min_size=1, max_size=20),
        st.sampled_from(["x", "X", "z", "?", "_"]) if base == "d" else st.nothing(),
    ))
    width = draw(st.one_of(st.just(""), st.from_regex(r"[1-9][0-9_]{0,2}", fullmatch=True)))
    parts = [draw(_blanks), width, draw(_blanks), "'", draw(_blanks),
             draw(st.sampled_from(["", "s", "S"])), draw(_blanks),
             draw(st.sampled_from([base, base.upper()])), draw(_blanks),
             digits, draw(_blanks)]
    return "".join(parts)


def _decode_outcome(decode, text):
    try:
        return decode(text)
    except ValueError as err:  # digits that are only blanks once ``_`` goes
        return type(err), str(err)


class TestBasedLiteralParity:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(based_literals())
    def test_matches_the_frozen_decoder(self, text):
        assert _decode_outcome(parse_based_literal, text) == \
            _decode_outcome(_parse_based_literal_reference, text)

    @pytest.mark.parametrize("text", ["8'dx", "8'd?", "'dz", "4'b1x0z", "8'h_", "'sh x_F"])
    def test_xz_digits(self, text):
        assert parse_based_literal(text) == _parse_based_literal_reference(text)


def _tokenize_reference(text, defines=None):
    """The pre-regex tokenizer loop, frozen: operators by trying each
    ``OPERATORS`` entry with ``startswith``, blanks one character at a
    time.  Kept only as the oracle for ``TestOperatorRegexEquivalence``."""
    from repro.verilog import lexer as lx
    from repro.verilog.ast_nodes import SourcePos

    text = lx._strip_comments(lx.Preprocessor(defines).process(text))
    tokens = []
    line, line_start = 1, 0
    i, n = 0, len(text)

    def pos(at):
        return SourcePos(line, at - line_start + 1)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
        elif ch in " \t\r\f":
            i += 1
        elif ch == "(" and text.startswith("(*", i):
            tokens.append(lx.Token("ATTR_OPEN", "(*", pos(i)))
            i += 2
        elif ch == "*" and text.startswith("*)", i):
            tokens.append(lx.Token("ATTR_CLOSE", "*)", pos(i)))
            i += 2
        elif ch == '"':
            m = lx._STRING_RE.match(text, i)
            value = (m.group(1).replace("\\n", "\n").replace("\\t", "\t")
                     .replace('\\"', '"').replace("\\\\", "\\"))
            tokens.append(lx.Token("STRING", value, pos(i)))
            i = m.end()
        elif ch == "'":
            m = lx._BASED_RE.match(text, i)
            tokens.append(lx.Token("BASEDNUM", m.group(0), pos(i)))
            i = m.end()
        elif ch.isdigit():
            m = lx._DEC_RE.match(text, i)
            based = lx._BASED_RE.match(text, m.end())
            if based:
                tokens.append(lx.Token("BASEDNUM", text[i:based.end()], pos(i)))
                i = based.end()
            else:
                tokens.append(lx.Token("NUMBER", m.group(0), pos(i)))
                i = m.end()
        elif ch == "$":
            m = lx._SYSID_RE.match(text, i)
            tokens.append(lx.Token("SYSID", m.group(0), pos(i)))
            i = m.end()
        elif ch == "\\":
            j = i + 1
            while j < n and not text[j].isspace():
                j += 1
            tokens.append(lx.Token("ID", text[i + 1:j], pos(i)))
            i = j
        elif ch.isalpha() or ch == "_":
            m = lx._ID_RE.match(text, i)
            word = m.group(0)
            kind = "KEYWORD" if word in lx.KEYWORDS else "ID"
            tokens.append(lx.Token(kind, word, pos(i)))
            i = m.end()
        else:
            for op in lx.OPERATORS:
                if text.startswith(op, i):
                    tokens.append(lx.Token("OP", op, pos(i)))
                    i += len(op)
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", pos(i))
    tokens.append(lx.Token("EOF", "", pos(i)))
    return tokens


class TestOperatorRegexEquivalence:
    """One alternation + blank-run regex vs the frozen per-operator loop:
    kind, text and position of every token must be unchanged."""

    def test_every_operator_and_blank_mix(self):
        from repro.verilog.lexer import OPERATORS

        text = " \t".join(OPERATORS) + "\n\r\f  a<<<=b>>>c!==d~^e^~f+:g**h \t\n"
        assert tokenize(text) == _tokenize_reference(text)
        with pytest.raises(LexError):
            tokenize("a ` b")

    def test_table1_sources(self):
        from repro.bench import BENCHMARKS
        from repro.harness.common import bench_source_kwargs

        for name, bench in BENCHMARKS.items():
            text = bench.source(**bench_source_kwargs(name))
            assert tokenize(text) == _tokenize_reference(text), name

    def test_first_fifty_fuzz_seeds(self):
        from repro.fuzz.gen import generate

        for seed in range(50):
            text = generate(seed).source
            assert tokenize(text) == _tokenize_reference(text), seed


def _strip_comments_reference(text):
    """The pre-regex comment stripper, frozen: one Python step per
    character.  Kept only as the oracle for
    ``TestCommentRegexEquivalence``."""
    from repro.verilog import lexer as lx
    from repro.verilog.ast_nodes import SourcePos

    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            out.append(" " * (j - i))
            i = j
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j == -1:
                raise LexError("unterminated block comment",
                               SourcePos(text.count("\n", 0, i) + 1, 1))
            chunk = text[i:j + 2]
            out.append("".join("\n" if c == "\n" else " " for c in chunk))
            i = j + 2
        elif ch == '"':
            m = lx._STRING_RE.match(text, i)
            if not m:
                raise LexError("unterminated string",
                               SourcePos(text.count("\n", 0, i) + 1, 1))
            out.append(m.group(0))
            i = m.end()
        else:
            out.append(ch)
            i += 1
    return "".join(out)


class TestCommentRegexEquivalence:
    """One substitution vs the frozen character loop: same text out
    (strings kept, comments blanked, every newline and column where it
    was), same error at the same position."""

    @staticmethod
    def same(text):
        from repro.verilog.lexer import _strip_comments

        assert _strip_comments(text) == _strip_comments_reference(text)

    def test_table1_sources(self):
        from repro.bench import BENCHMARKS
        from repro.harness.common import bench_source_kwargs

        for name, bench in BENCHMARKS.items():
            self.same(bench.source(**bench_source_kwargs(name)))

    def test_fuzz_seeds(self):
        from repro.fuzz.gen import generate

        for seed in range(200):
            self.same(generate(seed).source)

    def test_corpus(self):
        import os

        corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
        names = sorted(os.listdir(corpus))
        assert names
        for name in names:
            with open(os.path.join(corpus, name)) as handle:
                self.same(handle.read())

    @pytest.mark.parametrize("text", [
        'x = "// not a comment"; y = "/* nor this */";',
        '// a "string in a line comment\nz',
        '/* a "string in a block comment */ z',
        'a /* spans\n\n  lines */ b // tail\nc',
        '"escaped \\" quote // still string" // comment',
        "/*/ not closed by its own slash */ a / b /",
        "/**/a//",
        '"a string\nacross lines" /* c */',
    ])
    def test_hand_cases(self, text):
        from repro.verilog.lexer import _strip_comments

        self.same(text)
        out = _strip_comments(text)
        assert len(out) == len(text)
        assert [i for i, c in enumerate(out) if c == "\n"] == \
            [i for i, c in enumerate(text) if c == "\n"]

    @pytest.mark.parametrize("text", [
        "a /* never closed",
        "a\n\n  /* on line three",
        "/*/",
        'x = "never closed',
        'a\n"escape at the end\\',
        '"backslash-newline\\\nends it"',
        'a "ok" /* open \n "',
    ])
    def test_unterminated_raises_at_the_same_position(self, text):
        from repro.verilog.lexer import _strip_comments

        with pytest.raises(LexError) as want:
            _strip_comments_reference(text)
        with pytest.raises(LexError) as got:
            _strip_comments(text)
        assert str(got.value) == str(want.value)
        assert got.value.pos == want.value.pos


class TestPositionsAfterMultiLineTokens:
    """A newline inside a based literal or a string moves the line of
    every later token, and its column counts from that newline."""

    def test_based_literal_with_a_newline_before_its_digits(self):
        toks = tokenize("a = 8'h\n FF;\nb")
        assert [(t.text, str(t.pos)) for t in toks] == [
            ("a", "1:1"), ("=", "1:3"), ("8'h\n FF", "1:5"), (";", "2:4"),
            ("b", "3:1"), ("", "3:2")]

    def test_string_holding_a_raw_newline(self):
        toks = tokenize('$display("one\ntwo"); x\n  y')
        assert [(t.text, str(t.pos)) for t in toks[2:-1]] == [
            ("one\ntwo", "1:10"), (")", "2:5"), (";", "2:6"), ("x", "2:8"),
            ("y", "3:3")]

    def test_parse_error_points_at_the_right_line(self):
        from repro.verilog import parse
        from repro.verilog.parser import ParseError

        with pytest.raises(ParseError) as err:
            parse("module m;\n  wire [7:0] w = 8'h\n    FF;\n  wire ;\nendmodule")
        assert str(err.value.pos) == "4:8"


class TestEscapedIdsInTheCommentPass:
    """An escaped identifier runs to the next blank, so a ``"``, ``//``
    or ``/*`` inside one opens no string or comment."""

    @pytest.mark.parametrize("text, want", [
        ('reg \\a"b ;', [("reg", "1:1"), ('a"b', "1:5"), (";", "1:10")]),
        ("reg \\a//b ;\nwire w;",
         [("reg", "1:1"), ("a//b", "1:5"), (";", "1:11"), ("wire", "2:1"),
          ("w", "2:6"), (";", "2:7")]),
        ("reg \\a/*b ;\nwire w; // */ x",
         [("reg", "1:1"), ("a/*b", "1:5"), (";", "1:11"), ("wire", "2:1"),
          ("w", "2:6"), (";", "2:7")]),
    ])
    def test_tokens_after_the_escaped_id_stay_where_they_are(self, text, want):
        toks = tokenize(text)[:-1]
        assert [(t.text, str(t.pos)) for t in toks] == want
        assert toks[1].kind == "ID"


# -- lexer differential -------------------------------------------------------

def _joined(*parts):
    """A strategy for the concatenation of one draw from each part."""
    return st.tuples(*parts).map("".join)


_ID_START = "abcxyzAZ_"
_WORD = _ID_START + "09$"
_SINGLE_LINE_PIECES = st.one_of(
    st.sampled_from(OPERATORS),
    st.sampled_from(sorted(KEYWORDS)),
    _joined(st.sampled_from(_ID_START), st.text(_WORD, max_size=5)),
    _joined(st.just("$"), st.sampled_from(_ID_START), st.text(_WORD, max_size=5)),
    _joined(st.sampled_from("0123456789"), st.text("09_", max_size=4)),
    _joined(st.sampled_from(["", "8", "1_6"]), st.just("'"), st.sampled_from(["", " ", "\t"]),
            st.sampled_from(["", "s"]), st.sampled_from("bBoOdDhH"),
            st.sampled_from(["", " "]), st.text("019afAFxXzZ_?", min_size=1, max_size=6)),
    st.lists(st.sampled_from(["a", " ", "//", "/*", "\\n", "\\t", '\\"', "\\\\"]),
             max_size=5).map(lambda units: '"' + "".join(units) + '"'),
    st.sampled_from(["(*", "*)", "(* keep *)", "(* a = 1, b *)"]),
    _joined(st.just("\\"), st.text("a+-*/()[]{}$'`\\", min_size=1, max_size=5),
            st.just(" ")),
)
_COMMENTS = st.one_of(
    st.text("ab */\"", max_size=8).map(lambda body: "//" + body + "\n"),
    st.text("ab *\n\"", max_size=8).map(
        lambda body: "/*" + body.replace("*", "* ") + "*/"),
)
_BLANK_RUNS = st.text(" \t\r\f\n", min_size=1, max_size=4)


#: operators, ids, keywords, numbers, based literals, strings,
#: attributes and escaped ids, with comments and blank/newline runs (or
#: nothing) between them.  No token holds a raw newline, so the frozen
#: loop's positions are the right ones.
token_soups = st.lists(
    _joined(st.one_of(_SINGLE_LINE_PIECES, _COMMENTS),
            st.one_of(st.just(""), st.just(" "), _BLANK_RUNS)),
    max_size=20,
).map("".join)


def _lex_outcome(lex, text):
    try:
        return lex(text)
    except LexError as err:
        return (str(err), err.pos)


def _where(text, index):
    """``line:column`` of *index*, counting every newline before it."""
    line = text.count("\n", 0, index) + 1
    column = index - text.rfind("\n", 0, index)
    return f"{line}:{column}"


class TestLexerDifferential:
    """``tokenize`` against the frozen loop on random token soups: the
    same tokens, or the same ``LexError`` at the same position."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(token_soups)
    def test_same_tokens_as_the_frozen_loop(self, text):
        assert _lex_outcome(tokenize, text) == _lex_outcome(_tokenize_reference, text)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(token_soups, st.sampled_from(["'", "$", "`", '"', "/*"]), token_soups)
    def test_malformed_input_raises_where_the_frozen_loop_did(self, head, bad, tail):
        """A bare ``'``/``$``, a stray backtick, or a string or block
        comment that never closes, after a soup that lexes."""
        try:
            _tokenize_reference(head)
            _tokenize_reference(tail)
        except LexError:
            return
        text = head + " " + bad + (";" + tail if bad in "'$`" else " never closed")
        at = len(head) + 1
        message = {"'": "malformed based literal", "$": "malformed system identifier",
                   "`": "unexpected character '`'", '"': "unterminated string",
                   "/*": "unterminated block comment"}[bad]
        where = _where(text, at)
        if bad in ('"', "/*"):  # reported by the comment pass, at column 1
            where = where.split(":")[0] + ":1"
        with pytest.raises(LexError) as got:
            tokenize(text)
        assert str(got.value) == f"{where}: {message}"
        if bad not in "'$":   # the frozen loop crashes on these two
            assert _lex_outcome(_tokenize_reference, text) == (str(got.value), got.value.pos)


def _node_positions(node):
    """Every set ``SourcePos`` in a parse tree, in field order."""
    if isinstance(node, SourcePos):
        if node != SourcePos():
            yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _node_positions(item)
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from _node_positions(getattr(node, field.name))


def _decl_positions(text):
    (module,) = parse(text).modules
    return {item.name: str(item.pos) for item in module.items
            if isinstance(item, ast.Decl)}


class TestPositionEdgeCases:
    """Where the column scan could drift from a per-token walk: line and
    column come from a table of line starts, and only a node or an
    error builds a position.  Each case holds ``tokenize`` and the
    positions a parse gives its nodes to the frozen loop, or, where a
    token holds a raw newline (which the frozen loop counted wrong), to
    the rule ``_where`` states: the column counts from the last newline
    before the token."""

    @pytest.mark.parametrize("text", [
        "module m;\n  reg \\a+b ;\n  wire \\c$d = \\a+b ;\nendmodule\n",
        "module m;\n  reg \\x\\y , \\( ;\nendmodule",
        "module m;\n  wire w;\nendmodule \f\n \t\r\f",
        "module m; wire w; endmodule\n\n\f",
    ])
    def test_tokens_and_node_positions_match_the_frozen_loop(self, text):
        want = _tokenize_reference(text)
        assert tokenize(text) == want
        got = list(_node_positions(parse(text)))
        assert got and set(got) <= {t.pos for t in want}

    def test_escaped_identifiers_keep_their_positions(self):
        text = "module m;\n  reg \\a+b ;\n  wire \\c$d = \\a+b ;\nendmodule\n"
        assert _decl_positions(text) == {"a+b": "2:7", "c$d": "3:8"}

    @pytest.mark.parametrize("text", ["x = 1;", "{a, b} <= c;", "x[0] = \\y ;"])
    def test_the_nodes_a_token_starts_share_its_position(self, text):
        """One ``SourcePos`` per token, as when each token carried one:
        a statement and its target hold one object, in memory and in a
        pickle of the tree."""
        stmt = parse_stmt(text)
        target = stmt.lhs.base if isinstance(stmt.lhs, ast.Index) else stmt.lhs
        assert stmt.pos is target.pos
        assert stmt.pos == SourcePos(1, 1)

    @pytest.mark.parametrize("tail", ["", " ", "\f", " \t\r\f", "\n", "\n\f\n  \f"])
    def test_an_error_at_eof_points_where_the_frozen_loop_ends(self, tail):
        text = "module m;\n  wire w;" + tail
        eof = _tokenize_reference(text)[-1]
        assert tokenize(text)[-1] == eof
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.pos == eof.pos
        assert str(err.value) == f"{eof.pos}: unexpected EOF in module body"

    @pytest.mark.parametrize("text", [
        'module m;\n  initial $display("never closed);\nendmodule',
        'module m;\n  initial $display("ok");\n  /* never closed\nendmodule',
        "module m;\n  wire\v w;\nendmodule",
    ])
    def test_lex_errors_raise_where_the_frozen_loop_did(self, text):
        with pytest.raises(LexError) as want:
            _tokenize_reference(text)
        for lex in (tokenize, parse):
            with pytest.raises(LexError) as got:
                lex(text)
            assert str(got.value) == str(want.value)
            assert got.value.pos == want.value.pos

    @pytest.mark.parametrize("text, tail, decls", [
        ('module m;\n  initial $display("one\ntwo", x);\n  wire w;\nendmodule',
         [("one\ntwo", "2:20"), (",", "3:5"), ("x", "3:7"), (")", "3:8"),
          (";", "3:9"), ("wire", "4:3"), ("w", "4:8"), (";", "4:9"),
          ("endmodule", "5:1"), ("", "5:10")],
         {"w": "4:8"}),
        ("module m;\n  wire [7:0] v = 8'\nhFF;\n  wire w;\nendmodule",
         [("8'\nhFF", "2:18"), (";", "3:4"), ("wire", "4:3"), ("w", "4:8"),
          (";", "4:9"), ("endmodule", "5:1"), ("", "5:10")],
         {"v": "2:14", "w": "4:8"}),
        ("module m;\n  wire [7:0] v = 'h\n\n FF, w = 1;\nendmodule",
         [("'h\n\n FF", "2:18"), (",", "4:4"), ("w", "4:6"), ("=", "4:8"),
          ("1", "4:10"), (";", "4:11"), ("endmodule", "5:1"), ("", "5:10")],
         {"v": "2:14", "w": "4:6"}),
    ])
    def test_a_token_after_a_raw_newline_counts_from_it(self, text, tail, decls):
        toks = tokenize(text)
        assert [(t.text, str(t.pos)) for t in toks[-len(tail):]] == tail
        at = text.index(tail[0][0]) + len(tail[0][0])
        for mark, pos in tail[1:-1]:
            at = text.index(mark, at)
            assert _where(text, at) == pos
            at += len(mark)
        assert _decl_positions(text) == decls
        assert set(_node_positions(parse(text))) <= {t.pos for t in toks}
