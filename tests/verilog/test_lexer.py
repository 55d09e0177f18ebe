"""Tokenizer unit tests."""

import pytest

from repro.verilog.lexer import LexError, Preprocessor, parse_based_literal, tokenize


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
