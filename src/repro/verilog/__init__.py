"""Verilog frontend: lexer, parser, AST, printer, widths, elaboration."""

from . import ast_nodes as ast
from .lexer import LexError, Token, tokenize
from .parser import ParseError, parse, parse_expr, parse_module, parse_stmt
from .printer import print_expr, print_item, print_module, print_source, print_stmt
from .width import (
    Signal, WidthEnv, WidthError, const_eval, const_number, const_value, mask, to_signed,
)
from .elaborate import ElaborationError, HIER_SEP, flatten, instance_tree

__all__ = [
    "ast", "LexError", "Token", "tokenize",
    "ParseError", "parse", "parse_expr", "parse_module", "parse_stmt",
    "print_expr", "print_item", "print_module", "print_source", "print_stmt",
    "Signal", "WidthEnv", "WidthError", "const_eval", "const_number", "const_value",
    "mask", "to_signed",
    "ElaborationError", "HIER_SEP", "flatten", "instance_tree",
]
