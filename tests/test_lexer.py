"""The master-pattern lexer against the old one (`tests/lexer_oracle.py`):
the same tokens, positions and errors on any text."""

import glob
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from cyberlog.errors import ParseError
from cyberlog.lang import _TOKEN_RE, _lex

from lexer_oracle import oracle_lex

RULES_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios", "rules")


def outcome(lex, text):
    """The tokens as (kind, value, line, col) tuples, or the error's message
    and position."""
    try:
        return [tuple(tok) for tok in lex(text)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


# pieces that make tokens, near-tokens and the lexer's edge cases: escapes,
# a backslash before the closing quote, line breaks inside and after
# literals and comments, characters no token starts with
PIECES = [
    "'", "\\", "\\'", "\\\\", "\\n", "\n", "\r", "\t", " ", "//", "// c\n", ":-", ":", "-", "==", "=", "!=", "!",
    "<=", ">=", "<", ">", "(", ")", ".", ",", "+", "*", "0", "42", "٣", "x", "next", "attests", "Var", "_",
    "'SB'", "'a b'", "é", "\x0b", "#", "\"", "get_param_int",
]


@settings(max_examples=1500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=30).map("".join), st.text(max_size=40)))
def test_lexer_matches_the_old_one(text):
    assert outcome(_lex, text) == outcome(oracle_lex, text)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(RULES_DIR, "*.cyberlog"))))
def test_lexer_matches_the_old_one_on_every_scenario_rulesheet(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert outcome(_lex, text) == outcome(oracle_lex, text)


def test_master_pattern_needs_no_python_3_11_syntax():
    """The package supports Python 3.10, whose `re` has neither possessive
    quantifiers nor atomic groups."""
    assert not re.search(r"[*+?}]\+|\(\?>", _TOKEN_RE.pattern)
