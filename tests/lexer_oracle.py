"""The rulesheet lexer as it was before the master-pattern lexer: each token
pattern tried in turn at every position, and string literals scanned a
character at a time. Kept as an oracle for `tests/test_lexer.py`; tokens are
(kind, value, line, col) tuples."""

import re

from cyberlog.errors import ParseError

_TOKEN_SPEC = [
    ("WS", re.compile(r"[ \t\r\n]+")),
    ("COMMENT", re.compile(r"//[^\n]*")),
    ("INT", re.compile(r"\d+")),
    ("IDENT", re.compile(r"[a-z][A-Za-z0-9_]*")),
    ("VARIABLE", re.compile(r"[A-Z][A-Za-z0-9_]*")),
    ("OP", re.compile(r":-|==|!=|<=|>=|[<>().,:+\-*]")),
]


def oracle_lex(text: str) -> list[tuple[str, str, int, int]]:
    toks = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        col = pos - line_start + 1
        if ch == "'":
            value, end = _lex_string(text, pos, line, col)
            toks.append(("STRING", value, line, col))
            nl = text.count("\n", pos, end)
            if nl:
                line += nl
                line_start = text.rfind("\n", pos, end) + 1
            pos = end
            continue
        for kind, rx in _TOKEN_SPEC:
            m = rx.match(text, pos)
            if m:
                if kind == "WS":
                    nl = m.group().count("\n")
                    if nl:
                        line += nl
                        line_start = m.start() + m.group().rfind("\n") + 1
                elif kind != "COMMENT":
                    toks.append((kind, m.group(), line, col))
                pos = m.end()
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("EOF", "", line, n - line_start + 1))
    return toks


_STRING_ESCAPES = {"'": "'", "\\": "\\", "n": "\n"}


def _lex_string(text: str, start: int, line: int, col: int) -> tuple[str, int]:
    # start points at the opening quote; escapes: \' \\ \n
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n and text[i + 1] in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[text[i + 1]])
            i += 2
        elif ch == "'":
            return "".join(out), i + 1
        elif ch == "\n":
            raise ParseError("unterminated string literal", line, col)
        else:
            out.append(ch)
            i += 1
    raise ParseError("unterminated string literal", line, col)
