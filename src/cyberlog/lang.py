"""Cyberlog rulesheets: AST, lexer, parser and canonical formatter.

A rulesheet is a list of identity declarations followed by rules. Atoms are
attestations ``'P' attests pred(args)``; a bare ``pred(args)`` is shorthand
for an attestation by the principal executing the sheet and is desugared at
parse time, so parsed ASTs never contain an implicit-self marker. The parser
checks syntax only; a sheet is its principal's published contract, which
the one constructor of a `Rulesheet` checks (`_contract_violations`), so no
`Rulesheet` breaks it.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple, Union

from .errors import ParseError

# Registered builtins and their argument modes ('i' = input, must be bound;
# 'o' = output, may bind a variable). Semantics live in the engine module.
BUILTIN_MODES: dict[str, str] = {
    "get_param_int": "iio",
    "get_param_str": "iio",
}

# Names with this prefix are reserved for builtins; using an unregistered one
# is a parse error rather than silently becoming a relational predicate.
_BUILTIN_PREFIX = "get_param"

COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")
ARITH_OPS = ("+", "-", "*")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_IDENT_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class IntConstant:
    value: int


@dataclass(frozen=True)
class StringConstant:
    value: str


@dataclass(frozen=True)
class ArithExpr:
    op: str  # one of + - *
    left: "Term"
    right: "Term"


Term = Union[Variable, IntConstant, StringConstant, ArithExpr]


@dataclass(frozen=True)
class RelationalAtom:
    """``principal attests predicate(args)`` with an explicit principal."""

    principal: str
    predicate: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class BuiltinAtom:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class ComparisonAtom:
    op: str
    left: Term
    right: Term


BodyAtom = Union[RelationalAtom, BuiltinAtom, ComparisonAtom]


class RuleKind(Enum):
    STANDARD = "standard"
    NEXT = "next"


@dataclass(frozen=True)
class Rule:
    kind: RuleKind
    head: RelationalAtom
    body: tuple[BodyAtom, ...]
    line: int | None = field(default=None, compare=False)

    @property
    def is_next(self) -> bool:
        return self.kind is RuleKind.NEXT

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # a rulesheet looks a rule up by value for each claim it encodes
        return hash((self.kind, self.head, self.body))

    @functools.cached_property
    def variables(self) -> tuple[str, ...]:
        """Sorted names of the variables in head and body, computed on
        first use and kept."""
        names: set[str] = set()
        for atom in (self.head, *self.body):
            if isinstance(atom, ComparisonAtom):
                names.update(term_variables(atom.left))
                names.update(term_variables(atom.right))
            else:
                for arg in atom.args:
                    names.update(term_variables(arg))
        return tuple(sorted(names))

    @functools.cached_property
    def head_variables(self) -> frozenset[str]:
        """Names of the variables that are bare head arguments, whose values
        a head atom alone fixes; computed on first use and kept."""
        return frozenset(arg.name for arg in self.head.args if isinstance(arg, Variable))


@dataclass(frozen=True)
class IdentityDecl:
    name: str
    subject: str
    issuer: str


@dataclass(frozen=True)
class Rulesheet:
    """A principal's rulesheet. It is made only if it keeps the contract
    (`_contract_violations`); else ParseError names every reason."""

    self_id: str
    identities: tuple[IdentityDecl, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "identities", tuple(self.identities))
        object.__setattr__(self, "rules", tuple(self.rules))
        reasons = _contract_violations(self)
        if reasons:
            raise ParseError("invalid rulesheet: " + "; ".join(reasons))

    @functools.cached_property
    def source_hash(self) -> bytes:
        """SHA-256 of the canonical text, computed on first use and kept."""
        return hashlib.sha256(format_rulesheet(self).encode("utf-8")).digest()

    def rule_index(self, rule: Rule) -> int | None:
        """The first index of a rule equal to `rule`, which evidence logs
        to name it, or None if the sheet holds no such rule."""
        return self._first_index.get(rule)

    @functools.cached_property
    def _first_index(self) -> dict[Rule, int]:
        first: dict[Rule, int] = {}
        for index, rule in enumerate(self.rules):
            first.setdefault(rule, index)
        return first


# ---------------------------------------------------------------------------
# Lexer

# One master pattern: at each position the first alternative that matches
# wins, as if each token pattern were tried in turn. A string literal runs
# to the first quote that no backslash escapes (\' \\ \n; any other
# backslash is itself) and may not hold a line break; a quote that opens
# none is an unterminated literal. The literal's alternatives are
# disjoint, so an unterminated one backtracks in linear time.
_TOKEN_RE = re.compile(
    r"(?P<WS>[ \t\r\n]+)"
    r"|(?P<COMMENT>//[^\n]*)"
    r"|(?P<INT>\d+)"
    r"|(?P<IDENT>[a-z][A-Za-z0-9_]*)"
    r"|(?P<VARIABLE>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<OP>:-|==|!=|<=|>=|[<>().,:+\-*])"
    r"|(?P<STRING>'(?:[^'\n\\]|\\['\\n]|\\(?!['\\n]))*')"
    r"|(?P<UNTERMINATED>')"
    r"|(?P<UNEXPECTED>.)",
    re.DOTALL,
)
_STRING_ESCAPE_RE = re.compile(r"\\(['\\n])")
_STRING_ESCAPES = {"'": "'", "\\": "\\", "n": "\n"}


class _Tok(NamedTuple):
    kind: str  # INT IDENT VARIABLE STRING OP EOF
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "WS":
            value = m.group()
            nl = value.count("\n")
            if nl:
                line += nl
                line_start = m.start() + value.rfind("\n") + 1
            continue
        if kind == "COMMENT":
            continue
        col = m.start() - line_start + 1
        value = m.group()
        if kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _STRING_ESCAPE_RE.sub(lambda e: _STRING_ESCAPES[e.group(1)], value)
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string literal", line, col)
        elif kind == "UNEXPECTED":
            raise ParseError(f"unexpected character {value!r}", line, col)
        toks.append(_Tok(kind, value, line, col))
    toks.append(_Tok("EOF", "", line, len(text) - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, toks: list[_Tok], self_id: str):
        self.toks = toks
        self.pos = 0
        self.self_id = self_id

    # token helpers ---------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {tok.value or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def at_op(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value == value

    # grammar ---------------------------------------------------------

    def parse_sheet(self) -> tuple[list[IdentityDecl], list[Rule]]:
        identities: list[IdentityDecl] = []
        rules: list[Rule] = []
        while self.peek().kind != "EOF":
            if self.peek().kind == "STRING" and self.peek(1).kind == "OP" and self.peek(1).value == ":":
                identities.append(self.parse_identity())
            else:
                rules.append(self.parse_rule())
        return identities, rules

    def parse_identity(self) -> IdentityDecl:
        name = self.expect("STRING").value
        self.expect("OP", ":")
        self.expect("VARIABLE", "Subject")
        self.expect("OP", ":")
        subject = self.expect("STRING").value
        self.expect("VARIABLE", "Issuer")
        self.expect("OP", ":")
        issuer = self.expect("STRING").value
        return IdentityDecl(name, subject, issuer)

    def parse_rule(self) -> Rule:
        start = self.peek()
        kind = RuleKind.STANDARD
        if start.kind == "IDENT" and start.value == "next" and not (
            self.peek(1).kind == "OP" and self.peek(1).value == "("
        ):
            self.next()
            kind = RuleKind.NEXT
        head = self.parse_head()
        body: list[BodyAtom] = []
        if self.at_op(":-"):
            self.next()
            body.append(self.parse_body_atom())
            while self.at_op(","):
                self.next()
                body.append(self.parse_body_atom())
        self.expect("OP", ".")
        return Rule(kind, head, tuple(body), line=start.line)

    def parse_head(self) -> RelationalAtom:
        tok = self.peek()
        atom = self.parse_relational_or_builtin()
        if isinstance(atom, BuiltinAtom):
            raise ParseError(f"builtin {atom.name!r} not allowed in rule head", tok.line, tok.col)
        return atom

    def parse_body_atom(self) -> BodyAtom:
        tok = self.peek()
        if tok.kind == "STRING" and self.peek(1).kind == "IDENT" and self.peek(1).value == "attests":
            return self.parse_relational_or_builtin()
        if tok.kind == "IDENT" and self.peek(1).kind == "OP" and self.peek(1).value == "(":
            return self.parse_relational_or_builtin()
        return self.parse_comparison()

    def parse_relational_or_builtin(self) -> RelationalAtom | BuiltinAtom:
        tok = self.peek()
        principal: str | None = None
        if tok.kind == "STRING":
            principal = self.next().value
            self.expect("IDENT", "attests")
        name_tok = self.expect("IDENT")
        name = name_tok.value
        if principal is None and name in BUILTIN_MODES:
            args = self.parse_paren_exprs()
            if len(args) != len(BUILTIN_MODES[name]):
                raise ParseError(
                    f"builtin {name!r} takes {len(BUILTIN_MODES[name])} arguments", name_tok.line, name_tok.col
                )
            return BuiltinAtom(name, args)
        if principal is None and name.startswith(_BUILTIN_PREFIX) and name not in BUILTIN_MODES:
            raise ParseError(f"unknown builtin {name!r}", name_tok.line, name_tok.col)
        args = self.parse_paren_terms()
        return RelationalAtom(principal if principal is not None else self.self_id, name, args)

    def parse_paren_terms(self) -> tuple[Term, ...]:
        self.expect("OP", "(")
        args: list[Term] = []
        if not self.at_op(")"):
            args.append(self.parse_simple_term())
            while self.at_op(","):
                self.next()
                args.append(self.parse_simple_term())
        if self.peek().kind == "OP" and self.peek().value in ARITH_OPS:
            tok = self.peek()
            raise ParseError("arithmetic is not allowed inside relational atoms", tok.line, tok.col)
        self.expect("OP", ")")
        return tuple(args)

    def parse_paren_exprs(self) -> tuple[Term, ...]:
        self.expect("OP", "(")
        args: list[Term] = []
        if not self.at_op(")"):
            args.append(self.parse_expr())
            while self.at_op(","):
                self.next()
                args.append(self.parse_expr())
        self.expect("OP", ")")
        return tuple(args)

    def parse_simple_term(self) -> Term:
        tok = self.next()
        if tok.kind == "INT":
            return _int_constant(tok.value, tok)
        if tok.kind == "OP" and tok.value == "-" and self.peek().kind == "INT":
            return _int_constant("-" + self.next().value, tok)
        if tok.kind == "STRING":
            return StringConstant(tok.value)
        if tok.kind == "IDENT":
            return StringConstant(tok.value)
        if tok.kind == "VARIABLE":
            return Variable(tok.value)
        raise ParseError(f"expected term, found {tok.value!r}", tok.line, tok.col)

    def parse_comparison(self) -> ComparisonAtom:
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind != "OP" or tok.value not in COMPARISON_OPS:
            raise ParseError(f"expected comparison operator, found {tok.value or 'end of input'!r}", tok.line, tok.col)
        op = self.next().value
        right = self.parse_expr()
        return ComparisonAtom(op, left, right)

    # expressions: + and - are left associative, * binds tighter

    def parse_expr(self) -> Term:
        left = self.parse_mul()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            op = self.next().value
            right = self.parse_mul()
            left = ArithExpr(op, left, right)
        return left

    def parse_mul(self) -> Term:
        left = self.parse_primary()
        while self.peek().kind == "OP" and self.peek().value == "*":
            self.next()
            right = self.parse_primary()
            left = ArithExpr("*", left, right)
        return left

    def parse_primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("OP", ")")
            return inner
        return self.parse_simple_term()


def _int_constant(text: str, tok: _Tok) -> IntConstant:
    value = int(text)
    if not (INT64_MIN <= value <= INT64_MAX):
        raise ParseError(f"integer literal out of 64-bit range: {text}", tok.line, tok.col)
    return IntConstant(value)


# ---------------------------------------------------------------------------
# Safety condition


def term_variables(term: Term) -> Iterator[str]:
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, ArithExpr):
        yield from term_variables(term.left)
        yield from term_variables(term.right)


def rule_safety_errors(rule: Rule) -> list[str]:
    """Left-to-right binding analysis; returns one message per violation."""
    bound: set[str] = set()
    errs: list[str] = []
    for atom in rule.body:
        if isinstance(atom, RelationalAtom):
            bound.update(v for arg in atom.args for v in term_variables(arg))
        elif isinstance(atom, BuiltinAtom):
            mode = BUILTIN_MODES.get(atom.name, "i" * len(atom.args))
            for arg, m in zip(atom.args, mode):
                unbound = [v for v in term_variables(arg) if v not in bound]
                if not unbound:
                    continue
                if m == "o" and isinstance(arg, Variable):
                    bound.add(arg.name)
                else:
                    errs.append(f"variable {unbound[0]} used as builtin input before being bound")
        else:  # ComparisonAtom
            lv = [v for v in term_variables(atom.left) if v not in bound]
            rv = [v for v in term_variables(atom.right) if v not in bound]
            if atom.op == "==":
                if not lv and not rv:
                    pass
                elif not rv and isinstance(atom.left, Variable) and lv == [atom.left.name]:
                    bound.add(atom.left.name)
                elif not lv and isinstance(atom.right, Variable) and rv == [atom.right.name]:
                    bound.add(atom.right.name)
                else:
                    errs.append(f"variable {(lv + rv)[0]} in '==' cannot be bound here")
            else:
                for v in lv + rv:
                    errs.append(f"variable {v} compared before being bound")
    for arg in rule.head.args:
        for v in term_variables(arg):
            if v not in bound:
                errs.append(f"head variable {v} is not bound by the body")
    return errs


def _contract_violations(rs: Rulesheet) -> list[str]:
    """Every way the sheet breaks its contract, each rule's reasons naming
    the rule: the self principal is declared, and no principal twice; every
    rule is safe, its head self-attested, and its relational atoms by
    declared principals, with no arithmetic argument."""
    reasons: list[str] = []
    declared: set[str] = set()
    for decl in rs.identities:
        if decl.name in declared:
            reasons.append(f"duplicate identity declaration {decl.name!r}")
        declared.add(decl.name)
    if rs.self_id not in declared:
        reasons.append(f"self principal {rs.self_id!r} is not declared")
    for i, rule in enumerate(rs.rules):
        where = f"rule {i}" if rule.line is None else f"rule {i} (line {rule.line})"
        errs = [f"unsafe rule: {err}" for err in rule_safety_errors(rule)]
        if rule.head.principal != rs.self_id:
            errs.insert(0, f"non-self head: attests for {rule.head.principal!r} but self is {rs.self_id!r}")
        relational = [atom for atom in (rule.head, *rule.body) if isinstance(atom, RelationalAtom)]
        for principal in dict.fromkeys(atom.principal for atom in relational):
            if principal not in declared:
                errs.append(f"undeclared principal {principal!r}")
        for atom in relational:
            if any(isinstance(arg, ArithExpr) for arg in atom.args):
                errs.append(f"arithmetic is not allowed inside relational atom {atom.predicate!r}")
        reasons.extend(f"{where}: {err}" for err in errs)
    return reasons


# ---------------------------------------------------------------------------
# Public operations


def parse_rulesheet(text: str, self_id: str) -> Rulesheet:
    """Parse rulesheet source into a desugared AST. Raises ParseError on
    syntax errors and unknown builtins, and for a sheet that breaks its
    contract (`Rulesheet`). Every revision of an owner names the same few
    logged texts, so outcomes are memoised by text and principal: a
    Rulesheet is immutable, and a text that is refused raises a copy of its
    first ParseError without being parsed again, so a short revision
    naming a long logged text costs no parse once that text has failed."""
    parsed = _parse_rulesheet(text, self_id)
    if isinstance(parsed, ParseError):
        raise copy.copy(parsed)
    return parsed


@functools.lru_cache(maxsize=256)
def _parse_rulesheet(text: str, self_id: str) -> Rulesheet | ParseError:
    try:
        identities, rules = _Parser(_lex(text), self_id).parse_sheet()
        return Rulesheet(self_id, identities, rules)
    except ParseError as exc:
        return exc.with_traceback(None)


@functools.lru_cache(maxsize=1024)
def parse_standalone_rule(text: str) -> Rule:
    """Parse one safe rule whose atoms all carry explicit principals, such
    as `format_rule(rule, oneline=True)` gives, where no self principal is
    in scope. Parses are memoised by text; a Rule is immutable, and a text
    that is refused raises again on every call.
    """
    marker = "\x00"
    parser = _Parser(_lex(text), marker)
    rule = parser.parse_rule()
    if parser.peek().kind != "EOF":
        tok = parser.peek()
        raise ParseError(f"trailing input after rule: {tok.value!r}", tok.line, tok.col)
    for atom in (rule.head, *rule.body):
        if isinstance(atom, RelationalAtom) and atom.principal == marker:
            raise ParseError("standalone rules must name principals explicitly")
    errs = rule_safety_errors(rule)
    if errs:
        raise ParseError(f"unsafe rule: {'; '.join(errs)}")
    return rule


def parse_query(text: str, self_id: str) -> RelationalAtom:
    """Parse a query pattern: a single relational atom, variables allowed."""
    parser = _Parser(_lex(text), self_id)
    atom = parser.parse_relational_or_builtin()
    if parser.at_op("."):
        parser.next()
    if parser.peek().kind != "EOF":
        tok = parser.peek()
        raise ParseError(f"trailing input after pattern: {tok.value!r}", tok.line, tok.col)
    if isinstance(atom, BuiltinAtom):
        raise ParseError(f"builtin {atom.name!r} cannot be queried")
    return atom


# ---------------------------------------------------------------------------
# Canonical formatter


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    return f"'{escaped}'"


def format_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, IntConstant):
        return str(term.value)
    if isinstance(term, StringConstant):
        if _IDENT_RE.match(term.value) and term.value not in BUILTIN_MODES:
            return term.value
        return _quote(term.value)
    return _format_expr(term, 0)


_PREC = {"+": 1, "-": 1, "*": 2}


def _format_expr(term: Term, parent_prec: int, right_side: bool = False) -> str:
    if not isinstance(term, ArithExpr):
        return format_term(term)
    prec = _PREC[term.op]
    left = _format_expr(term.left, prec)
    right = _format_expr(term.right, prec, right_side=True)
    text = f"{left} {term.op} {right}"
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def format_atom(atom: BodyAtom, self_id: str | None = None) -> str:
    if isinstance(atom, RelationalAtom):
        args = ", ".join(format_term(a) for a in atom.args)
        inner = f"{atom.predicate}({args})"
        if self_id is not None and atom.principal == self_id:
            return inner
        return f"{_quote(atom.principal)} attests {inner}"
    if isinstance(atom, BuiltinAtom):
        args = ", ".join(_format_expr(a, 0) for a in atom.args)
        return f"{atom.name}({args})"
    return f"{_format_expr(atom.left, 0)} {atom.op} {_format_expr(atom.right, 0)}"


def format_rule(rule: Rule, self_id: str | None = None, oneline: bool = False) -> str:
    prefix = "next " if rule.is_next else ""
    head = format_atom(rule.head, self_id)
    if not rule.body:
        return f"{prefix}{head}."
    atoms = [format_atom(a, self_id) for a in rule.body]
    if oneline:
        return f"{prefix}{head} :- " + ", ".join(atoms) + "."
    return f"{prefix}{head} :-\n  " + ",\n  ".join(atoms) + "."


def format_rulesheet(rs: Rulesheet) -> str:
    """Canonical text; parse(format(rs)) is structurally equal to rs."""
    blocks = [
        "\n".join(f"{_quote(d.name)}: Subject: {_quote(d.subject)} Issuer: {_quote(d.issuer)}" for d in rs.identities)
    ]
    blocks.extend(format_rule(rule, rs.self_id) for rule in rs.rules)
    return "\n\n".join(b for b in blocks if b) + "\n"
