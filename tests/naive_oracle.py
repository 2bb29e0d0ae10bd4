"""Independent naive Datalog oracle: repeat every rule until nothing changes.

Deliberately unshared with the engine: plain backtracking joins over the full
atom set, no deltas, no indexes, no evidence. Used as the ground truth for
saturation and next-rule carry-over equivalence tests. `derivation_faults`
checks a knowledge base's stored evidence, with the engine's own
rule-instance checks.
"""

from __future__ import annotations

import json
import random

from cyberlog.engine import DerivedByRule, canonical_atom, check_evidence
from cyberlog.errors import EvidenceError
from cyberlog.lang import (
    ArithExpr,
    BuiltinAtom,
    ComparisonAtom,
    IdentityDecl,
    IntConstant,
    RelationalAtom,
    Rule,
    RuleKind,
    Rulesheet,
    StringConstant,
    Variable,
)

Atom = tuple[str, str, tuple]  # (principal, predicate, args)


def _resolve(term, env):
    if isinstance(term, Variable):
        return env.get(term.name)
    if isinstance(term, IntConstant):
        return term.value
    if isinstance(term, StringConstant):
        return term.value
    if isinstance(term, ArithExpr):
        left = _resolve(term.left, env)
        right = _resolve(term.right, env)
        if left is None or right is None:
            return None
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        return left * right
    raise TypeError(term)


def _match_args(pattern_args, ground_args, env):
    if len(pattern_args) != len(ground_args):
        return None
    env = dict(env)
    for p, g in zip(pattern_args, ground_args):
        if isinstance(p, Variable):
            if p.name in env:
                if env[p.name] != g:
                    return None
            else:
                env[p.name] = g
        else:
            if _resolve(p, env) != g:
                return None
    return env


def _solutions(body, atoms, env):
    if not body:
        yield env
        return
    first, rest = body[0], body[1:]
    if isinstance(first, RelationalAtom):
        for principal, predicate, args in atoms:
            if principal != first.principal or predicate != first.predicate:
                continue
            new_env = _match_args(first.args, args, env)
            if new_env is not None:
                yield from _solutions(rest, atoms, new_env)
    elif isinstance(first, BuiltinAtom):
        for new_env in _eval_builtin(first, env):
            yield from _solutions(rest, atoms, new_env)
    elif isinstance(first, ComparisonAtom):
        for new_env in _eval_comparison(first, env):
            yield from _solutions(rest, atoms, new_env)
    else:
        raise TypeError(first)


def _eval_builtin(atom, env):
    data = _resolve(atom.args[0], env)
    path = _resolve(atom.args[1], env)
    try:
        value = json.loads(data)
    except (ValueError, TypeError):
        return
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return
        value = value[key]
    want = int if atom.name == "get_param_int" else str
    if type(value) is not want:
        return
    out = atom.args[2]
    if isinstance(out, Variable) and out.name not in env:
        new_env = dict(env)
        new_env[out.name] = value
        yield new_env
    elif _resolve(out, env) == value:
        yield env


def _eval_comparison(atom, env):
    left = _resolve(atom.left, env)
    right = _resolve(atom.right, env)
    if atom.op == "==":
        if left is None and isinstance(atom.left, Variable):
            new_env = dict(env)
            new_env[atom.left.name] = right
            yield new_env
            return
        if right is None and isinstance(atom.right, Variable):
            new_env = dict(env)
            new_env[atom.right.name] = left
            yield new_env
            return
        if left == right:
            yield env
        return
    if atom.op == "!=":
        if left != right:
            yield env
        return
    if not isinstance(left, int) or not isinstance(right, int):
        return
    ok = {"<": left < right, ">": left > right, "<=": left <= right, ">=": left >= right}[atom.op]
    if ok:
        yield env


def naive_saturate(base_atoms, rules) -> set[Atom]:
    """Least fixpoint of the standard rules over the base atoms."""
    atoms: set[Atom] = set(base_atoms)
    std = [r for r in rules if r.kind is RuleKind.STANDARD]
    changed = True
    while changed:
        changed = False
        snapshot = list(atoms)
        for rule in std:
            for env in _solutions(list(rule.body), snapshot, {}):
                head = (
                    rule.head.principal,
                    rule.head.predicate,
                    tuple(_resolve(a, env) for a in rule.head.args),
                )
                if head not in atoms:
                    atoms.add(head)
                    changed = True
    return atoms


def naive_carry(atoms, rules) -> set[Atom]:
    """The heads of the next-rules over the atoms: one pass, one head per atom."""
    snapshot = list(atoms)
    return {
        (rule.head.principal, rule.head.predicate, tuple(_resolve(a, env) for a in rule.head.args))
        for rule in rules
        if rule.kind is RuleKind.NEXT
        for env in _solutions(list(rule.body), snapshot, {})
    }


def derivation_faults(kb) -> list[str]:
    """What is wrong with the derivations a knowledge base stores: each must
    pass `engine.check_evidence`, every premise it yields must be stored, and no derivation may rest on itself through its
    premises. Empty for a KB whose every derivation rests on stored claims
    (the Delete-and-Rederive invariant)."""
    faults, premises = [], {}
    for atom, claim in kb.claims.items():
        if not isinstance(claim.evidence, DerivedByRule):
            continue
        try:
            premises[atom] = check_evidence(claim)
        except EvidenceError as exc:
            faults.append(f"{canonical_atom(atom)}: {exc}")
            continue
        missing = [p for p in premises[atom] if p not in kb.claims]
        faults += [f"{canonical_atom(atom)}: premise {canonical_atom(p)} not stored" for p in missing]
    # Kahn's algorithm over the derivations' premise edges: what is never
    # freed lies on or above a cycle
    waiting = {atom: sum(p in premises for p in ps) for atom, ps in premises.items()}
    users: dict = {}
    for atom, ps in premises.items():
        for p in ps:
            if p in premises:
                users.setdefault(p, []).append(atom)
    ready = [atom for atom, n in waiting.items() if n == 0]
    while ready:
        for user in users.get(ready.pop(), ()):
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    faults += [f"{canonical_atom(atom)}: rests on a cycle of derivations" for atom, n in waiting.items() if n > 0]
    return faults


# ---------------------------------------------------------------------------
# Random safe positive programs (<=4 predicates, arity <=3, <=15 facts, <=6 rules)

PRINCIPALS = ("A", "B")
SELF = "A"


def random_program(seed: int):
    rng = random.Random(seed)
    preds = {}
    for name in ("p", "q", "r", "s")[: rng.randint(2, 4)]:
        preds[name] = rng.randint(1, 3)
    pred_names = list(preds)

    def random_const():
        return rng.randint(0, 4) if rng.random() < 0.7 else rng.choice(("a", "b"))

    facts = set()
    for _ in range(rng.randint(1, 15)):
        name = rng.choice(pred_names)
        args = tuple(random_const() for _ in range(preds[name]))
        facts.add((rng.choice(PRINCIPALS), name, args))

    rules = []
    for _ in range(rng.randint(1, 6)):
        body = []
        body_vars = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(pred_names)
            args = []
            for k in range(preds[name]):
                if rng.random() < 0.6:
                    var = f"V{rng.randint(0, 3)}"
                    args.append(Variable(var))
                    body_vars.append(var)
                else:
                    c = random_const()
                    args.append(IntConstant(c) if isinstance(c, int) else StringConstant(c))
            body.append(RelationalAtom(rng.choice(PRINCIPALS), name, tuple(args)))
        if body_vars and rng.random() < 0.3:
            var = rng.choice(body_vars)
            other = rng.choice(body_vars) if rng.random() < 0.5 else None
            right = Variable(other) if other else IntConstant(rng.randint(0, 4))
            body.append(ComparisonAtom(rng.choice(("==", "!=")), Variable(var), right))
        name = rng.choice(pred_names)
        head_args = tuple(
            Variable(rng.choice(body_vars))
            if body_vars and rng.random() < 0.8
            else (IntConstant(rng.randint(0, 4)) if rng.random() < 0.7 else StringConstant(rng.choice(("a", "b"))))
            for _ in range(preds[name])
        )
        rules.append(Rule(RuleKind.STANDARD, RelationalAtom(SELF, name, head_args), tuple(body)))

    decls = [IdentityDecl(p, "s", "i") for p in PRINCIPALS]
    return Rulesheet(SELF, decls, rules), facts


# ---------------------------------------------------------------------------
# Random programs exercising builtins, arithmetic and comparisons. Generated
# values are typed (ints vs strings) so ordered comparisons and arithmetic
# stay integer-only, keeping engine and oracle semantics aligned.

def random_builtin_program(seed: int):
    import json as _json

    rng = random.Random(10_000 + seed)

    def body_json():
        kind = rng.random()
        if kind < 0.25:
            return _json.dumps({"a": rng.randint(0, 9)})
        if kind < 0.5:
            return _json.dumps({"a": {"b": rng.randint(0, 9)}, "s": rng.choice(("x", "y"))})
        if kind < 0.7:
            return _json.dumps({"s": rng.choice(("x", "y")), "a": rng.choice(("not-int", 3))})
        if kind < 0.85:
            return "not json {"
        return _json.dumps({"other": rng.randint(0, 9)})

    facts = set()
    for _ in range(rng.randint(2, 12)):
        facts.add(
            (
                rng.choice(PRINCIPALS),
                "ev",
                (rng.choice(("/a", "/b")), rng.randint(0, 50), body_json()),
            )
        )

    rules = []
    for _ in range(rng.randint(1, 5)):
        body = []
        int_vars = []
        str_vars = []
        suffix = len(rules)
        for k in range(rng.randint(1, 2)):
            time_var, data_var = f"T{suffix}_{k}", f"D{suffix}_{k}"
            path = StringConstant(rng.choice(("/a", "/b"))) if rng.random() < 0.6 else Variable(f"P{suffix}_{k}")
            body.append(
                RelationalAtom(rng.choice(PRINCIPALS), "ev", (path, Variable(time_var), Variable(data_var)))
            )
            int_vars.append(time_var)
            str_vars.append(data_var)
        for k in range(rng.randint(0, 2)):
            data_var = rng.choice(str_vars)
            path = rng.choice(("a", "a.b", "s", "missing"))
            out = f"V{suffix}_{k}"
            if path == "s":
                body.append(BuiltinAtom("get_param_str", (Variable(data_var), StringConstant(path), Variable(out))))
                str_vars.append(out)
            else:
                body.append(BuiltinAtom("get_param_int", (Variable(data_var), StringConstant(path), Variable(out))))
                int_vars.append(out)
        if rng.random() < 0.6 and int_vars:
            left = Variable(rng.choice(int_vars))
            if rng.random() < 0.5:
                right = IntConstant(rng.randint(0, 20))
            else:
                right = ArithExpr(rng.choice(("+", "-")), Variable(rng.choice(int_vars)), IntConstant(rng.randint(0, 5)))
            body.append(ComparisonAtom(rng.choice(("<", ">", "<=", ">=", "==", "!=")), left, right))
        if rng.random() < 0.4 and int_vars:
            bound = f"B{suffix}"
            expr = ArithExpr("+", Variable(rng.choice(int_vars)), IntConstant(rng.randint(1, 4)))
            # the binding `==` with its new variable on either side
            body.append(ComparisonAtom("==", *((Variable(bound), expr) if rng.random() < 0.5 else (expr, Variable(bound)))))
            int_vars.append(bound)
        head_pool = int_vars + str_vars
        head_args = tuple(
            Variable(rng.choice(head_pool)) if head_pool and rng.random() < 0.85 else IntConstant(rng.randint(0, 5))
            for _ in range(rng.randint(1, 2))
        )
        rules.append(Rule(RuleKind.STANDARD, RelationalAtom(SELF, f"out{suffix}", head_args), tuple(body)))

    decls = [IdentityDecl(p, "s", "i") for p in PRINCIPALS]
    return Rulesheet(SELF, decls, rules), facts
