"""The abstract-value lattice of the flow analysis.

Abstract values answer the one question the rule packs ask about an
expression: *is this collection iteration-order-deterministic* (RPR007).
The lattice is deliberately shallow::

              TOP  (anything; no claim)
               |
           UNORDERED   (a set/frozenset: iteration order undefined)

Joins are pointwise: equal values join to themselves, anything else
joins to TOP — once two paths disagree about a name, the analysis stops
claiming anything about it, which is exactly the behaviour that keeps
false positives out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "AbstractValue",
    "TOP",
    "Env",
    "join",
    "join_env",
    "dotted_name",
    "Evaluator",
]

# Value kinds.
KIND_TOP = "top"
KIND_UNORDERED = "unordered"  # a set/frozenset: iteration order undefined


@dataclass(frozen=True)
class AbstractValue:
    """One point of the lattice."""

    kind: str


TOP = AbstractValue(KIND_TOP)
UNORDERED = AbstractValue(KIND_UNORDERED)

#: One program state: variable name -> abstract value.  Names absent
#: from the mapping are bottom (never assigned on this path); joining
#: bottom with a value keeps the value, which is the bug-finding choice
#: (a maybe-unassigned name still carries its one known value).
Env = Dict[str, AbstractValue]

#: Set-algebra methods that keep a set unordered.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)


def join(left: AbstractValue, right: AbstractValue) -> AbstractValue:
    """Least upper bound of two values (TOP on any disagreement)."""
    return left if left == right else TOP


def join_env(left: Env, right: Env) -> Env:
    """Pointwise join; names bound on only one side keep their value."""
    merged = dict(left)
    for name, value in right.items():
        existing = merged.get(name)
        merged[name] = value if existing is None else join(existing, value)
    return merged


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Evaluator:
    """Side-effect-free abstract evaluation of expressions.

    Stateless, so one instance is safe to share across functions.
    """

    def evaluate(self, node: ast.AST, env: Env) -> AbstractValue:
        if isinstance(node, ast.Name):
            return env.get(node.id, TOP)
        if isinstance(node, ast.Attribute):
            return env.get(dotted_name(node) or "", TOP)
        if isinstance(node, ast.Call):
            return self._evaluate_call(node, env)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return UNORDERED
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, _SET_OPERATORS) and UNORDERED in (
                self.evaluate(node.left, env),
                self.evaluate(node.right, env),
            ):
                return UNORDERED
            return TOP
        if isinstance(node, ast.BoolOp):
            value = self.evaluate(node.values[0], env)
            for operand in node.values[1:]:
                value = join(value, self.evaluate(operand, env))
            return value
        if isinstance(node, ast.IfExp):
            return join(
                self.evaluate(node.body, env),
                self.evaluate(node.orelse, env),
            )
        if isinstance(node, (ast.NamedExpr, ast.Starred, ast.Await)):
            return self.evaluate(node.value, env)
        return TOP

    def _evaluate_call(self, node: ast.Call, env: Env) -> AbstractValue:
        function = node.func
        if isinstance(function, ast.Name):
            # sorted() launders unordered into deterministic; plain
            # list()/tuple() of an unordered value is RPR007's business,
            # but the *result* is an ordinary sequence.
            if function.id in ("set", "frozenset"):
                return UNORDERED
            return TOP
        if (
            isinstance(function, ast.Attribute)
            and function.attr in _SET_METHODS
            and self.evaluate(function.value, env) == UNORDERED
        ):
            return UNORDERED
        return TOP
