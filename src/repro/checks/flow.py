"""Flow-sensitive analysis engine (the ``RPR007``–``RPR009`` rules).

The per-node lint (:mod:`repro.checks.astlint`) sees one AST node at a
time; whether a name holds an unordered collection where it is consumed
is a *dataflow* property.  This module runs a forward abstract
interpretation over the CFGs of :mod:`repro.checks.cfg` with the
lattice of :mod:`repro.checks.provenance`:

1. every function body (and the module body) is lowered to a CFG;
2. a worklist fixpoint propagates abstract environments (variable →
   :class:`~repro.checks.provenance.AbstractValue`) across blocks,
   joining at merge points;
3. each registered **flow rule** (:func:`flow_rule`) walks the analyzed
   regions with the environment valid *before* every element and
   reports :class:`~repro.checks.findings.Finding` records.

Findings share the ``RPR`` id space, the suppression syntax
(``# norpr: RPR007``), and the reporters with the lint.

Suppressions that suppress nothing are themselves reported (RPR000):
this engine owns staleness of the flow rule ids, the lint owns its own
ids plus unknown ids (see ``EXTERNAL_RPR_IDS`` in astlint).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.checks import astlint
from repro.checks.astlint import (
    _module_name_of,
    _parse_suppressions,
    iter_python_files,
)
from repro.checks.cfg import CFG, build_cfg
from repro.checks.findings import Finding, Severity
from repro.checks.provenance import (
    TOP,
    AbstractValue,
    Env,
    Evaluator,
    join_env,
)

__all__ = [
    "FLOW_RULES",
    "FLOW_RULE_IDS",
    "FlowContext",
    "FlowRule",
    "FunctionAnalysis",
    "flow_rule",
    "analyze_source",
    "analyze_paths",
]

#: Safety cap on fixpoint sweeps; the lattice is finite and shallow, so
#: real code converges in a handful of passes.
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class FlowContext:
    """Everything the flow rules need about one module."""

    path: str
    module: str
    tree: ast.Module
    lines: Tuple[str, ...]
    suppressions: Dict[int, frozenset[str]]
    #: local name -> dotted import target (``random`` -> ``random``,
    #: ``shuffle`` -> ``random.shuffle``), for resolving call sites.
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level function definitions by name (worker resolution).
    functions: Dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def module_parts(self) -> Tuple[str, ...]:
        return tuple(self.module.split(".")) if self.module else ()

    def in_pure_package(self) -> bool:
        """Modules whose pure paths ban ambient nondeterminism (RPR008)."""
        return self.module_parts[:2] in (
            ("repro", "core"),
            ("repro", "topology"),
        )

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """The dotted import target of a call, or ``None``.

        ``random.shuffle(x)`` resolves to ``random.shuffle`` when the
        module imported ``random``; ``shuffle(x)`` resolves the same
        way under ``from random import shuffle``.
        """
        from repro.checks.provenance import dotted_name

        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


class FunctionAnalysis:
    """One analyzed region: its CFG plus per-element environments."""

    __slots__ = ("context", "region", "cfg", "envs", "evaluator", "name")

    def __init__(
        self,
        context: FlowContext,
        region: ast.AST,
        cfg: CFG,
        envs: Dict[int, Env],
        evaluator: Evaluator,
    ) -> None:
        self.context = context
        self.region = region
        self.cfg = cfg
        self.envs = envs
        self.evaluator = evaluator
        self.name = getattr(region, "name", "<module>")

    def is_module(self) -> bool:
        return isinstance(self.region, ast.Module)

    def elements(self) -> Iterator[Tuple[ast.AST, Env]]:
        """Every CFG element with the environment valid before it."""
        for block in self.cfg.blocks:
            for element in block.elements:
                yield element, self.envs.get(id(element), {})

    def nodes(self) -> Iterator[Tuple[ast.AST, Env]]:
        """Every expression-level node with its environment.

        Walks each element's *own* expressions only: loop bodies, nested
        function bodies, and class bodies are separate elements/regions
        and are not re-walked here.
        """
        for element, env in self.elements():
            for root in _element_exprs(element):
                for node in ast.walk(root):
                    yield node, env

    def evaluate(self, node: ast.AST, env: Env) -> AbstractValue:
        return self.evaluator.evaluate(node, env)


def _element_exprs(element: ast.AST) -> Iterator[ast.AST]:
    """The expression roots a rule should walk for one element."""
    if isinstance(element, (ast.For, ast.AsyncFor)):
        # Header element: the body is lowered into its own blocks.
        yield element.target
        yield element.iter
    elif isinstance(element, ast.withitem):
        yield element.context_expr
        if element.optional_vars is not None:
            yield element.optional_vars
    elif isinstance(
        element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        # Nested regions are analyzed on their own; only the parts
        # evaluated in *this* scope belong to this region's walk.
        for decorator in element.decorator_list:
            yield decorator
        if isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from element.args.defaults
            yield from (
                d for d in element.args.kw_defaults if d is not None
            )
    else:
        yield element


Checker = Callable[[FunctionAnalysis], Iterator[Finding]]


@dataclass(frozen=True)
class FlowRule:
    """One registered flow rule."""

    rule_id: str
    title: str
    check: Checker


FLOW_RULES: Dict[str, FlowRule] = {}


def flow_rule(rule_id: str, title: str) -> Callable[[Checker], Checker]:
    """Register a checker as the flow rule ``rule_id``."""

    def register(function: Checker) -> Checker:
        if rule_id in FLOW_RULES:
            raise ValueError(f"duplicate flow rule id {rule_id!r}")
        FLOW_RULES[rule_id] = FlowRule(rule_id, title, function)
        # Teach the lint that this id belongs to another engine, so its
        # unused-suppression pass does not claim it as unknown.
        astlint.EXTERNAL_RPR_IDS.add(rule_id)
        return function

    return register


#: The rule ids this engine owns (populated by registration below).
FLOW_RULE_IDS: frozenset[str] = frozenset()


# ----------------------------------------------------------------------
# Abstract interpretation
# ----------------------------------------------------------------------
def _bind_target(target: ast.AST, value: AbstractValue, state: Env) -> None:
    if isinstance(target, ast.Name):
        state[target.id] = value
    elif isinstance(target, ast.Starred):
        _bind_target(target.value, TOP, state)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, TOP, state)
    # Attribute/Subscript targets are not tracked.


def _transfer(
    element: ast.AST, state: Env, evaluator: Evaluator
) -> None:
    """Apply one element's effect to ``state`` in place."""
    if isinstance(element, ast.Assign):
        value = evaluator.evaluate(element.value, state)
        for target in element.targets:
            _bind_target(target, value, state)
    elif isinstance(element, ast.AnnAssign):
        if element.value is not None:
            value = evaluator.evaluate(element.value, state)
            _bind_target(element.target, value, state)
    elif isinstance(element, ast.AugAssign):
        if isinstance(element.target, ast.Name):
            state[element.target.id] = TOP
    elif isinstance(element, (ast.For, ast.AsyncFor)):
        _bind_target(element.target, TOP, state)
    elif isinstance(element, ast.withitem):
        if isinstance(element.optional_vars, ast.Name):
            state[element.optional_vars.id] = TOP
    elif isinstance(element, ast.Delete):
        for target in element.targets:
            if isinstance(target, ast.Name):
                state.pop(target.id, None)


def _run_fixpoint(
    cfg: CFG, evaluator: Evaluator
) -> Dict[int, Env]:
    """Worklist fixpoint; returns env-before-element by ``id(element)``."""
    predecessors = cfg.predecessors()
    order = cfg.rpo()
    out_states: Dict[int, Env] = {}

    def in_state(block_index: int) -> Env:
        state: Env = {}
        for predecessor in predecessors[block_index]:
            previous = out_states.get(predecessor.index)
            if previous is not None:
                state = join_env(state, previous)
        return state

    for _ in range(_MAX_SWEEPS):
        changed = False
        for block in order:
            state = in_state(block.index)
            for element in block.elements:
                _transfer(element, state, evaluator)
            if out_states.get(block.index) != state:
                out_states[block.index] = state
                changed = True
        if not changed:
            break

    envs: Dict[int, Env] = {}
    for block in order:
        state = in_state(block.index)
        for element in block.elements:
            envs[id(element)] = dict(state)
            _transfer(element, state, evaluator)
    return envs


def _iter_regions(tree: ast.Module) -> Iterator[ast.AST]:
    """The module body plus every (async) function definition."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _build_imports(tree: ast.Module) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                imports[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _build_context(
    source: str, path: str, module: Optional[str]
) -> FlowContext:
    tree = ast.parse(source, filename=path)
    lines = tuple(source.splitlines())
    functions = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    return FlowContext(
        path=path,
        module=(
            module if module is not None else _module_name_of(Path(path))
        ),
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(lines),
        imports=_build_imports(tree),
        functions=functions,
    )


def analyze_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> List[Finding]:
    """Analyze one module's source; returns its (unsuppressed) findings.

    Also reports RPR000 for every ``# norpr:`` suppression naming a
    flow rule id that suppressed nothing on its line — the flow half of
    the stale-suppression contract (the lint owns its own ids).
    """
    try:
        context = _build_context(source, path, module)
    except SyntaxError as exc:
        return [
            Finding(
                "RPR000",
                Severity.ERROR,
                f"{path}:{exc.lineno or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    evaluator = Evaluator()
    analyses = []
    for region in _iter_regions(context.tree):
        cfg = build_cfg(region)  # type: ignore[arg-type]
        envs = _run_fixpoint(cfg, evaluator)
        analyses.append(
            FunctionAnalysis(context, region, cfg, envs, evaluator)
        )

    raw: List[Finding] = []
    for rule in FLOW_RULES.values():
        for analysis in analyses:
            raw.extend(rule.check(analysis))

    findings: List[Finding] = []
    used: set[tuple[int, str]] = set()
    for finding in raw:
        line = int(finding.path.rsplit(":", 1)[-1])
        ids = context.suppressions.get(line) or frozenset()
        if finding.rule_id in ids or "all" in ids:
            used.add((line, finding.rule_id))
            if "all" in ids:
                used.add((line, "all"))
            continue
        findings.append(finding)

    flow_ids = frozenset(FLOW_RULES)
    for line, ids in sorted(context.suppressions.items()):
        for rule_id in sorted(ids & flow_ids):
            if (line, rule_id) not in used and (line, "all") not in used:
                findings.append(
                    Finding(
                        "RPR000",
                        Severity.WARNING,
                        f"{path}:{line}",
                        f"unused suppression: `# norpr: {rule_id}` "
                        "suppresses no flow finding on this line — "
                        "remove it before it rots",
                    )
                )
    return findings


def analyze_paths(paths: Iterable[str]) -> List[Finding]:
    """Analyze every Python file under the given files/directories."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(analyze_source(source, path=str(file_path)))
    return findings


# Register the rule packs (imports run the @flow_rule decorators) and
# freeze the id set the stale-suppression split relies on.
from repro.checks import flowrules as _flowrules  # noqa: E402,F401

FLOW_RULE_IDS = frozenset(FLOW_RULES)
