"""Repo-specific AST lint rules (the ``RPR`` rule family).

A small stdlib-``ast`` visitor framework with rules encoding contracts
that generic linters cannot know:

========  ============================================================
rule id   contract
========  ============================================================
RPR001    never assign to the internal attributes of :class:`Vertex`,
          :class:`Simplex`, or :class:`SimplicialComplex` outside their
          own modules — the memoization layer interns and shares these
          objects, so one mutation corrupts every holder of the object
RPR002    construction sites that already hold an inclusion-maximal
          facet family (``x.facets``, ``x.sorted_facets()``,
          ``x.facets_containing(v)``) must use
          ``SimplicialComplex.from_maximal``, not the pruning
          constructor — the prune is pure overhead there
RPR004    no bare ``except:`` anywhere, and no silent ``except …:
          pass`` in the solver hot paths (``repro.core``,
          ``repro.models``, ``repro.topology``, ``repro.parallel``) —
          swallowed errors there turn invariant violations into wrong
          theorems
RPR005    public functions in ``repro.core``, ``repro.models``,
          ``repro.topology``, and ``repro.parallel`` must carry
          complete type annotations (every parameter and the return
          type), keeping the mypy gate and ``py.typed`` honest
RPR006    the bitmask API (``encode_mask*``, ``decode_mask*``,
          ``colors_mask``, ``full_mask``, ``_ensure_index``,
          ``table_id``) is used only inside ``repro.topology`` — a mask
          is meaningful only against the table that encoded it, so
          masks never leave the package that owns the tables
RPR007    determinism — unordered ``set``/``frozenset`` iteration never
          feeds order-sensitive outputs: ``list``/``tuple``/
          ``enumerate`` materialization, ``str.join``, list
          comprehensions, or append/yield fold loops.  Decided per
          scope: a name is unordered if *any* assignment in its
          function binds it to a set, so a set on one ``if`` arm is
          caught even when the other arm sorts
RPR008    pure-path hygiene — ``repro.core``/``repro.topology`` never
          reach unseeded ``random``, wall-clock time, or ``id()``-keyed
          ordering
RPR009    worker purity — functions shipped through ``parallel_map``,
          ``supervised_map`` (function and ``fallback=``) or executor
          ``submit``/``map`` pickle cleanly (no lambdas, no nested
          functions), do not mutate module globals, and do not read
          ambient worker-count configuration
========  ============================================================

Suppression: append ``# norpr: RPR004`` (comma-separate several ids, or
``all``) to the offending line.  Suppressions are deliberate, reviewable
exemptions.  A suppression that suppresses *nothing* (a stale or
misspelled id, an ``all`` with no finding left on that line) is itself
reported as RPR000 so exemptions cannot rot silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

from repro.checks.findings import Finding, Severity

__all__ = [
    "LintContext",
    "LintRule",
    "LINT_RULES",
    "lint_rule",
    "lint_source",
    "lint_paths",
]

_SUPPRESSION = re.compile(r"#\s*norpr:\s*([A-Za-z0-9_,\s]+)")

#: Internal attributes of the interned value objects, keyed by the module
#: allowed to assign them.
_PROTECTED_ATTRS: dict[str, str] = {
    "_facets": "repro.topology.complex",
    "_faces_cache": "repro.topology.complex",
    "_vertices_cache": "repro.topology.complex",
    "_vertices": "repro.topology.simplex",
    "_color": "repro.topology.vertex",
}

#: Attributes so specific to the value objects that even ``self.<attr>``
#: assignments are flagged outside the owning module.
_ALWAYS_PROTECTED: frozenset[str] = frozenset(
    {"_facets", "_faces_cache", "_vertices_cache"}
)

#: Packages whose exception handling and annotations are held to the
#: strictest standard (the proof-machine hot paths).
_HOT_PACKAGES: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro", "core"),
        ("repro", "models"),
        ("repro", "topology"),
        ("repro", "parallel"),
    }
)

#: Packages whose pure paths ban ambient nondeterminism (RPR008).
_PURE_PACKAGES: frozenset[tuple[str, str]] = frozenset(
    {("repro", "core"), ("repro", "topology")}
)

#: The bitmask API: masks are meaningful only against the VertexTable
#: that encoded them, so only repro.topology may touch these names.
_MASK_API: frozenset[str] = frozenset(
    {"colors_mask", "full_mask", "_ensure_index", "table_id"}
)
_MASK_API_PREFIXES = ("encode_mask", "decode_mask")

#: Methods of SimplicialComplex whose return value is already an
#: inclusion-maximal facet family.
_MAXIMAL_PRODUCERS: frozenset[str] = frozenset(
    {"sorted_facets", "facets_containing"}
)


@dataclass(frozen=True)
class LintContext:
    """Everything a lint rule needs about one module."""

    path: str
    module: str
    tree: ast.Module
    lines: tuple[str, ...]
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def module_parts(self) -> tuple[str, ...]:
        return tuple(self.module.split(".")) if self.module else ()

    def in_hot_package(self) -> bool:
        return self.module_parts[:2] in _HOT_PACKAGES

    def in_pure_package(self) -> bool:
        return self.module_parts[:2] in _PURE_PACKAGES

    def suppressed(self, line: int, rule_id: str) -> bool:
        active = self.suppressions.get(line)
        if not active:
            return False
        return rule_id in active or "all" in active


Checker = Callable[[LintContext], Iterator[Finding]]


@dataclass(frozen=True)
class LintRule:
    """One registered AST lint rule."""

    rule_id: str
    title: str
    check: Checker


LINT_RULES: dict[str, LintRule] = {}


def lint_rule(rule_id: str, title: str) -> Callable[[Checker], Checker]:
    """Register a checker function as the lint rule ``rule_id``."""

    def register(function: Checker) -> Checker:
        if rule_id in LINT_RULES:
            raise ValueError(f"duplicate lint rule id {rule_id!r}")
        LINT_RULES[rule_id] = LintRule(rule_id, title, function)
        return function

    return register


def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map line numbers to the rule ids suppressed on them.

    Works on real comment tokens, not raw text, so a ``# norpr:``
    example quoted inside a docstring is not treated as a suppression.
    Sources that fail to tokenize fall back to a line-regex scan (the
    lint still reports their syntax error separately).
    """
    found: dict[int, frozenset[str]] = {}

    def record(line_number: int, comment: str) -> None:
        match = _SUPPRESSION.search(comment)
        if match:
            found[line_number] = frozenset(
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            )

    import io
    import tokenize

    source = "\n".join(lines)
    try:
        for token in tokenize.generate_tokens(
            io.StringIO(source).readline
        ):
            if token.type == tokenize.COMMENT:
                record(token.start[0], token.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        found.clear()
        for number, line in enumerate(lines, start=1):
            record(number, line)
    return found


def _module_name_of(path: Path) -> str:
    """Derive the dotted module name from a file path (best effort)."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def lint_source(
    source: str, path: str = "<string>", module: Optional[str] = None
) -> list[Finding]:
    """Lint one module given as source text; returns its findings."""
    resolved_module = (
        module if module is not None else _module_name_of(Path(path))
    )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "RPR000",
                Severity.ERROR,
                f"{path}:{exc.lineno or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    lines = tuple(source.splitlines())
    context = LintContext(
        path=path,
        module=resolved_module,
        tree=tree,
        lines=lines,
        suppressions=_parse_suppressions(lines),
    )
    findings: list[Finding] = []
    used: set[tuple[int, str]] = set()
    for rule in LINT_RULES.values():
        for finding in rule.check(context):
            line = int(finding.path.rsplit(":", 1)[-1])
            if context.suppressed(line, finding.rule_id):
                active = context.suppressions.get(line) or frozenset()
                used.add(
                    (
                        line,
                        finding.rule_id
                        if finding.rule_id in active
                        else "all",
                    )
                )
            else:
                findings.append(finding)
    findings.extend(_unused_suppressions(context, used))
    return findings


def _unused_suppressions(
    context: LintContext, used: set[tuple[int, str]]
) -> Iterator[Finding]:
    """RPR000 findings for suppressions that suppressed nothing."""
    for line, ids in sorted(context.suppressions.items()):
        for rule_id in sorted(ids):
            if (line, rule_id) in used:
                continue
            reason = (
                "suppresses no finding on this line"
                if rule_id in LINT_RULES or rule_id == "all"
                else "names a rule id no engine defines"
            )
            yield Finding(
                "RPR000",
                Severity.WARNING,
                f"{context.path}:{line}",
                f"unused suppression: `# norpr: {rule_id}` {reason} "
                "— remove it before it rots",
            )


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield every ``.py`` file under the given files/directories, sorted."""
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.suffix == ".py" and root.is_file():
            yield root


def lint_paths(paths: Iterable[str]) -> list[Finding]:
    """Lint every Python file under the given paths."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=str(file_path)))
    return findings


def _location(context: LintContext, node: ast.AST) -> str:
    return f"{context.path}:{getattr(node, 'lineno', 0)}"


# ----------------------------------------------------------------------
# RPR001 — interning safety
# ----------------------------------------------------------------------
@lint_rule("RPR001", "no mutation of interned value-object internals")
def check_no_interned_mutation(context: LintContext) -> Iterator[Finding]:
    def flagged_targets(node: ast.AST) -> Iterator[ast.Attribute]:
        if isinstance(node, ast.Assign):
            candidates: Iterable[ast.expr] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            candidates = [node.target]
        elif isinstance(node, ast.Delete):
            candidates = node.targets
        else:
            return
        for target in candidates:
            if isinstance(target, ast.Attribute):
                yield target

    for node in ast.walk(context.tree):
        for target in flagged_targets(node):
            attr = target.attr
            owner = _PROTECTED_ATTRS.get(attr)
            if owner is None or context.module == owner:
                continue
            is_self = (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
            if is_self and attr not in _ALWAYS_PROTECTED:
                # A foreign class may legitimately own an attribute with
                # a generic name like `_color`; only non-self writes are
                # unambiguous mutations of someone else's object.
                continue
            yield Finding(
                "RPR001",
                Severity.ERROR,
                _location(context, node),
                f"assignment to {attr!r} outside {owner}: interned "
                "topology objects are shared by the memoization layer "
                "and must never be mutated",
            )


# ----------------------------------------------------------------------
# RPR002 — from_maximal discipline
# ----------------------------------------------------------------------
@lint_rule("RPR002", "maximal facet families must use from_maximal")
def check_from_maximal(context: LintContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "SimplicialComplex"
            and len(node.args) == 1
            and not node.keywords
        ):
            continue
        argument = node.args[0]
        maximal = (
            isinstance(argument, ast.Attribute)
            and argument.attr == "facets"
        ) or (
            isinstance(argument, ast.Call)
            and isinstance(argument.func, ast.Attribute)
            and argument.func.attr in _MAXIMAL_PRODUCERS
        )
        if maximal:
            yield Finding(
                "RPR002",
                Severity.ERROR,
                _location(context, node),
                "this argument is already an inclusion-maximal facet "
                "family; use SimplicialComplex.from_maximal(...) and "
                "skip the pruning pass",
            )


# ----------------------------------------------------------------------
# RPR004 — no swallowed errors on hot paths
# ----------------------------------------------------------------------
@lint_rule("RPR004", "no bare except / silent pass in solver hot paths")
def check_exception_hygiene(context: LintContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                "RPR004",
                Severity.ERROR,
                _location(context, node),
                "bare `except:` catches SystemExit/KeyboardInterrupt "
                "and hides invariant violations; name the exceptions",
            )
            continue
        silent = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        if silent and context.in_hot_package():
            yield Finding(
                "RPR004",
                Severity.ERROR,
                _location(context, node),
                "silent `except …: pass` in a solver hot path: a "
                "swallowed error here turns an invariant violation "
                "into a wrong theorem — handle or re-raise",
            )


# ----------------------------------------------------------------------
# RPR005 — annotated public API in the proof core
# ----------------------------------------------------------------------
def _missing_annotations(
    function: ast.FunctionDef,
) -> list[str]:
    missing: list[str] = []
    arguments = function.args
    positional = list(arguments.posonlyargs) + list(arguments.args)
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    for argument in positional + list(arguments.kwonlyargs):
        if argument.annotation is None:
            missing.append(argument.arg)
    for star in (arguments.vararg, arguments.kwarg):
        if star is not None and star.annotation is None:
            missing.append(star.arg)
    if function.returns is None:
        missing.append("return")
    return missing


@lint_rule("RPR005", "public proof-core functions are fully annotated")
def check_public_annotations(context: LintContext) -> Iterator[Finding]:
    if not context.in_hot_package():
        return

    class Scope(ast.NodeVisitor):
        def __init__(self) -> None:
            self.found: list[tuple[ast.FunctionDef, list[str]]] = []

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            name = node.name
            public = not name.startswith("_")
            if public:
                missing = _missing_annotations(node)
                if missing:
                    self.found.append((node, missing))
            # Do not descend: closures inside a function are local
            # implementation details, not public API.

        def visit_AsyncFunctionDef(
            self, node: ast.AsyncFunctionDef
        ) -> None:
            self.visit_FunctionDef(node)  # type: ignore[arg-type]

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.generic_visit(node)

    scope = Scope()
    scope.visit(context.tree)
    for node, missing in scope.found:
        yield Finding(
            "RPR005",
            Severity.ERROR,
            _location(context, node),
            f"public function {node.name!r} is missing annotations for: "
            f"{', '.join(missing)} (the mypy gate and py.typed require "
            "a fully typed proof core)",
        )


# ----------------------------------------------------------------------
# RPR006 — masks stay inside repro.topology
# ----------------------------------------------------------------------
@lint_rule("RPR006", "the bitmask API is used only inside repro.topology")
def check_mask_confinement(context: LintContext) -> Iterator[Finding]:
    if context.module_parts[:2] == ("repro", "topology"):
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if name in _MASK_API or name.startswith(_MASK_API_PREFIXES):
            yield Finding(
                "RPR006",
                Severity.ERROR,
                _location(context, node),
                f"{name!r} is the bitmask API of repro.topology: a mask "
                "is meaningful only against the table that encoded it; "
                "use a table-owned entry point (VertexTable.key, "
                "SimplicialComplex.candidate_key, the repro.topology.wire "
                "codecs) instead",
            )


# ----------------------------------------------------------------------
# Scope walking and name resolution shared by RPR007–RPR009
# ----------------------------------------------------------------------
#: A node that owns a frame: its body's bindings are its own.
_Scope = Union[
    ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
]


def _scopes(tree: ast.Module) -> Iterator[_Scope]:
    """The module plus every function and class: each owns a frame."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node


def _scope_nodes(scope: _Scope) -> Iterator[ast.AST]:
    """Every node evaluated in ``scope``'s own frame.

    Nested function and class bodies are scopes of their own: only
    their decorators, defaults and bases run in the enclosing frame.
    Lambdas and comprehensions stay part of the frame they appear in.
    """
    todo: list[ast.AST] = list(scope.body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(node.decorator_list)
            todo.extend(node.args.defaults)
            todo.extend(d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            todo.extend(node.decorator_list)
            todo.extend(node.bases)
            todo.extend(keyword.value for keyword in node.keywords)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted import target (``shuffle`` -> ``random.shuffle``)."""
    imports: dict[str, str] = {}
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


def _resolve_call(imports: dict[str, str], node: ast.Call) -> Optional[str]:
    """The dotted import target of a call (``random.shuffle``), or ``None``."""
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = imports.get(head)
    if target is None:
        return None
    return f"{target}.{rest}" if rest else target


# ----------------------------------------------------------------------
# RPR007 — unordered iteration never feeds ordered outputs
# ----------------------------------------------------------------------
# set/frozenset iteration order is undefined across interpreters (it
# hashes pointers for non-trivial elements).  sorted(...) is the
# sanctioned laundering step.  Plain dicts are not flagged: they iterate
# in insertion order, a language guarantee since 3.7.

#: Builtins that materialize their argument's iteration order.
_ORDER_CONSUMERS = frozenset({"list", "tuple", "enumerate"})

#: Accumulator methods that make a loop body order-sensitive.
_ACCUMULATORS = frozenset({"append", "extend", "insert"})

#: Set-algebra methods that keep a set unordered.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)


def _is_unordered(node: ast.AST, names: frozenset[str]) -> bool:
    """Is ``node`` a set/frozenset, given the scope's unordered names?"""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        function = node.func
        if isinstance(function, ast.Name):
            return function.id in ("set", "frozenset")
        return (
            isinstance(function, ast.Attribute)
            and function.attr in _SET_METHODS
            and _is_unordered(function.value, names)
        )
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _SET_OPERATORS) and (
            _is_unordered(node.left, names)
            or _is_unordered(node.right, names)
        )
    if isinstance(node, ast.BoolOp):
        return all(_is_unordered(value, names) for value in node.values)
    if isinstance(node, ast.IfExp):
        return _is_unordered(node.body, names) and _is_unordered(
            node.orelse, names
        )
    if isinstance(node, (ast.NamedExpr, ast.Starred, ast.Await)):
        return _is_unordered(node.value, names)
    return False


def _unordered_names(nodes: Sequence[ast.AST]) -> frozenset[str]:
    """Names that *any* assignment in the scope binds to a set."""
    bindings: list[tuple[list[str], ast.expr]] = []
    for node in nodes:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names:
            bindings.append((names, value))
    unordered: frozenset[str] = frozenset()
    changed = True
    while changed:
        changed = False
        for names, value in bindings:
            if not unordered.issuperset(names) and _is_unordered(
                value, unordered
            ):
                unordered = unordered.union(names)
                changed = True
    return unordered


def _order_sensitive_body(loop: Union[ast.For, ast.AsyncFor]) -> bool:
    """Does the loop body append/extend/insert or ``yield``?"""
    for statement in loop.body:
        for node in ast.walk(statement):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ACCUMULATORS
            ):
                return True
    return False


def _order_consumer(node: ast.Call) -> Optional[str]:
    """``list``/``tuple``/``enumerate``/``join`` when ``node`` is one."""
    if not node.args:
        return None
    function = node.func
    if isinstance(function, ast.Name) and function.id in _ORDER_CONSUMERS:
        return function.id
    if isinstance(function, ast.Attribute) and function.attr == "join":
        return "join"
    return None


@lint_rule("RPR007", "unordered iteration must not feed ordered outputs")
def check_unordered_iteration(context: LintContext) -> Iterator[Finding]:
    for scope in _scopes(context.tree):
        nodes = list(_scope_nodes(scope))
        unordered = _unordered_names(nodes)
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_unordered(
                    node.iter, unordered
                ) and _order_sensitive_body(node):
                    yield Finding(
                        "RPR007",
                        Severity.ERROR,
                        _location(context, node),
                        "loop over a set feeds an ordered accumulator "
                        "(append/extend/yield); set iteration order is "
                        "undefined — iterate sorted(...) instead",
                    )
            elif isinstance(node, ast.ListComp):
                for generator in node.generators:
                    if _is_unordered(generator.iter, unordered):
                        yield Finding(
                            "RPR007",
                            Severity.ERROR,
                            _location(context, node),
                            "list comprehension over a set bakes "
                            "undefined iteration order into an ordered "
                            "result; iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call):
                consumer = _order_consumer(node)
                if consumer and _is_unordered(node.args[0], unordered):
                    yield Finding(
                        "RPR007",
                        Severity.ERROR,
                        _location(context, node),
                        f"{consumer}() materializes a set's undefined "
                        "iteration order into an ordered output; wrap "
                        "the set in sorted(...) first",
                    )


# ----------------------------------------------------------------------
# RPR008 — no ambient nondeterminism on pure paths
# ----------------------------------------------------------------------
# Seeded random.Random(seed) instances are allowed: determinism comes
# from the seed, not from avoiding randomness.

#: Wall-clock reads banned from pure paths.
_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


def _is_id_keyed_sort(node: ast.Call) -> bool:
    function = node.func
    is_sort = (
        isinstance(function, ast.Name)
        and function.id in ("sorted", "min", "max")
    ) or (isinstance(function, ast.Attribute) and function.attr == "sort")
    return is_sort and any(
        keyword.arg == "key"
        and isinstance(keyword.value, ast.Name)
        and keyword.value.id == "id"
        for keyword in node.keywords
    )


@lint_rule("RPR008", "pure paths are free of ambient nondeterminism")
def check_pure_paths(context: LintContext) -> Iterator[Finding]:
    if not context.in_pure_package():
        return
    imports = _imports(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        target = _resolve_call(imports, node)
        if target is not None:
            if target.startswith("random.") and target != "random.Random":
                yield Finding(
                    "RPR008",
                    Severity.ERROR,
                    _location(context, node),
                    f"{target}() drives the unseeded module-level RNG "
                    "on a pure path; pass a seeded random.Random "
                    "instance instead",
                )
                continue
            if target in _WALLCLOCK:
                yield Finding(
                    "RPR008",
                    Severity.ERROR,
                    _location(context, node),
                    f"{target}() reads the wall clock on a pure path; "
                    "results must depend on inputs only",
                )
                continue
        if _is_id_keyed_sort(node):
            yield Finding(
                "RPR008",
                Severity.ERROR,
                _location(context, node),
                "ordering by key=id sorts by memory address, which "
                "varies run to run; order by a value-derived key",
            )


# ----------------------------------------------------------------------
# RPR009 — functions shipped to pool workers stay pure
# ----------------------------------------------------------------------
# parallel_map, supervised_map (its function and its fallback= retry
# callback) and raw executor submit/map pickle the callable by reference
# and run it in a child process.  Lambdas and nested functions cannot be
# pickled that way; a write to a module global lands in the child and is
# lost; a worker-count read sees the child's (serial) configuration.
# Names imported from other modules are left alone: the rule reports
# only what the module itself proves.

#: Fan-out entry points taking the shipped callable first.
_SHIP_FUNCTIONS = frozenset({"parallel_map", "supervised_map"})

#: Entry points that additionally ship selected keyword arguments to
#: workers (the supervisor pickles ``fallback`` into attempt payloads).
_SHIP_KEYWORDS: dict[str, frozenset[str]] = {
    "supervised_map": frozenset({"fallback"}),
}

#: Executor methods taking the shipped callable first; only receivers
#: whose name mentions a pool/executor count, so unrelated ``submit``
#: methods are not swept in.
_SHIP_METHODS = frozenset({"submit", "map"})

#: Worker-count configuration the child must not consult.
_AMBIENT_CALLS = frozenset({"resolve_workers", "get_default_workers"})


def _shipped_arguments(node: ast.Call) -> list[ast.expr]:
    """Every expression this call pickles into worker processes."""
    function = node.func
    if not node.args:
        return []
    if isinstance(function, ast.Name) and function.id in _SHIP_FUNCTIONS:
        keywords = _SHIP_KEYWORDS.get(function.id, frozenset())
        return [node.args[0]] + [
            keyword.value
            for keyword in node.keywords
            if keyword.arg in keywords
        ]
    if isinstance(function, ast.Attribute) and function.attr in _SHIP_METHODS:
        receiver = (_dotted_name(function.value) or "").lower()
        if "pool" in receiver or "executor" in receiver:
            return [node.args[0]]
    return []


def _defines_locally(scope: _Scope, name: str) -> bool:
    """Is ``name`` a function defined inside the function ``scope``?"""
    if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not scope
        and node.name == name
        for node in ast.walk(scope)
    )


def _global_mutations(worker: ast.FunctionDef) -> Iterator[str]:
    declared: set[str] = set()
    for node in ast.walk(worker):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    if not declared:
        return
    for node in ast.walk(worker):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                yield target.id


def _ambient_reads(worker: ast.FunctionDef) -> Iterator[str]:
    for node in ast.walk(worker):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            tail = dotted.rpartition(".")[2]
            if tail in _AMBIENT_CALLS:
                yield f"{tail}()"
        elif (
            isinstance(node, ast.Constant)
            and node.value == "REPRO_WORKERS"
        ):
            yield '"REPRO_WORKERS"'
        elif isinstance(node, ast.Name) and node.id == "WORKERS_ENV":
            yield "WORKERS_ENV"


def _audit_shipped(
    context: LintContext,
    scope: _Scope,
    functions: dict[str, ast.FunctionDef],
    node: ast.Call,
    shipped: ast.expr,
) -> Iterator[Finding]:
    """Findings for one expression pickled into workers by ``node``."""
    location = _location(context, node)
    if isinstance(shipped, ast.Lambda):
        yield Finding(
            "RPR009",
            Severity.ERROR,
            location,
            "a lambda cannot be pickled by reference and will "
            "fail (only) at worker counts > 1; ship a module-"
            "level function",
        )
        return
    if not isinstance(shipped, ast.Name):
        return
    name = shipped.id
    if _defines_locally(scope, name):
        yield Finding(
            "RPR009",
            Severity.ERROR,
            location,
            f"nested function {name!r} closes over local state "
            "and cannot be pickled by reference; hoist it to "
            "module level and pass state through the payload",
        )
        return
    worker = functions.get(name)
    if worker is None:
        return
    for mutated in sorted(set(_global_mutations(worker))):
        yield Finding(
            "RPR009",
            Severity.ERROR,
            location,
            f"shipped function {name!r} mutates module global "
            f"{mutated!r}; the write lands in the child process "
            "and is silently lost — return the value through "
            "the result instead",
        )
    for read in sorted(set(_ambient_reads(worker))):
        yield Finding(
            "RPR009",
            Severity.ERROR,
            location,
            f"shipped function {name!r} reads ambient worker "
            f"configuration ({read}); workers are pinned to "
            "serial, so this sees the child's config, not the "
            "caller's — pass the value through the payload",
        )


@lint_rule("RPR009", "functions shipped to workers stay pure")
def check_worker_purity(context: LintContext) -> Iterator[Finding]:
    functions = {
        node.name: node
        for node in context.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for scope in _scopes(context.tree):
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Call):
                for shipped in _shipped_arguments(node):
                    yield from _audit_shipped(
                        context, scope, functions, node, shipped
                    )
