"""Deciding ``t``-round solvability by exhaustive simplicial-map search.

A task ``Π = (I, O, Δ)`` is solvable in ``t`` rounds in model ``M`` iff
there is a chromatic simplicial map ``f : P^(t) → O`` with
``f(P^(t)(σ)) ⊆ Δ(σ)`` for **every** simplex ``σ ∈ I`` (Section 2.2).  On a
finite instance this is a finite constraint-satisfaction problem over the
protocol vertices:

* the variables are the vertices of ``P^(t)`` (one per (process, view));
* the domain of a vertex is the set of same-colored output vertices allowed
  by every ``Δ(σ)`` whose protocol complex contains it;
* for every input simplex ``σ`` and every facet ``ρ`` of ``P^(t)(σ)``, the
  image ``f(ρ)`` must be a simplex of ``Δ(σ)``.

Because complexes are face-closed, a *partial* image of a facet must already
be a simplex of the allowed complex — which gives the backtracking search a
cheap, exact forward check.  The engine is model-agnostic: register-only and
augmented models both work, and the closure machinery reuses it for the
one-round local tasks of Definition 2 (whose ``Δ`` is not monotone, which is
why constraints range over all input simplices, not only facets).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
)

from repro.errors import SolvabilityError
from repro.models.base import ComputationModel
from repro.models.protocol import ProtocolOperator
from repro.tasks.task import Task
from repro.telemetry import span
from repro.topology.complex import SimplicialComplex
from repro.topology.maps import SimplicialMap
from repro.topology.simplex import Simplex
from repro.topology.vertex import Vertex

__all__ = [
    "DecisionMap",
    "SolvabilityProblem",
    "build_solvability_problem",
    "find_decision_map",
    "is_solvable",
]


@dataclass(frozen=True)
class DecisionMap:
    """A solution to a solvability problem: the algorithm's output map ``f``.

    Attributes
    ----------
    assignment:
        The vertex map: protocol vertex ``(i, V_i)`` ↦ output vertex
        ``(i, y_i)``.
    rounds:
        The number of communication rounds the map decides after.
    """

    assignment: Mapping[Vertex, Vertex]
    rounds: int

    def __call__(self, vertex: Vertex) -> Vertex:
        return self.assignment[vertex]

    def output_simplex(self, protocol_simplex: Simplex) -> Simplex:
        """The decided configuration for one execution."""
        return Simplex(
            self.assignment[v] for v in protocol_simplex.vertices
        )

    def as_simplicial_map(
        self, source: SimplicialComplex, target: SimplicialComplex
    ) -> SimplicialMap:
        """Package the assignment as a checked :class:`SimplicialMap`."""
        restricted = {
            vertex: self.assignment[vertex] for vertex in source.vertices
        }
        return SimplicialMap(source, target, restricted)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _bits(mask: int) -> list[int]:
    """The single-bit masks of ``mask``, lowest bit first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low)
        mask ^= low
    return found


class _Compiled:
    """The int-native form of a :class:`SolvabilityProblem`.

    Variables (protocol vertices) get dense ids in insertion order, and
    :meth:`ranks` gives their ``_sort_key`` order — the search order's tie
    break — on the first search that needs it: a refutation by propagation
    never sorts the (deep, view-valued) variables at all.
    Output vertices get single-bit masks: the candidate values first, in
    ``_sort_key`` order, so iterating a domain's bits upwards tries values
    in sort order; vertices that only occur in allowed families follow.
    A domain is the OR of its values' bits, an allowed face the OR of its
    vertices' bits, and a partial image is consistent iff its OR is in the
    constraint's mask set.  For arc consistency every family also gets
    ``color → bit → partner mask`` tables, so a value of ``u`` keeps
    support from ``v`` iff its partner mask for ``v``'s color meets
    ``v``'s domain.  Mask sets and partner tables are shared between
    constraints over the same allowed family.  ``Vertex`` objects appear
    only here and in :meth:`decode`.
    """

    __slots__ = (
        "variables",
        "var_id",
        "rank",
        "outputs",
        "out_bit",
        "domains",
        "constraint_checks",
        "checks",
        "arc_var",
        "arc_partner",
        "arc_table",
        "watchers",
        "fixpoint",
        "fixpoint_known",
    )

    def __init__(
        self,
        candidates: Mapping[Vertex, Sequence[Vertex]],
        constraints: Sequence[tuple[Simplex, frozenset[Simplex]]],
    ) -> None:
        variables = list(candidates)
        var_id = {vertex: i for i, vertex in enumerate(variables)}
        outputs = sorted(
            {value for domain in candidates.values() for value in domain},
            key=lambda v: v._sort_key(),
        )
        out_bit = {vertex: 1 << i for i, vertex in enumerate(outputs)}
        self.variables = variables
        self.var_id = var_id
        self.rank: Optional[list[int]] = None
        self.outputs = outputs
        self.out_bit = out_bit
        self.domains = [
            self._mask_of(candidates[vertex]) for vertex in variables
        ]

        family_tables: dict[
            frozenset[Simplex],
            tuple[set[int], dict[int, dict[int, int]], int],
        ] = {}
        self.constraint_checks: list[tuple[tuple[int, ...], set[int]]] = []
        self.checks: list[list[tuple[tuple[int, ...], set[int]]]] = [
            [] for _ in variables
        ]
        # Arc ``a`` revises ``arc_var[a]`` against ``arc_partner[a]``
        # through ``arc_table[a]``; ``watchers[v]`` lists the arcs whose
        # partner is ``v``.  Parallel lists, not tuples: large problems
        # have hundreds of thousands of arcs.
        self.arc_var: list[int] = []
        self.arc_partner: list[int] = []
        self.arc_table: list[dict[int, int]] = []
        self.watchers: list[list[int]] = [[] for _ in variables]
        size = len(variables)
        arc_keys: set[int] = set()
        empty: dict[int, int] = {}
        for facet, allowed in constraints:
            tables = family_tables.get(allowed)
            if tables is None:
                masks, partners = self._family(allowed)
                tables = family_tables[allowed] = (
                    masks,
                    partners,
                    len(family_tables),
                )
            masks, partners, family = tables
            members = tuple(var_id[vertex] for vertex in facet.vertices)
            check = (members, masks)
            self.constraint_checks.append(check)
            for position, u in enumerate(members):
                self.checks[u].append(check)
                for v in members[position + 1 :]:
                    for left, right in ((u, v), (v, u)):
                        key = (family * size + left) * size + right
                        if key not in arc_keys:
                            arc_keys.add(key)
                            self.watchers[right].append(len(self.arc_var))
                            self.arc_var.append(left)
                            self.arc_partner.append(right)
                            self.arc_table.append(
                                partners.get(variables[right].color, empty)
                            )
        #: The unpinned arc-consistency fixpoint (``None`` when it wipes
        #: out a domain), computed by the first propagating solve.
        self.fixpoint: Optional[list[int]] = None
        self.fixpoint_known = False

    def _bit(self, vertex: Vertex) -> int:
        bit = self.out_bit.get(vertex)
        if bit is None:
            bit = self.out_bit[vertex] = 1 << len(self.outputs)
            self.outputs.append(vertex)
        return bit

    def _mask_of(self, vertices: Iterable[Vertex]) -> int:
        mask = 0
        for vertex in vertices:
            mask |= self.out_bit[vertex]
        return mask

    def _family(
        self, allowed: frozenset[Simplex]
    ) -> tuple[set[int], dict[int, dict[int, int]]]:
        """Mask set and ``color → bit → partner mask`` tables of a family."""
        masks: set[int] = set()
        partners: dict[int, dict[int, int]] = {}
        for simplex in allowed:
            vertices = simplex.vertices
            mask = 0
            for vertex in vertices:
                mask |= self._bit(vertex)
            masks.add(mask)
            if len(vertices) == 2:
                first, second = vertices
                first_bit = self.out_bit[first]
                second_bit = self.out_bit[second]
                by_bit = partners.setdefault(second.color, {})
                by_bit[first_bit] = by_bit.get(first_bit, 0) | second_bit
                by_bit = partners.setdefault(first.color, {})
                by_bit[second_bit] = by_bit.get(second_bit, 0) | first_bit
        return masks, partners

    def propagate(self, domains: list[int], start: Iterable[int]) -> bool:
        """AC-3 from the arcs ``start``; ``False`` on a wipe-out.

        A value of ``u`` survives arc ``(u, v)`` iff some value of ``v``
        forms an allowed edge with it (allowed families are face-closed, so
        the pair must itself be allowed).  When ``u``'s domain shrinks,
        every arc supported by ``u`` is queued again.  ``domains`` is
        narrowed in place to the greatest arc-consistent subdomains.
        """
        arc_var = self.arc_var
        arc_partner = self.arc_partner
        arc_table = self.arc_table
        watchers = self.watchers
        queue = deque(start)
        queued = bytearray(len(arc_var))
        for arc in queue:
            queued[arc] = 1
        while queue:
            arc = queue.popleft()
            queued[arc] = 0
            u = arc_var[arc]
            table = arc_table[arc]
            domain = domains[u]
            support = domains[arc_partner[arc]]
            kept = domain
            rest = domain
            while rest:
                low = rest & -rest
                rest ^= low
                if not table.get(low, 0) & support:
                    kept ^= low
            if kept != domain:
                if not kept:
                    return False
                domains[u] = kept
                for watcher in watchers[u]:
                    if not queued[watcher]:
                        queued[watcher] = 1
                        queue.append(watcher)
        return True

    def unpinned_fixpoint(self) -> Optional[list[int]]:
        """The arc-consistent domains before any pin, computed once."""
        if not self.fixpoint_known:
            domains = list(self.domains)
            if self.propagate(domains, range(len(self.arc_var))):
                self.fixpoint = domains
            self.fixpoint_known = True
        return self.fixpoint

    def start_domains(
        self, use_propagation: bool, pinned: list[tuple[int, int]]
    ) -> Optional[list[int]]:
        """Fresh domains cut to the ``(variable, bit)`` pins; ``None`` if
        one is empty.  With propagation they start from the cached
        unpinned fixpoint and are made arc consistent again."""
        if use_propagation:
            base = self.unpinned_fixpoint()
            if base is None:
                return None
            domains = list(base)
        else:
            domains = list(self.domains)
        for variable, bit in pinned:
            domains[variable] &= bit
        if not all(domains):
            return None
        if use_propagation and pinned:
            # The base domains are arc consistent already, so only arcs
            # supported by a pinned variable can lose support; AC-3 from
            # them reaches the same (unique) fixpoint a full run would.
            start = [
                arc
                for variable, _ in pinned
                for arc in self.watchers[variable]
            ]
            if not self.propagate(domains, start):
                return None
        return domains

    def ranks(self) -> list[int]:
        """Each variable's position in ``_sort_key`` order."""
        if self.rank is None:
            order = sorted(
                range(len(self.variables)),
                key=lambda i: self.variables[i]._sort_key(),
            )
            self.rank = [0] * len(order)
            for position, variable in enumerate(order):
                self.rank[variable] = position
        return self.rank

    def decode(self, image: list[int], rounds: int) -> DecisionMap:
        outputs = self.outputs
        return DecisionMap(
            {
                vertex: outputs[image[i].bit_length() - 1]
                for i, vertex in enumerate(self.variables)
            },
            rounds,
        )


@dataclass
class SolvabilityProblem:
    """A solvability instance, compiled to ints on first use and searched.

    Attributes
    ----------
    candidates:
        Allowed output vertices per protocol vertex.
    constraints:
        Pairs ``(protocol facet, allowed face set)``: the image of the facet
        (and of each of its faces, incrementally) must belong to the set.
    rounds:
        Recorded for reporting only.

    The first :meth:`prepare_search` compiles both into problem-local int
    tables (see :class:`_Compiled`); the problem is read-only from then on.
    Every later solve — pinned or not — reuses them, and the unpinned
    arc-consistency fixpoint is computed once and shared too.
    """

    candidates: dict[Vertex, tuple[Vertex, ...]]
    constraints: list[tuple[Simplex, frozenset[Simplex]]]
    rounds: int = 0
    #: Number of search nodes explored by the most recent :meth:`solve`.
    #: Derived state, not a constructor parameter: keeping it out of
    #: ``__init__`` guarantees positional construction binds exactly
    #: ``(candidates, constraints, rounds)`` and nothing more.
    last_search_nodes: int = field(default=0, init=False, compare=False)
    _compiled: Optional[_Compiled] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _compile(self) -> _Compiled:
        compiled = self._compiled
        if compiled is None:
            with span(
                "solvability/compile",
                vertices=len(self.candidates),
                constraints=len(self.constraints),
            ) as compile_span:
                compiled = self._compiled = _Compiled(
                    self.candidates, self.constraints
                )
                compile_span.set_attribute("arcs", len(compiled.arc_var))
        return compiled

    def solve(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
        node_limit: Optional[int] = None,
        pins: Optional[Mapping[Vertex, Vertex]] = None,
    ) -> Optional[DecisionMap]:
        """Search for a satisfying assignment; ``None`` if none exists.

        The search runs in three stages: pairwise arc-consistency
        propagation (prunes values with no compatible partner inside some
        constraint facet — complete for binary constraints), decomposition
        of the constraint graph into connected components (independent
        sub-searches cannot poison each other), and per-component
        backtracking with incremental face checks for the higher-arity
        constraints.

        The two flags disable the first two stages; they exist for the
        ablation benchmarks — leave them on in real use (without them,
        refutations can degenerate to exponential thrashing).  An optional
        ``node_limit`` bounds the number of explored search nodes; when it
        is exceeded a :class:`SolvabilityError` is raised (used by the same
        benchmarks to quantify the thrashing without waiting it out).

        ``pins`` maps protocol vertices to the one output vertex each must
        take.  A pinned solve answers exactly what a fresh problem with
        those domains cut down to the pin would answer, and returns the
        same map; it shares this problem's compiled tables and unpinned
        fixpoint, so deciding many pin sets costs one compile.
        """
        with span(
            "solvability/solve",
            vertices=len(self.candidates),
            constraints=len(self.constraints),
            rounds=self.rounds,
            pinned=bool(pins),
        ) as solve_span:
            result = self._solve(
                use_propagation, use_components, node_limit, pins
            )
            solve_span.set_attribute("nodes", self.last_search_nodes)
            solve_span.set_attribute("solvable", result is not None)
            return result

    def prepare_search(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
        pins: Optional[Mapping[Vertex, Vertex]] = None,
    ) -> Optional[tuple[list[int], list[int], list[list[int]]]]:
        """Run every pre-search stage; ``None`` refutes the instance.

        Everything :meth:`solve` does before backtracking: compiling (on
        the first call), the empty-domain check, the pins,
        arc-consistency propagation, up-front assignment of forced
        (singleton-domain) variables, the forced-image constraint
        precheck, and the connected-component decomposition.  Returns
        ``(domains, image, components)`` over the compiled ids: the
        domain bitset of every variable, the output bit forced on it (0
        if free), and the free variables split into components, each
        independent of the others given the forced images.
        """
        self.last_search_nodes = 0
        compiled = self._compile()
        domains = self._domains(compiled, use_propagation, pins)
        if domains is None:
            return None

        # Forced variables (singleton domains — e.g. every solo view,
        # whose carrier intersection pins the output) are assigned up
        # front.  Beyond saving search depth, this is what lets the
        # component decomposition genuinely split the problem: forced
        # variables are shared between otherwise-independent input
        # windows and would bridge their components.
        image = [0 if domain & (domain - 1) else domain for domain in domains]
        for members, masks in compiled.constraint_checks:
            mask = 0
            count = 0
            for member in members:
                bit = image[member]
                if bit:
                    mask |= bit
                    count += 1
            if count > 1 and mask not in masks:
                return None

        free = [i for i, bit in enumerate(image) if not bit]
        if not free:
            return domains, image, []
        by_rank = compiled.ranks().__getitem__
        free.sort(key=by_rank)
        if not use_components:
            return domains, image, [free]
        # Constraint-graph components over the free variables: the arcs
        # a variable supports lead to its constraint neighbours.
        arc_var = compiled.arc_var
        watchers = compiled.watchers
        seen = bytearray(len(domains))
        components = []
        for seed in free:
            if seen[seed]:
                continue
            seen[seed] = 1
            stack, component = [seed], [seed]
            while stack:
                for arc in watchers[stack.pop()]:
                    neighbor = arc_var[arc]
                    if not seen[neighbor] and not image[neighbor]:
                        seen[neighbor] = 1
                        stack.append(neighbor)
                        component.append(neighbor)
            component.sort(key=by_rank)
            components.append(component)
        return domains, image, components

    def _domains(
        self,
        compiled: _Compiled,
        use_propagation: bool,
        pins: Optional[Mapping[Vertex, Vertex]],
    ) -> Optional[list[int]]:
        """The domains the search starts from; ``None`` refutes."""
        if not all(compiled.domains):
            return None
        pinned = []
        for vertex, value in (pins or {}).items():
            variable = compiled.var_id.get(vertex)
            if variable is None:
                raise SolvabilityError(
                    f"pinned vertex {vertex!r} is not a variable"
                )
            pinned.append((variable, compiled.out_bit.get(value, 0)))
        with span(
            "solvability/propagate", pinned=bool(pins)
        ) as propagate_span:
            domains = compiled.start_domains(use_propagation, pinned)
            propagate_span.set_attribute("wipeouts", int(domains is None))
            return domains

    def _solve(
        self,
        use_propagation: bool,
        use_components: bool,
        node_limit: Optional[int],
        pins: Optional[Mapping[Vertex, Vertex]],
    ) -> Optional[DecisionMap]:
        prepared = self.prepare_search(use_propagation, use_components, pins)
        if prepared is None:
            return None
        domains, image, components = prepared
        with span(
            "solvability/search", components=len(components)
        ) as search_span:
            try:
                for component in components:
                    if not self._search_component(
                        component, domains, image, node_limit
                    ):
                        return None
            finally:
                search_span.set_attribute("nodes", self.last_search_nodes)
        assert self._compiled is not None
        return self._compiled.decode(image, self.rounds)

    def _search_component(
        self,
        component: list[int],
        domains: list[int],
        image: list[int],
        node_limit: Optional[int] = None,
    ) -> bool:
        assert self._compiled is not None
        rank = self._compiled.ranks()
        order = sorted(
            component, key=lambda i: (_popcount(domains[i]), rank[i])
        )
        options = [_bits(domains[i]) for i in order]
        checks = [self._compiled.checks[i] for i in order]
        # Depth-first over ``order`` with an explicit stack of
        # next-option positions, one per depth: components can have
        # thousands of free variables, far beyond the interpreter's
        # recursion limit.  Variable order, value order and node
        # counting are fixed: node budgets must stay comparable.
        depth_count = len(order)
        if depth_count == 0:
            return True
        next_option = [0] * depth_count
        depth = 0
        nodes = self.last_search_nodes
        try:
            while True:
                position = next_option[depth]
                if position == len(options[depth]):
                    # Every value failed: retract the parent's image.
                    next_option[depth] = 0
                    depth -= 1
                    if depth < 0:
                        return False
                    image[order[depth]] = 0
                    continue
                next_option[depth] = position + 1
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    raise SolvabilityError(
                        f"search exceeded the node budget of {node_limit}"
                    )
                variable = order[depth]
                image[variable] = options[depth][position]
                # One OR sweep plus one set-of-int lookup per touched
                # constraint; partial images of fewer than two vertices
                # are vacuously consistent.
                for members, masks in checks[depth]:
                    mask = 0
                    count = 0
                    for member in members:
                        bit = image[member]
                        if bit:
                            mask |= bit
                            count += 1
                    if count > 1 and mask not in masks:
                        image[variable] = 0
                        break
                else:
                    depth += 1
                    if depth == depth_count:
                        return True
        finally:
            self.last_search_nodes = nodes


def build_solvability_problem(
    input_simplices: Iterable[Simplex],
    delta_of: Callable[[Simplex], SimplicialComplex],
    protocol_of: Callable[[Simplex], SimplicialComplex],
    rounds: int = 0,
) -> SolvabilityProblem:
    """Compile constraints for a (generalized) solvability question.

    Parameters
    ----------
    input_simplices:
        Every input simplex whose executions constrain ``f`` (for tasks,
        all simplices of ``I``; for local tasks, all faces of ``τ``).
    delta_of:
        The specification ``σ ↦ Δ(σ)``.
    protocol_of:
        ``σ ↦ P^(t)(σ)``, the executions where exactly ``ID(σ)``
        participate.
    """
    candidates: dict[Vertex, set] = {}
    constraints: list[tuple[Simplex, frozenset[Simplex]]] = []
    constraint_keys: set = set()

    for sigma in input_simplices:
        allowed = delta_of(sigma)
        allowed_faces = allowed.simplices
        # Accumulate per-color domains in plain sets (rebuilding a frozenset
        # per vertex is quadratic in the color class size).
        allowed_by_color: dict[int, set] = {}
        for output_vertex in allowed.vertices:
            allowed_by_color.setdefault(output_vertex.color, set()).add(
                output_vertex
            )
        protocol = protocol_of(sigma)
        empty: set = set()
        for vertex in protocol.vertices:
            domain = allowed_by_color.get(vertex.color, empty)
            if vertex in candidates:
                candidates[vertex] &= domain
            else:
                candidates[vertex] = set(domain)
        for facet in protocol.facets:
            key = (facet, allowed_faces)
            if key not in constraint_keys:
                constraint_keys.add(key)
                constraints.append((facet, allowed_faces))

    ordered_candidates = {
        vertex: tuple(sorted(domain, key=lambda v: v._sort_key()))
        for vertex, domain in candidates.items()
    }
    return SolvabilityProblem(ordered_candidates, constraints, rounds)


def find_decision_map(
    task: Task,
    model: ComputationModel,
    rounds: int,
    input_simplices: Optional[Iterable[Simplex]] = None,
    operator: Optional[ProtocolOperator] = None,
    workers: Optional[int] = None,
) -> Optional[DecisionMap]:
    """Search for a ``rounds``-round decision map solving ``task`` in ``model``.

    Parameters
    ----------
    input_simplices:
        Restrict the constraints to these input simplices (default: every
        simplex of the task's input complex).  Restricting weakens the
        question, which is safe for *impossibility*: if the restricted
        instance is unsolvable, so is the full task.
    operator:
        Reuse a memoized :class:`ProtocolOperator` across calls.
    workers:
        Passed to :meth:`ProtocolOperator.materialize`, which may build the
        per-input-simplex protocol complexes on a process pool.  The
        search itself always runs serially in this process, so the
        verdict — and the returned map, if any — are the serial ones.
    """
    if rounds < 0:
        raise SolvabilityError("rounds must be non-negative")
    op = operator or ProtocolOperator(model)
    simplices: Sequence[Simplex] = (
        list(input_simplices)
        if input_simplices is not None
        else list(task.input_complex)
    )
    op.materialize(simplices, rounds, workers)
    problem = build_solvability_problem(
        simplices,
        task.delta,
        lambda sigma: op.of_simplex(sigma, rounds),
        rounds=rounds,
    )
    return problem.solve()


def is_solvable(
    task: Task,
    model: ComputationModel,
    rounds: int,
    input_simplices: Optional[Iterable[Simplex]] = None,
    operator: Optional[ProtocolOperator] = None,
    workers: Optional[int] = None,
) -> bool:
    """``True`` iff a ``rounds``-round algorithm solves the task instance."""
    found = find_decision_map(
        task, model, rounds, input_simplices, operator, workers
    )
    return found is not None
