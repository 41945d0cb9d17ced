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


@dataclass
class SolvabilityProblem:
    """A compiled solvability instance, ready to be searched.

    Attributes
    ----------
    candidates:
        Allowed output vertices per protocol vertex.
    constraints:
        Pairs ``(protocol facet, allowed face set)``: the image of the facet
        (and of each of its faces, incrementally) must belong to the set.
    rounds:
        Recorded for reporting only.
    """

    candidates: dict[Vertex, tuple[Vertex, ...]]
    constraints: list[tuple[Simplex, frozenset[Simplex]]]
    rounds: int = 0
    #: Number of search nodes explored by the most recent :meth:`solve`.
    #: Derived state, not a constructor parameter: keeping it out of
    #: ``__init__`` guarantees positional construction binds exactly
    #: ``(candidates, constraints, rounds)`` and nothing more.
    last_search_nodes: int = field(default=0, init=False, compare=False)
    _by_vertex: dict[Vertex, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Lookup tables derived by :meth:`_index`, all mask-native: every
    #: output vertex appearing in some allowed family gets a bit in a
    #: problem-local bit space (``_out_bit``), an allowed face becomes
    #: the OR of its vertices' bits, and a partial image is consistent
    #: iff its OR is in the constraint's ``set[int]``.  Building the
    #: image frozenset per probe was the search's hottest allocation;
    #: an int OR plus one set lookup replaces it.  Partner tables for
    #: the pairwise propagation are ``bit → color → partner bit-mask``,
    #: so arc survival is a single AND against the partner's domain
    #: mask.  Tables are shared between constraints with the same
    #: allowed family.
    _constraint_vertices: list[tuple[Vertex, ...]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _allowed_masks: list[set[int]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _allowed_partners: list[dict[int, dict[int, int]]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _out_bit: dict[Vertex, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _index(self) -> None:
        self._by_vertex = {vertex: [] for vertex in self.candidates}
        self._constraint_vertices = []
        self._allowed_masks = []
        self._allowed_partners = []
        bit_of: dict[Vertex, int] = {}
        self._out_bit = bit_of
        mask_tables: dict[frozenset[Simplex], set[int]] = {}
        partner_tables: dict[
            frozenset[Simplex], dict[int, dict[int, int]]
        ] = {}
        for position, (facet, allowed) in enumerate(self.constraints):
            vertices = facet.vertices
            self._constraint_vertices.append(vertices)
            for vertex in vertices:
                self._by_vertex[vertex].append(position)
            masks = mask_tables.get(allowed)
            if masks is None:
                masks = set()
                partners: dict[int, dict[int, int]] = {}
                for simplex in allowed:
                    mask = 0
                    for vertex in simplex.vertices:
                        bit = bit_of.get(vertex)
                        if bit is None:
                            bit = bit_of[vertex] = len(bit_of)
                        mask |= 1 << bit
                    masks.add(mask)
                    if len(simplex.vertices) == 2:
                        first, second = simplex.vertices
                        first_bit = bit_of[first]
                        second_bit = bit_of[second]
                        by_color = partners.setdefault(first_bit, {})
                        by_color[second.color] = by_color.get(
                            second.color, 0
                        ) | (1 << second_bit)
                        by_color = partners.setdefault(second_bit, {})
                        by_color[first.color] = by_color.get(
                            first.color, 0
                        ) | (1 << first_bit)
                mask_tables[allowed] = masks
                partner_tables[allowed] = partners
            self._allowed_masks.append(masks)
            self._allowed_partners.append(partner_tables[allowed])

    def _image_mask(
        self,
        vertices: tuple[Vertex, ...],
        assignment: dict[Vertex, Vertex],
    ) -> Optional[int]:
        """OR of the assigned images' bits over one constraint facet.

        Returns ``None`` when fewer than two of ``vertices`` are
        assigned (partial images of size < 2 are vacuously consistent:
        single vertices were filtered into the domains already), and
        ``-1`` when some image has no bit at all — it appears in no
        allowed family, so no allowed face can contain it, and ``-1``
        is never a member of a mask set, making the membership test
        reject it without a special case.
        """
        bit_of = self._out_bit
        mask = 0
        count = 0
        missing = False
        for vertex in vertices:
            image = assignment.get(vertex)
            if image is None:
                continue
            count += 1
            bit = bit_of.get(image)
            if bit is None:
                missing = True
            else:
                mask |= 1 << bit
        if count < 2:
            return None
        return -1 if missing else mask

    def solve(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
        node_limit: Optional[int] = None,
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
        """
        with span(
            "solvability/solve",
            vertices=len(self.candidates),
            constraints=len(self.constraints),
            rounds=self.rounds,
        ) as solve_span:
            result = self._solve(use_propagation, use_components, node_limit)
            solve_span.set_attribute("nodes", self.last_search_nodes)
            solve_span.set_attribute("solvable", result is not None)
            return result

    def prepare_search(
        self,
        use_propagation: bool = True,
        use_components: bool = True,
    ) -> Optional[
        tuple[
            dict[Vertex, list[Vertex]],
            dict[Vertex, Vertex],
            list[list[Vertex]],
        ]
    ]:
        """Run every pre-search stage; ``None`` refutes the instance.

        Everything :meth:`solve` does before backtracking: the
        empty-domain check, constraint indexing, pairwise
        arc-consistency propagation, up-front assignment of forced
        (singleton-domain) vertices, the pinned-pair constraint
        precheck, and the connected-component decomposition.  Returns
        ``(domains, assignment, components)`` ready for per-component
        backtracking — each component is independent of the others
        given the forced assignment.
        """
        self.last_search_nodes = 0
        if any(not domain for domain in self.candidates.values()):
            return None
        self._index()
        domains: dict[Vertex, list[Vertex]] = {
            vertex: list(options)
            for vertex, options in self.candidates.items()
        }
        if use_propagation and not self._propagate_pairwise(domains):
            return None

        # Forced vertices (singleton domains — e.g. every solo view, whose
        # carrier intersection pins the output) are assigned up front.
        # Beyond saving search depth, this is what lets the component
        # decomposition genuinely split the problem: forced vertices are
        # shared between otherwise-independent input windows and would
        # bridge their components.
        assignment: dict[Vertex, Vertex] = {
            vertex: options[0]
            for vertex, options in domains.items()
            if len(options) == 1
        }
        for position, vertices in enumerate(self._constraint_vertices):
            pinned = self._image_mask(vertices, assignment)
            if (
                pinned is not None
                and pinned not in self._allowed_masks[position]
            ):
                return None

        free = [v for v in domains if v not in assignment]
        components = (
            self._components(free)
            if use_components
            else ([sorted(free, key=lambda v: v._sort_key())] if free else [])
        )
        return domains, assignment, components

    def _solve(
        self,
        use_propagation: bool,
        use_components: bool,
        node_limit: Optional[int],
    ) -> Optional[DecisionMap]:
        prepared = self.prepare_search(use_propagation, use_components)
        if prepared is None:
            return None
        domains, assignment, components = prepared
        for component in components:
            if not self._search_component(
                component, domains, assignment, node_limit
            ):
                return None
        return DecisionMap(dict(assignment), self.rounds)

    def _propagate_pairwise(
        self, domains: dict[Vertex, list[Vertex]]
    ) -> bool:
        """AC-3 over the pairs of every constraint facet.

        A candidate for ``u`` survives only if, for every facet containing
        both ``u`` and some ``v``, a candidate of ``v`` forms an allowed
        edge with it (complexes are face-closed, so the pair must itself
        be an allowed simplex).  Edge tests go through the bit-indexed
        partner tables built by :meth:`_index`: each domain is mirrored
        as an OR of its candidates' bits, so one arc test is a dict
        lookup plus a single AND — no simplices (or sets) are
        materialized during the fixpoint.
        """
        arcs = []
        arc_set = set()
        for position, vertices in enumerate(self._constraint_vertices):
            partners = self._allowed_partners[position]
            for i, u in enumerate(vertices):
                for v in vertices[i + 1 :]:
                    for left, right in ((u, v), (v, u)):
                        key = (left, right, id(partners))
                        if key not in arc_set:
                            arc_set.add(key)
                            arcs.append((left, right, partners))
        from collections import deque

        queue = deque(arcs)
        watchers: dict[Vertex, list] = {}
        for arc in arcs:
            watchers.setdefault(arc[1], []).append(arc)

        bit_of = self._out_bit

        def domain_mask(options: list[Vertex]) -> int:
            mask = 0
            for option in options:
                bit = bit_of.get(option)
                if bit is not None:
                    mask |= 1 << bit
            return mask

        domain_masks = {
            vertex: domain_mask(options)
            for vertex, options in domains.items()
        }
        empty: dict[int, int] = {}
        while queue:
            u, v, partners = queue.popleft()
            mask_v = domain_masks[v]
            color_v = v.color
            kept = []
            for cand_u in domains[u]:
                bit = bit_of.get(cand_u)
                allowed_mask = (
                    partners.get(bit, empty).get(color_v)
                    if bit is not None
                    else None
                )
                if allowed_mask is not None and allowed_mask & mask_v:
                    kept.append(cand_u)
            if len(kept) != len(domains[u]):
                if not kept:
                    return False
                domains[u] = kept
                domain_masks[u] = domain_mask(kept)
                for arc in watchers.get(u, ()):
                    queue.append(arc)
        return True

    def _components(self, free: list[Vertex]) -> list[list[Vertex]]:
        """Connected components of the constraint graph over free vertices.

        Forced vertices are excluded: their values are already fixed, so
        they transmit no uncertainty between the subproblems they touch.
        """
        free_set = set(free)
        neighbors: dict[Vertex, set] = {v: set() for v in free_set}
        for constraint_vertices in self._constraint_vertices:
            vertices = [v for v in constraint_vertices if v in free_set]
            for i, u in enumerate(vertices):
                for v in vertices[i + 1 :]:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
        remaining = set(free_set)
        components: list[list[Vertex]] = []
        while remaining:
            seed = min(remaining, key=lambda v: v._sort_key())
            stack, seen = [seed], {seed}
            while stack:
                current = stack.pop()
                for neighbor in neighbors[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(
                sorted(seen, key=lambda v: v._sort_key())
            )
            remaining -= seen
        return components

    def _search_component(
        self,
        component: list[Vertex],
        domains: dict[Vertex, list[Vertex]],
        assignment: dict[Vertex, Vertex],
        node_limit: Optional[int] = None,
    ) -> bool:
        order = sorted(
            component, key=lambda v: (len(domains[v]), v._sort_key())
        )
        constraint_vertices = self._constraint_vertices
        allowed_masks = self._allowed_masks
        by_vertex = self._by_vertex
        image_mask = self._image_mask

        def consistent(vertex: Vertex) -> bool:
            # One OR sweep plus one set-of-int lookup per touched
            # constraint, for any arity — the pair case needs no special
            # path since a two-bit mask lookup is exactly as cheap.
            for constraint_index in by_vertex[vertex]:
                partial = image_mask(
                    constraint_vertices[constraint_index], assignment
                )
                if (
                    partial is not None
                    and partial not in allowed_masks[constraint_index]
                ):
                    return False
            return True

        def backtrack() -> bool:
            # Depth-first over ``order`` with an explicit stack of
            # next-option positions, one per depth: components can have
            # thousands of free vertices, far beyond the interpreter's
            # recursion limit.  Variable order, value order and node
            # counting are fixed: node budgets must stay comparable.
            depth_count = len(order)
            if depth_count == 0:
                return True
            next_option = [0] * depth_count
            depth = 0
            while True:
                vertex = order[depth]
                options = domains[vertex]
                position = next_option[depth]
                if position == len(options):
                    # Every value failed: retract the parent's image.
                    next_option[depth] = 0
                    depth -= 1
                    if depth < 0:
                        return False
                    del assignment[order[depth]]
                    continue
                next_option[depth] = position + 1
                self.last_search_nodes += 1
                if node_limit is not None and (
                    self.last_search_nodes > node_limit
                ):
                    raise SolvabilityError(
                        f"search exceeded the node budget of {node_limit}"
                    )
                assignment[vertex] = options[position]
                if consistent(vertex):
                    depth += 1
                    if depth == depth_count:
                        return True
                else:
                    del assignment[vertex]

        try:
            return backtrack()
        except SolvabilityError:
            # A budget abort leaves the images of the current descent in
            # place; unwind the component's partial images so a caught
            # error leaves the problem (and the shared assignment)
            # reusable for a later solve.
            for vertex in order:
                assignment.pop(vertex, None)
            raise


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
