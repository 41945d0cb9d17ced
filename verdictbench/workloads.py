"""The benchmark's workloads: paper instances with answers from the paper.

Every workload is a fixed list of queries through the public ``repro``
API.  The seed only relabels the instances (which process ids take part,
where a closure input simplex sits on the grid), so every seed asks
questions of the same size with the same paper answer.  Expected answers
are written here from the paper and never computed by the engine under
test:

* Corollary 3: ε-AA in wait-free IIS needs exactly ``⌈log₃ 1/ε⌉`` rounds
  for two processes and ``⌈log₂ 1/ε⌉`` for three or more, so a query is
  solvable iff its round count reaches that bound (the bound is tight);
* Claim 3: ``CL_IIS(liberal ε-AA) = liberal 2ε-AA`` for three processes,
  so the legal outputs of ``σ`` are the full-colour simplices of the
  liberal 2ε-AA task's own ``Δ(σ)``;
* the iterated-closure lower bound equals the Corollary 3 round count.

Importing this module imports nothing from ``repro``: a workload's
``setup`` does, because that import is part of the measured set-up time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

#: Wall time a single query may take.  A query that raises, runs over
#: this limit or returns no verdict is a failed query and is charged this
#: limit in ``wall_s`` (a failure misses every latency limit).
QUERY_LIMIT_S = 20.0


def ceil_log(base: int, value: F) -> int:
    """The smallest ``t ≥ 0`` with ``base**t ≥ value``, exactly."""
    t, power = 0, 1
    while power < value:
        power *= base
        t += 1
    return t


def corollary3_rounds(n: int, eps: F) -> int:
    """Corollary 3: rounds ε-AA needs in wait-free IIS."""
    return ceil_log(3 if n == 2 else 2, 1 / eps)


@dataclass(frozen=True)
class SolvableQuery:
    """``is_solvable(ε-AA(ids, ε, m), IIS, t)``; ``bound`` is Corollary 3's."""

    n: int
    eps: F
    m: int
    t: int
    bound: int

    @property
    def label(self) -> str:
        return f"is_solvable n={self.n} eps={self.eps} m={self.m} t={self.t}"

    @property
    def expected(self) -> bool:
        return self.t >= self.bound


@dataclass(frozen=True)
class LowerBoundQuery:
    """``iterated_closure_lower_bound(ε-AA(ids, ε, m), IIS, max_rounds)``."""

    n: int
    eps: F
    m: int
    max_rounds: int
    bound: int

    @property
    def label(self) -> str:
        return f"lower_bound n={self.n} eps={self.eps} m={self.m}"

    @property
    def expected(self) -> int:
        return self.bound


@dataclass(frozen=True)
class ClosureQuery:
    """``legal_outputs(σ)`` of ``CL_IIS(liberal ε-AA)``, n = 3.

    ``width`` is ``max σ − min σ`` in grid steps; the seed picks where the
    window sits and which process holds which value.
    """

    eps: F
    m: int
    width: int

    @property
    def label(self) -> str:
        return f"legal_outputs eps={self.eps} m={self.m} width={self.width}/{self.m}"


# The instances.  ``bound`` is written out and cross-checked against the
# Corollary 3 formula at import, so a typo in either shows at once.
AA_REFUTE = (
    SolvableQuery(3, F(1, 8), 8, 1, bound=3),
    SolvableQuery(3, F(1, 5), 5, 2, bound=3),
)
AA_TIGHT = (
    SolvableQuery(2, F(1, 9), 9, 2, bound=2),
    SolvableQuery(2, F(1, 12), 12, 3, bound=3),
    SolvableQuery(3, F(1, 2), 4, 1, bound=1),
    # Raises RecursionError at the parent commit of this benchmark: the
    # backtracking search recurses once per free vertex and this
    # component has more than 1,000.  Kept on purpose; it is reported as
    # a failed query until the solver is fixed.
    SolvableQuery(3, F(1, 4), 4, 2, bound=2),
)
CLOSURE_SWEEP = (
    ClosureQuery(F(1, 8), 8, width=8),
    ClosureQuery(F(1, 8), 8, width=4),
    ClosureQuery(F(1, 8), 8, width=2),
)
LOWER_BOUND = (
    LowerBoundQuery(3, F(1, 4), 4, max_rounds=4, bound=2),
    LowerBoundQuery(2, F(1, 9), 9, max_rounds=4, bound=2),
)
# Tiny instances for the self-test only.
SMOKE = (
    SolvableQuery(2, F(1, 3), 3, 0, bound=1),
    SolvableQuery(2, F(1, 3), 3, 1, bound=1),
    ClosureQuery(F(1, 4), 4, width=2),
    LowerBoundQuery(2, F(1, 3), 3, max_rounds=3, bound=1),
)

WORKLOADS: dict[str, tuple[Any, ...]] = {
    "aa-refute": AA_REFUTE,
    "aa-tight": AA_TIGHT,
    "closure-sweep": CLOSURE_SWEEP,
    "lower-bound": LOWER_BOUND,
    "smoke": SMOKE,
}

for _queries in WORKLOADS.values():
    for _query in _queries:
        if not isinstance(_query, ClosureQuery):
            if _query.bound != corollary3_rounds(_query.n, _query.eps):
                raise AssertionError(f"bound disagrees with Corollary 3: {_query}")


def _ids(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(1, 10), n))


def simplex_key(simplex: Any) -> str:
    """A canonical, JSON-friendly spelling of a simplex: ``"1:0,2:1/2"``."""
    return ",".join(
        f"{vertex.color}:{vertex.value}"
        for vertex in sorted(simplex.vertices, key=lambda v: v.color)
    )


@dataclass
class Prepared:
    """A query bound to its inputs, ready to run.

    ``run`` calls the program and is the only timed part; ``verdict``
    turns its return value into a JSON value, or ``None`` when it is not
    a verdict; ``expected`` gives the paper's answer in the same form.
    """

    label: str
    run: Callable[[], Any]
    verdict: Callable[[Any], Any]
    expected: Callable[[], Any]


def _bool_verdict(answer: Any) -> Any:
    return answer if isinstance(answer, bool) else None


def _int_verdict(answer: Any) -> Any:
    return answer if type(answer) is int else None


def _outputs_verdict(answer: Any) -> Any:
    if not isinstance(answer, list):
        return None
    return sorted(simplex_key(simplex) for simplex in answer)


def setup(name: str, seed: int) -> list[Prepared]:
    """Import ``repro``, build the model and every task of a workload.

    The seed draws one set of process ids per process count, shared by
    the workload's queries.  Program functions are looked up on ``repro``
    when a query runs, so a traced run sees calls through the bindings it
    wraps.
    """
    import repro

    rng = random.Random(f"{name}:{seed}")
    ids_of = {n: _ids(rng, n) for n in (2, 3)}
    model = repro.ImmediateSnapshotModel()
    computers: dict[tuple[F, int], Any] = {}
    prepared = []
    for query in WORKLOADS[name]:
        if isinstance(query, SolvableQuery):
            task = repro.approximate_agreement_task(
                ids_of[query.n], query.eps, query.m
            )
            prepared.append(
                Prepared(
                    query.label,
                    lambda task=task, t=query.t: repro.is_solvable(
                        task, model, t, workers=1
                    ),
                    _bool_verdict,
                    lambda expected=query.expected: expected,
                )
            )
        elif isinstance(query, LowerBoundQuery):
            task = repro.approximate_agreement_task(
                ids_of[query.n], query.eps, query.m
            )
            prepared.append(
                Prepared(
                    query.label,
                    lambda task=task, rounds=query.max_rounds: (
                        repro.iterated_closure_lower_bound(task, model, rounds)
                    ),
                    _int_verdict,
                    lambda expected=query.expected: expected,
                )
            )
        else:
            ids = ids_of[3]
            key = (query.eps, query.m)
            if key not in computers:
                computers[key] = repro.ClosureComputer(
                    repro.liberal_approximate_agreement_task(
                        ids, query.eps, query.m
                    ),
                    model,
                )
            low = rng.randint(0, query.m - query.width)
            middle = rng.randint(low, low + query.width)
            values = [F(v, query.m) for v in (low, middle, low + query.width)]
            rng.shuffle(values)
            sigma = repro.Simplex(zip(ids, values))

            def claim3(sigma=sigma, ids=ids, eps=query.eps, m=query.m):
                target = repro.liberal_approximate_agreement_task(ids, 2 * eps, m)
                return sorted(
                    simplex_key(simplex)
                    for simplex in target.delta(sigma).simplices
                    if simplex.ids == sigma.ids
                )

            prepared.append(
                Prepared(
                    f"{query.label} sigma={simplex_key(sigma)}",
                    lambda computer=computers[key], sigma=sigma: (
                        computer.legal_outputs(sigma)
                    ),
                    _outputs_verdict,
                    claim3,
                )
            )
    return prepared
