"""β input functions (Theorem 4).

Theorem 4 restricts the binary-consensus-augmented model to algorithms in
which the input fed to the box by process ``i`` at round ``r`` depends only
on ``i`` and ``r``: ``a_i = α(i, r)``.  Fixing the round gives a function
``β : [n] → {0, 1}``; the closure with respect to ``β`` (``CL_M(Π|β)``) only
considers one-round algorithms that call the box with inputs ``β(i)``.

The pivotal combinatorial fact (Claim 6) is that the *majority side* of β —
the larger of ``β⁻¹(0)`` and ``β⁻¹(1)`` — takes no benefit from the box:
when only those processes participate, all box inputs coincide and the
output is forced, collapsing the augmented model onto plain IIS.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, Iterable, Mapping

from repro.topology.vertex import Vertex

__all__ = ["beta_input_function", "majority_side"]

InputFunction = Callable[[Vertex], Hashable]


def beta_input_function(beta: Mapping[int, Hashable]) -> InputFunction:
    """Lift ``β : [n] → {0,1}`` to an input function ``α(i, V) = β(i)``.

    The returned callable takes a protocol vertex (whose color is the
    process) and ignores the view, as required by Theorem 4's hypothesis.
    It is a partial of a module-level function, not a closure, so a model
    using it pickles for the per-input-simplex pool fan-out.
    """
    return partial(_beta_of_color, dict(beta))


def _beta_of_color(
    beta: Mapping[int, Hashable], vertex: Vertex
) -> Hashable:
    return beta[vertex.color]


def majority_side(
    beta: Mapping[int, Hashable], ids: Iterable[int]
) -> frozenset[int]:
    """The set ``S'`` of Claim 6: the larger preimage of β over ``ids``.

    Ties break toward ``β⁻¹(0)``, following the paper.  The returned set has
    size at least ``⌈|ids| / 2⌉``.
    """
    pool = sorted(set(ids))
    zeros = frozenset(i for i in pool if beta[i] == 0)
    ones = frozenset(i for i in pool if beta[i] != 0)
    if len(zeros) >= len(ones):
        return zeros
    return ones
