"""Rule packs of the flow-sensitive analysis engine.

Importing this package registers the rules with
:data:`repro.checks.flow.FLOW_RULES` (the modules run their
``@flow_rule`` decorators at import time):

========  ============================================================
rule id   contract
========  ============================================================
RPR007    determinism — unordered ``set``/``frozenset`` iteration
          never flows into order-sensitive outputs: ``list``/``tuple``
          materialization, ``enumerate``, ``str.join``, list
          comprehensions, or append/yield fold loops
          (:mod:`repro.checks.flowrules.determinism`)
RPR008    pure-path hygiene — ``repro.core``/``repro.topology`` never
          reach unseeded ``random``, wall-clock time, or ``id()``-keyed
          ordering (:mod:`repro.checks.flowrules.determinism`)
RPR009    worker purity — functions shipped through ``parallel_map``
          or executor ``submit``/``map`` pickle cleanly (no lambdas,
          no closures), do not mutate module globals, and do not read
          ambient worker-count configuration
          (:mod:`repro.checks.flowrules.purity`)
========  ============================================================
"""

from repro.checks.flowrules import determinism, purity

__all__ = ["determinism", "purity"]
