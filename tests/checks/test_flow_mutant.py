"""One seeded mask-mixing bug, caught by lint rule RPR006.

The mutant below mixes masks across two vertex tables with different
entry orders — the bug class that makes a bare ``int`` mask dangerous.
Analyzed as a module outside :mod:`repro.topology`, every call into the
bitmask API is flagged: confinement does not need to prove a mix, it
forbids holding a mask at all.
"""

from repro.checks import lint_source
from repro.checks.findings import Severity

MUTANT = """\
from repro.topology import VertexTable

def mixed_union(s1, s2):
    left = VertexTable([(1, "x"), (2, "y")])
    right = VertexTable([(2, "y"), (1, "x")])
    m1 = left.encode_mask(s1)
    m2 = right.encode_mask(s2)
    return m1 | m2

def wrong_decode(s1):
    left = VertexTable([(1, "x"), (2, "y")])
    right = VertexTable([(2, "y"), (1, "x")])
    return right.decode_mask(left.encode_mask(s1))
"""


class TestConfinement:
    def test_every_mask_call_is_flagged_as_rpr006_error(self):
        findings = lint_source(
            MUTANT, path="mutant.py", module="repro.experiments.mutant"
        )
        rpr006 = [f for f in findings if f.rule_id == "RPR006"]
        lines = sorted(int(f.path.rsplit(":", 1)[-1]) for f in rpr006)
        # Both encodes of the mix, and the decode plus its inner encode.
        assert lines == [6, 7, 13, 13]
        assert all(f.severity is Severity.ERROR for f in rpr006)
