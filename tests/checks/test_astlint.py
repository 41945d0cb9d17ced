"""Each RPR lint rule must detect its violation (and only then)."""

import textwrap

from repro.checks import lint_source
from repro.checks.astlint import LINT_RULES


def lint(code, module="repro.experiments.fixture"):
    """Lint a dedented snippet as if it were the given module."""
    return lint_source(
        textwrap.dedent(code), path="fixture.py", module=module
    )


def rule_ids(code, module="repro.experiments.fixture"):
    return {finding.rule_id for finding in lint(code, module=module)}


class TestFramework:
    def test_every_rpr_rule_registered(self):
        assert sorted(LINT_RULES) == [
            "RPR001",
            "RPR002",
            "RPR004",
            "RPR005",
            "RPR006",
            "RPR007",
            "RPR008",
            "RPR009",
        ]

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n    pass\n")
        assert [f.rule_id for f in findings] == ["RPR000"]

    def test_clean_module_is_clean(self):
        assert rule_ids(
            """
            from repro.topology.complex import SimplicialComplex

            def build(facets):
                return SimplicialComplex(list(facets))
            """
        ) == set()


class TestRPR001InterningSafety:
    def test_mutating_foreign_facets_fires(self):
        assert rule_ids(
            """
            def corrupt(complex_, facets):
                complex_._facets = facets
            """
        ) == {"RPR001"}

    def test_augmented_assignment_fires(self):
        assert rule_ids(
            """
            def corrupt(simplex, extra):
                simplex._vertices += (extra,)
            """
        ) == {"RPR001"}

    def test_owning_module_may_assign(self):
        code = """
        class SimplicialComplex:
            def __init__(self, facets):
                self._facets = facets
        """
        assert rule_ids(code, module="repro.topology.complex") == set()
        assert rule_ids(code, module="repro.core.solvability") == {
            "RPR001"
        }

    def test_self_assignment_of_generic_name_allowed(self):
        # `_color` is generic enough that a foreign class may own one.
        assert rule_ids(
            """
            class Painter:
                def __init__(self, color):
                    self._color = color
            """
        ) == set()

    def test_non_self_generic_name_fires(self):
        assert rule_ids(
            """
            def repaint(vertex, color):
                vertex._color = color
            """
        ) == {"RPR001"}


class TestRPR002FromMaximal:
    def test_pruning_constructor_on_facets_fires(self):
        assert rule_ids(
            """
            def rebuild(complex_, SimplicialComplex):
                return SimplicialComplex(complex_.facets)
            """
        ) == {"RPR002"}

    def test_facets_containing_fires(self):
        assert rule_ids(
            """
            def star(complex_, v, SimplicialComplex):
                return SimplicialComplex(complex_.facets_containing(v))
            """
        ) == {"RPR002"}

    def test_merged_families_are_fine(self):
        assert rule_ids(
            """
            def union(a, b, SimplicialComplex):
                return SimplicialComplex(list(a.facets) + list(b.facets))
            """
        ) == set()

    def test_from_maximal_is_fine(self):
        assert rule_ids(
            """
            def rebuild(complex_, SimplicialComplex):
                return SimplicialComplex.from_maximal(complex_.facets)
            """
        ) == set()


class TestRPR004ExceptionHygiene:
    def test_bare_except_fires_anywhere(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except:
                    return None
            """,
            module="repro.experiments.fixture",
        ) == {"RPR004"}

    def test_silent_pass_fires_in_hot_package(self):
        code = """
        def solve(problem: object) -> object:
            try:
                return problem.solve()
            except ValueError:
                pass
        """
        assert rule_ids(code, module="repro.core.solvability") == {
            "RPR004"
        }

    def test_silent_pass_tolerated_outside_hot_packages(self):
        code = """
        def best_effort(step):
            try:
                step()
            except OSError:
                pass
        """
        assert rule_ids(code, module="repro.cli") == set()


class TestRPR005Annotations:
    def test_unannotated_public_function_fires(self):
        code = """
        def facets_of(complex_):
            return complex_.facets
        """
        findings = lint(code, module="repro.topology.fixture")
        assert {f.rule_id for f in findings} == {"RPR005"}
        assert "complex_" in findings[0].message
        assert "return" in findings[0].message

    def test_annotated_function_is_fine(self):
        assert rule_ids(
            """
            def double(value: int) -> int:
                return 2 * value
            """,
            module="repro.core.fixture",
        ) == set()

    def test_private_and_nested_functions_exempt(self):
        assert rule_ids(
            """
            def _helper(value):
                return value

            def public(value: int) -> int:
                def closure(x):
                    return x
                return closure(value)
            """,
            module="repro.models.fixture",
        ) == set()

    def test_methods_are_checked_and_self_exempt(self):
        code = """
        class Engine:
            def solve(self, problem):
                return problem
        """
        findings = lint(code, module="repro.core.fixture")
        assert {f.rule_id for f in findings} == {"RPR005"}
        assert "self" not in findings[0].message

    def test_outside_hot_packages_not_checked(self):
        assert rule_ids(
            """
            def untyped(value):
                return value
            """,
            module="repro.experiments.fixture",
        ) == set()


class TestRPR006MaskConfinement:
    def test_every_mask_api_name_fires_outside_topology(self):
        findings = lint(
            """
            def leak(table, complex_, simplex):
                table_, masks = complex_._ensure_index()
                return (
                    table.table_id,
                    table.encode_mask(simplex),
                    table.encode_mask_interning(simplex),
                    table.decode_mask(1),
                    table.decode_mask_trusted(1),
                    table.colors_mask([1]),
                    table.full_mask,
                )
            """
        )
        assert [f.rule_id for f in findings] == ["RPR006"] * 8

    def test_topology_modules_may_use_masks(self):
        assert "RPR006" not in rule_ids(
            """
            def encode(table, simplex):
                return table.encode_mask(simplex), table.table_id
            """,
            module="repro.topology.fixture",
        )

    def test_table_owned_entry_points_are_fine(self):
        assert rule_ids(
            """
            def probe(table, allowed, simplex):
                key = table.key(simplex)
                table.interning_key(simplex)
                return key, allowed.candidate_key(simplex)
            """
        ) == set()


class TestUnusedSuppressions:
    """Stale ``# norpr:`` comments are themselves findings (RPR000)."""

    BARE = """
        def swallow(action):
            try:
                action()
            except:
                pass
    """

    def test_used_suppression_is_not_reported(self):
        code = self.BARE.replace("except:", "except:  # norpr: RPR004")
        assert rule_ids(code) == set()

    def test_stale_known_id_is_reported(self):
        findings = lint(
            """
            def fine(x):
                return x  # norpr: RPR004
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert "suppresses no finding" in findings[0].message

    def test_unknown_id_is_reported_as_undefined(self):
        findings = lint(
            """
            def fine(x):
                return x  # norpr: RPR999
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert "no engine defines" in findings[0].message

    def test_stale_all_wildcard_is_reported(self):
        findings = lint(
            """
            def fine(x):
                return x  # norpr: all
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert "`# norpr: all` suppresses no finding" in findings[0].message

    def test_docstring_example_is_not_a_suppression(self):
        assert rule_ids(
            '''
            def documented(x):
                """Use ``# norpr: RPR004`` to silence this."""
                return x
            '''
        ) == set()
