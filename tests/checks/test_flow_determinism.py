"""RPR007/RPR008 — determinism of iteration orders and ambient inputs."""

import textwrap

from repro.checks import lint_source


def rule_ids(code, module="repro.experiments.fixture"):
    # The fixtures are deliberately unannotated; RPR005 (annotations in
    # the proof core) has its own tests in test_astlint.py.
    return [
        f.rule_id
        for f in lint_source(
            textwrap.dedent(code), path="fixture.py", module=module
        )
        if f.rule_id != "RPR005"
    ]


class TestRPR007UnorderedFlow:
    def test_set_loop_feeding_append_fires(self):
        assert rule_ids(
            """
            def bad(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """
        ) == ["RPR007"]

    def test_set_literal_loop_with_yield_fires(self):
        assert rule_ids(
            """
            def bad(a, b):
                for item in {a, b}:
                    yield item
            """
        ) == ["RPR007"]

    def test_list_of_set_fires(self):
        assert rule_ids(
            """
            def bad(items):
                s = frozenset(items)
                return list(s)
            """
        ) == ["RPR007"]

    def test_join_of_set_fires(self):
        assert rule_ids(
            """
            def bad(items):
                s = set(items)
                return ",".join(s)
            """
        ) == ["RPR007"]

    def test_comprehension_over_set_fires(self):
        assert rule_ids(
            """
            def bad(items):
                s = set(items)
                return [item for item in s]
            """
        ) == ["RPR007"]

    def test_sorted_launders_the_order(self):
        assert (
            rule_ids(
                """
                def good(items):
                    out = []
                    for item in sorted(set(items)):
                        out.append(item)
                    return list(sorted(set(items)))
                """
            )
            == []
        )

    def test_membership_and_set_algebra_are_fine(self):
        assert (
            rule_ids(
                """
                def good(items, probe):
                    s = set(items)
                    t = s | {probe}
                    return probe in t, len(t)
                """
            )
            == []
        )

    def test_side_effect_free_loop_is_fine(self):
        assert (
            rule_ids(
                """
                def good(items):
                    total = 0
                    for item in set(items):
                        total += item
                    return total
                """
            )
            == []
        )


class TestRPR007ScopeWide:
    """A name is unordered if *any* assignment in its scope binds a set."""

    def test_set_on_one_if_arm_fires(self):
        # The other arm sorts, but the set arm still reaches list().
        assert rule_ids(
            """
            def bad(items, flag):
                if flag:
                    s = set(items)
                else:
                    s = sorted(items)
                return list(s)
            """
        ) == ["RPR007"]

    def test_set_rebound_to_sorted_fires(self):
        assert rule_ids(
            """
            def strict(items):
                s = set(items)
                s = sorted(s)
                return list(s)
            """
        ) == ["RPR007"]

    def test_use_before_rebinding_to_a_set_fires(self):
        assert rule_ids(
            """
            def strict(items):
                out = list(s)
                s = set(items)
                return out, s
            """
        ) == ["RPR007"]

    def test_parameter_used_before_rebinding_to_a_set_fires(self):
        assert rule_ids(
            """
            def strict(s):
                out = list(s)
                s = set(s)
                return out, s
            """
        ) == ["RPR007"]

    def test_bindings_do_not_leak_across_scopes(self):
        assert (
            rule_ids(
                """
                s = set()

                def good(s):
                    return list(s)
                """
            )
            == []
        )


class TestRPR008PurePaths:
    def test_unseeded_random_fires_in_pure_package(self):
        assert rule_ids(
            """
            import random

            def bad(items):
                random.shuffle(items)
                return items
            """,
            module="repro.core.fixture",
        ) == ["RPR008"]

    def test_seeded_random_instance_is_allowed(self):
        assert (
            rule_ids(
                """
                import random

                def good(items, seed):
                    rng = random.Random(seed)
                    rng.shuffle(items)
                    return items
                """,
                module="repro.core.fixture",
            )
            == []
        )

    def test_wall_clock_fires_in_pure_package(self):
        assert rule_ids(
            """
            import time

            def bad():
                return time.monotonic()
            """,
            module="repro.topology.fixture",
        ) == ["RPR008"]

    def test_from_import_resolves_too(self):
        assert rule_ids(
            """
            from time import perf_counter

            def bad():
                return perf_counter()
            """,
            module="repro.core.fixture",
        ) == ["RPR008"]

    def test_id_keyed_sort_fires(self):
        assert rule_ids(
            """
            def bad(items):
                return sorted(items, key=id)
            """,
            module="repro.core.fixture",
        ) == ["RPR008"]

    def test_rule_is_silent_outside_the_pure_packages(self):
        assert (
            rule_ids(
                """
                import random

                def fine(items):
                    random.shuffle(items)
                    return items
                """,
                module="repro.experiments.fixture",
            )
            == []
        )
