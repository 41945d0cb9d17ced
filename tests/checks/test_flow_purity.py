"""RPR009 — functions shipped to pool workers must stay pure."""

import textwrap

from repro.checks import lint_source


def rule_ids(code, module="repro.experiments.fixture"):
    return [
        f.rule_id
        for f in lint_source(
            textwrap.dedent(code), path="fixture.py", module=module
        )
    ]


class TestUnpicklableCallables:
    def test_lambda_shipped_to_parallel_map_fires(self):
        assert rule_ids(
            """
            from repro.parallel import parallel_map

            def run(items):
                return parallel_map(lambda x: x + 1, items)
            """
        ) == ["RPR009"]

    def test_nested_function_shipped_fires(self):
        assert rule_ids(
            """
            from repro.parallel import parallel_map

            def run(items, offset):
                def shifted(x):
                    return x + offset
                return parallel_map(shifted, items)
            """
        ) == ["RPR009"]

    def test_module_level_function_is_fine(self):
        assert (
            rule_ids(
                """
                from repro.parallel import parallel_map

                def worker(x):
                    return x + 1

                def run(items):
                    return parallel_map(worker, items)
                """
            )
            == []
        )


class TestWorkerBodyImpurity:
    def test_global_mutation_in_shipped_function_fires(self):
        assert rule_ids(
            """
            from repro.parallel import parallel_map

            COUNTER = 0

            def worker(x):
                global COUNTER
                COUNTER += 1
                return x

            def run(items):
                return parallel_map(worker, items)
            """
        ) == ["RPR009"]

    def test_ambient_worker_config_read_fires(self):
        assert rule_ids(
            """
            from repro.parallel import parallel_map
            from repro.parallel.pool import resolve_workers

            def worker(x):
                return x * resolve_workers(None)

            def run(items):
                return parallel_map(worker, items)
            """
        ) == ["RPR009"]

    def test_workers_env_constant_read_fires(self):
        assert rule_ids(
            """
            import os

            from repro.parallel import parallel_map

            def worker(x):
                return x if os.environ.get("REPRO_WORKERS") else -x

            def run(items):
                return parallel_map(worker, items)
            """
        ) == ["RPR009"]

    def test_reading_globals_without_writing_is_fine(self):
        assert (
            rule_ids(
                """
                from repro.parallel import parallel_map

                SCALE = 3

                def worker(x):
                    return x * SCALE

                def run(items):
                    return parallel_map(worker, items)
                """
            )
            == []
        )


class TestExecutorMethods:
    def test_pool_submit_of_lambda_fires(self):
        assert rule_ids(
            """
            def run(pool, items):
                return [pool.submit(lambda x: x, i) for i in items]
            """
        ) == ["RPR009"]

    def test_executor_map_of_nested_function_fires(self):
        assert rule_ids(
            """
            def run(executor, items):
                def inner(x):
                    return x
                return executor.map(inner, items)
            """
        ) == ["RPR009"]

    def test_unrelated_submit_receivers_are_ignored(self):
        assert (
            rule_ids(
                """
                def run(form, items):
                    return form.submit(lambda x: x, items)
                """
            )
            == []
        )

    def test_imported_workers_are_left_alone(self):
        # Intraprocedural: a name imported from elsewhere cannot be
        # inspected, so the rule stays quiet rather than guessing.
        assert (
            rule_ids(
                """
                from repro.parallel import parallel_map
                from repro.models.solvers import solve_one

                def run(items):
                    return parallel_map(solve_one, items)
                """
            )
            == []
        )


class TestSupervisedShipping:
    """supervised_map ships two callables: the fn and ``fallback=``."""

    def test_lambda_shipped_to_supervised_map_fires(self):
        assert rule_ids(
            """
            from repro.parallel import supervised_map

            def run(items):
                return supervised_map(lambda x: x + 1, items)
            """
        ) == ["RPR009"]

    def test_lambda_fallback_fires(self):
        # Seeded mutant for the keyword-shipping extension: a lambda
        # fallback only runs on a failing task's *final* attempt, the
        # worst moment to hit an opaque PicklingError.
        assert rule_ids(
            """
            from repro.parallel import supervised_map

            def worker(x):
                return x + 1

            def run(items):
                return supervised_map(
                    worker, items, fallback=lambda x: 0
                )
            """
        ) == ["RPR009"]

    def test_nested_fallback_fires(self):
        assert rule_ids(
            """
            from repro.parallel import supervised_map

            def worker(x):
                return x + 1

            def run(items, default):
                def rescue(x):
                    return default
                return supervised_map(
                    worker, items, fallback=rescue
                )
            """
        ) == ["RPR009"]

    def test_impure_fallback_body_fires(self):
        assert rule_ids(
            """
            from repro.parallel import supervised_map

            FAILURES = 0

            def worker(x):
                return x + 1

            def rescue(x):
                global FAILURES
                FAILURES += 1
                return 0

            def run(items):
                return supervised_map(
                    worker, items, fallback=rescue
                )
            """
        ) == ["RPR009"]

    def test_both_callables_impure_fires_twice(self):
        assert rule_ids(
            """
            from repro.parallel import supervised_map

            def run(items):
                def inner(x):
                    return x
                return supervised_map(
                    inner, items, fallback=lambda x: 0
                )
            """
        ) == ["RPR009", "RPR009"]

    def test_pure_module_level_pair_is_fine(self):
        assert (
            rule_ids(
                """
                from repro.parallel import supervised_map

                def worker(x):
                    return x + 1

                def rescue(x):
                    return 0

                def run(items):
                    return supervised_map(
                        worker, items, fallback=rescue
                    )
                """
            )
            == []
        )

    def test_unrelated_keywords_are_not_shipped(self):
        # Only ``fallback`` is pickled into payloads; ``stop_when``
        # runs in the parent and may close over local state freely.
        assert (
            rule_ids(
                """
                from repro.parallel import supervised_map

                def worker(x):
                    return x + 1

                def run(items, target):
                    return supervised_map(
                        worker, items, stop_when=lambda r: r == target
                    )
                """
            )
            == []
        )
