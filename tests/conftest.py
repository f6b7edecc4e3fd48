import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


class Executors:
    """Counts Ray Data streaming executors (one per plan run) started while
    the `executors` fixture is live."""

    def __init__(self):
        self.started = 0

    def fetch(self, ds):
        """The blocks of `ds`, asserting it is computed: the fetch runs no
        plan."""
        import ray

        before = self.started
        tables = ray.get(ds.to_arrow_refs())
        assert self.started == before, "fetching the result started an executor"
        return tables


@pytest.fixture
def executors(monkeypatch):
    from ray.data._internal.plan import ExecutionPlan

    count = Executors()
    create = ExecutionPlan.create_executor

    def counting(self, *args, **kwargs):
        count.started += 1
        return create(self, *args, **kwargs)

    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    return count
