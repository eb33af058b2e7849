"""A serial grid streams dataset by dataset.

Serially, each dataset is built by the first cell that needs it, so the
first cell arrives after one dataset build, not after all of them. A
build that fails surfaces at its own cell: in raise mode as
:class:`ArtifactBuildError` after the earlier cells were yielded, in
collect mode as that cell's typed failure, with a later cell of the
dataset trying the build again.
"""

import pytest

from repro.api import ExperimentSpec, Session
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.models.base import ModelConfig
from repro.platforms import ArtifactBuildError

SMALL_MODEL = ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8)


def stream_spec(**overrides) -> ExperimentSpec:
    base = dict(
        platforms=("t4", "hihgnn"),
        models=("rgcn",),
        datasets=("acm", "imdb", "dblp"),
        seed=1,
        scale=0.1,
        model_config=SMALL_MODEL,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSerialStream:
    def test_first_cell_has_built_only_its_dataset(self):
        session = Session(stream_spec())
        stream = session.run_iter()
        first = next(stream)
        assert list(session.runner._graphs) == [first.dataset]
        assert list(session.runner._artifacts) == [first.dataset]
        stream.close()

    def test_failing_build_raises_after_earlier_cells(self):
        with FaultPlan([FaultRule("workload.build", match="imdb")], seed=1):
            stream = Session(stream_spec()).run_iter()
            first = next(stream)
            assert first.key == ("t4", "rgcn", "acm")
            with pytest.raises(ArtifactBuildError) as excinfo:
                next(stream)
        assert excinfo.value.dataset == "imdb"
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_collect_mode_retries_the_build_at_a_later_cell(self):
        with FaultPlan(
            [FaultRule("workload.build", match="imdb", times=1)], seed=1
        ):
            grid = Session(stream_spec()).run(on_error="collect")
        failed = [cell.key for cell in grid.cells if not cell.ok]
        assert failed == [("t4", "rgcn", "imdb")]
        failure = grid.cell("t4", "rgcn", "imdb").failure
        assert "InjectedFault" in failure.error_type
        assert grid.cell("hihgnn", "rgcn", "imdb").ok

    def test_serial_equals_process_pool(self):
        serial = Session(stream_spec()).run()
        parallel = Session(stream_spec(), jobs=2).run()
        assert serial == parallel
