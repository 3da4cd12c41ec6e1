"""Multi-epoch training run tests: profile on epoch 0, plan, train."""

import pytest

from repro.baselines import NoOff
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.core.sophon import Sophon
from repro.harness.adaptive import AdaptiveTrainingRun
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


def training_run(dataset, policy, spec, **kwargs):
    return AdaptiveTrainingRun(dataset, spec, policy=policy, **kwargs)


@pytest.fixture(scope="module")
def runs(openimages_small):
    spec = standard_cluster(storage_cores=48)
    sophon = training_run(
        openimages_small, Sophon(), spec, batch_size=64, seed=0
    ).run(epochs=5)
    baseline = training_run(
        openimages_small, NoOff(), spec, batch_size=64, seed=0
    ).run(epochs=5)
    return sophon, baseline


def reference_run(dataset, policy, spec, epochs, batch_size):
    """The fixed-spec loop spelled out: a No-Off epoch, then the plan."""
    model = get_model_profile("alexnet")
    context = PolicyContext(
        dataset=dataset, pipeline=standard_pipeline(), spec=spec, model=model,
        batch_size=batch_size,
    )
    trainer = TrainerSim(
        dataset=dataset, pipeline=context.pipeline, model=model, spec=spec,
        batch_size=batch_size,
    )
    per_epoch = [trainer.run_epoch(splits=None, epoch=0)]
    plan = policy.plan(context).clamped_for(spec)
    for epoch in range(1, epochs):
        per_epoch.append(trainer.run_epoch(list(plan.splits), epoch=epoch))
    return plan, per_epoch


class TestTrainingRun:
    def test_first_epoch_is_unoffloaded(self, runs):
        sophon, baseline = runs
        assert sophon.epochs[0].stats.offloaded_samples == 0
        # Profiling epoch costs exactly a No-Off epoch: no extra pass.
        assert sophon.profile_epoch_time_s == pytest.approx(
            baseline.profile_epoch_time_s
        )

    def test_plan_applies_from_epoch_one(self, runs):
        sophon, _ = runs
        plan = sophon.epochs[1].plan
        for entry in sophon.epochs[1:]:
            assert entry.plan is plan
            assert entry.stats.offloaded_samples == plan.num_offloaded
        assert plan.num_offloaded > 0

    def test_steady_state_faster_than_profiling_epoch(self, runs):
        sophon, _ = runs
        assert sophon.steady_epoch_time_s < sophon.profile_epoch_time_s / 1.8

    def test_job_level_speedup_grows_with_epochs(self, openimages_small):
        spec = standard_cluster(storage_cores=48)

        def run(policy, epochs):
            return training_run(openimages_small, policy, spec, batch_size=64).run(
                epochs
            )

        short, long = run(Sophon(), 2), run(Sophon(), 8)
        short_base, long_base = run(NoOff(), 2), run(NoOff(), 8)
        assert long.speedup_over(long_base) > short.speedup_over(short_base)

    def test_totals_are_sums(self, runs):
        sophon, _ = runs
        assert sophon.total_time_s == pytest.approx(sum(sophon.epoch_times()))
        assert sophon.epoch_times() == [e.stats.epoch_time_s for e in sophon.epochs]

    def test_speedup_requires_equal_epochs(self, runs, openimages_small):
        sophon, _ = runs
        other = training_run(
            openimages_small, NoOff(), standard_cluster(), batch_size=64
        ).run(2)
        with pytest.raises(ValueError):
            sophon.speedup_over(other)

    def test_requires_two_epochs(self, openimages_small):
        run = training_run(openimages_small, Sophon(), standard_cluster())
        with pytest.raises(ValueError):
            run.run(epochs=1)

    @pytest.mark.parametrize("storage_cores", [48, 0])
    @pytest.mark.parametrize("policy_class", [Sophon, NoOff])
    def test_fixed_spec_run_is_the_reference_loop(
        self, openimages_small, policy_class, storage_cores
    ):
        spec = standard_cluster(storage_cores=storage_cores)
        plan, per_epoch = reference_run(
            openimages_small, policy_class(), spec, epochs=4, batch_size=64
        )
        result = training_run(
            openimages_small, policy_class(), spec, batch_size=64
        ).run(epochs=4)
        assert [e.stats for e in result.epochs] == per_epoch
        assert result.epochs[1].plan == plan
        assert [e.replanned for e in result.epochs] == [False, True, False, False]

    def test_default_policy_is_the_decision_engine(self, openimages_small):
        spec = standard_cluster(storage_cores=4)
        result = AdaptiveTrainingRun(openimages_small, spec, batch_size=64).run(2)
        context = PolicyContext(
            dataset=openimages_small, pipeline=standard_pipeline(), spec=spec,
            model=get_model_profile("alexnet"), batch_size=64,
        )
        expected = DecisionEngine(DecisionConfig()).plan(
            context.records(), spec, gpu_time_s=context.epoch_gpu_time_s
        )
        assert result.epochs[1].plan == expected


class TestTrainingRunTelemetry:
    def test_every_epoch_instrumented(self, openimages_small):
        result = training_run(
            openimages_small, Sophon(), standard_cluster(storage_cores=48),
            batch_size=64, seed=0,
        ).run(epochs=3, record_spans=True, record_timeline=True)
        pairs = result.instrumented_epochs()
        assert [epoch for epoch, _ in pairs] == [0, 1, 2]
        for epoch, stats in pairs:
            assert stats.spans is not None
            assert stats.timeline is not None
            assert any(
                e.trace_id.endswith(f"-e{epoch}") for e in stats.spans.events
            )

    def test_telemetry_is_byte_identical(self, runs, openimages_small):
        sophon, _ = runs
        traced = training_run(
            openimages_small, Sophon(), standard_cluster(storage_cores=48),
            batch_size=64, seed=0,
        ).run(epochs=5, record_spans=True, record_timeline=True)
        assert traced.epoch_times() == sophon.epoch_times()
        assert [e.stats.traffic_bytes for e in traced.epochs] == [
            e.stats.traffic_bytes for e in sophon.epochs
        ]
