"""Shared-link multi-job simulation tests."""

import pytest

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import KERNEL_CHOICES, TrainerSim
from repro.core.profiler import StageTwoProfiler
from repro.data.catalog import make_openimages
from repro.workloads.models import get_model_profile


def make_shared_job(name, dataset, pipeline, splits=None):
    return SharedJob(
        name=name,
        dataset=dataset,
        pipeline=pipeline,
        model=get_model_profile("alexnet"),
        splits=splits,
        batch_size=64,
    )


@pytest.fixture(scope="module")
def small_dataset():
    return make_openimages(num_samples=200, seed=5)


class TestSharedLinkSim:
    def test_single_job_matches_trainer_sim(self, small_dataset, pipeline):
        spec = standard_cluster(storage_cores=8)
        shared = SharedLinkSim(spec).run_epoch(
            [make_shared_job("solo", small_dataset, pipeline)]
        )
        solo = TrainerSim(
            small_dataset, pipeline, get_model_profile("alexnet"), spec, batch_size=64
        ).run_epoch(None, epoch=0)
        assert shared.epoch_time("solo") == pytest.approx(solo.epoch_time_s, rel=1e-9)
        assert shared.results["solo"].traffic_bytes == solo.traffic_bytes

    def test_contention_slows_everyone(self, small_dataset, pipeline):
        spec = standard_cluster(storage_cores=8)
        sim = SharedLinkSim(spec)
        one = sim.run_epoch([make_shared_job("a", small_dataset, pipeline)])
        four = sim.run_epoch(
            [
                make_shared_job(f"job{i}", small_dataset, pipeline)
                for i in range(4)
            ]
        )
        # Four I/O-bound jobs on one link: everyone's epoch stretches ~4x.
        assert four.mean_epoch_time_s == pytest.approx(
            4 * one.mean_epoch_time_s, rel=0.15
        )

    def test_total_traffic_is_sum_of_jobs(self, small_dataset, pipeline):
        spec = standard_cluster(storage_cores=8)
        stats = SharedLinkSim(spec).run_epoch(
            [make_shared_job(f"j{i}", small_dataset, pipeline) for i in range(3)]
        )
        assert stats.total_traffic_bytes == sum(
            r.traffic_bytes for r in stats.results.values()
        )
        assert stats.link_utilization > 0.9  # I/O-bound: link saturated

    def test_offloading_jobs_raise_cluster_throughput(self, small_dataset, pipeline):
        spec = standard_cluster(storage_cores=16)
        records = StageTwoProfiler().profile(small_dataset, pipeline)
        splits = [r.min_stage for r in records]
        sim = SharedLinkSim(spec)
        plain = sim.run_epoch(
            [make_shared_job(f"j{i}", small_dataset, pipeline) for i in range(4)]
        )
        offloaded = sim.run_epoch(
            [
                make_shared_job(f"j{i}", small_dataset, pipeline, splits=splits)
                for i in range(4)
            ]
        )
        assert offloaded.makespan_s < plain.makespan_s / 1.5
        assert offloaded.total_traffic_bytes < plain.total_traffic_bytes / 1.8

    def test_duplicate_names_rejected(self, small_dataset, pipeline):
        sim = SharedLinkSim(standard_cluster())
        job = make_shared_job("dup", small_dataset, pipeline)
        with pytest.raises(ValueError):
            sim.run_epoch([job, job])

    @pytest.mark.parametrize("kernel", KERNEL_CHOICES)
    @pytest.mark.parametrize("entries", [30, 50])
    def test_wrong_length_plan_rejected(self, pipeline, kernel, entries):
        # A plan must cover its job's dataset exactly, as on TrainerSim:
        # a longer one must not run, a shorter one must not die in numpy.
        job = make_shared_job(
            "j", make_openimages(num_samples=40, seed=5), pipeline, splits=[1] * entries
        )
        sim = SharedLinkSim(standard_cluster(storage_cores=8))
        with pytest.raises(ValueError, match=f"splits has {entries} entries, dataset has 40"):
            sim.run_epoch([job], kernel=kernel)

    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError):
            SharedLinkSim(standard_cluster()).run_epoch([])

    def test_heterogeneous_jobs_finish_at_different_times(
        self, small_dataset, pipeline
    ):
        big = make_openimages(num_samples=400, seed=6)
        sim = SharedLinkSim(standard_cluster(storage_cores=8))
        stats = sim.run_epoch(
            [
                make_shared_job("small", small_dataset, pipeline),
                make_shared_job("big", big, pipeline),
            ]
        )
        assert stats.epoch_time("big") > stats.epoch_time("small")
        assert stats.makespan_s == pytest.approx(stats.epoch_time("big"))


class TestSharedLinkTelemetry:
    def two_jobs(self, small_dataset, pipeline):
        return [
            make_shared_job("alpha", small_dataset, pipeline),
            make_shared_job("beta", small_dataset, pipeline),
        ]

    def test_byte_identity_with_tracing(self, small_dataset, pipeline):
        sim = SharedLinkSim(standard_cluster(storage_cores=8))
        plain = sim.run_epoch(self.two_jobs(small_dataset, pipeline))
        traced = sim.run_epoch(
            self.two_jobs(small_dataset, pipeline),
            record_spans=True, record_timeline=True,
        )
        assert traced.makespan_s == plain.makespan_s
        assert traced.total_traffic_bytes == plain.total_traffic_bytes
        for name in ("alpha", "beta"):
            assert traced.epoch_time(name) == plain.epoch_time(name)
            assert (
                traced.results[name].traffic_bytes
                == plain.results[name].traffic_bytes
            )

    def test_spans_carry_tenant_labels(self, small_dataset, pipeline):
        sim = SharedLinkSim(standard_cluster(storage_cores=8))
        stats = sim.run_epoch(
            self.two_jobs(small_dataset, pipeline), epoch=3, record_spans=True
        )
        assert stats.spans is not None
        jobs = {
            e.attrs["job"] for e in stats.spans.events
            if e.phase == "B" and e.name == "sample.fetch"
        }
        assert jobs == {"alpha", "beta"}
        # Same trace ids as the single-node path, disambiguated by the
        # job attr rather than a mangled id.
        fetch = next(
            e for e in stats.spans.events if e.name == "sample.fetch"
        )
        assert fetch.trace_id.endswith("-e3")

    def test_per_job_timelines(self, small_dataset, pipeline):
        sim = SharedLinkSim(standard_cluster(storage_cores=8))
        stats = sim.run_epoch(
            self.two_jobs(small_dataset, pipeline), record_timeline=True
        )
        assert stats.timelines is not None
        assert set(stats.timelines) == {"alpha", "beta"}
        for name, timeline in stats.timelines.items():
            timeline.validate()
            assert timeline.epoch_end == pytest.approx(stats.epoch_time(name))

    def test_per_job_adjustments_accepted(self, small_dataset, pipeline):
        from repro.cluster.trainer import WorkAdjustment

        spec = standard_cluster(storage_cores=8)
        sim = SharedLinkSim(spec)
        plain = sim.run_epoch([make_shared_job("a", small_dataset, pipeline)])
        slowed = sim.run_epoch(
            [
                SharedJob(
                    name="a",
                    dataset=small_dataset,
                    pipeline=pipeline,
                    model=get_model_profile("alexnet"),
                    batch_size=64,
                    adjustments={
                        sid: WorkAdjustment(extra_compute_cpu_s=0.005)
                        for sid in small_dataset.sample_ids()
                    },
                )
            ]
        )
        assert slowed.epoch_time("a") > plain.epoch_time("a")
