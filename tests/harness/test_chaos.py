"""Chaos experiment tests: every fault class survives with zero lost samples."""

import pytest

from repro.data.catalog import make_openimages
from repro.faults import FaultSchedule
from repro.harness.chaos import (
    ChaosScenario,
    default_scenarios,
    main,
    run_chaos,
)


@pytest.fixture(scope="module")
def chaos_report():
    dataset = make_openimages(num_samples=80, seed=11)
    return run_chaos(dataset, seed=3)


class TestDefaultScenarios:
    def test_covers_all_four_fault_classes(self):
        names = [s.name for s in default_scenarios(epoch_time_s=1.0)]
        assert names == [
            "storage-crash",
            "link-brownout",
            "storage-cpu-drift",
            "payload-corruption",
        ]

    def test_schedules_scale_with_epoch_time(self):
        short = default_scenarios(epoch_time_s=1.0)[0].schedule
        long = default_scenarios(epoch_time_s=10.0)[0].schedule
        assert long.crashes[0].start == pytest.approx(10 * short.crashes[0].start)

    def test_rejects_nonpositive_epoch_time(self):
        with pytest.raises(ValueError):
            default_scenarios(epoch_time_s=0.0)


class TestChaosReport:
    def test_every_scenario_survives(self, chaos_report):
        assert chaos_report.survived
        for run in chaos_report.runs:
            assert run.lost_samples == 0

    def test_crash_demotes_but_loses_nothing(self, chaos_report):
        crash = chaos_report.run_named("storage-crash")
        assert crash.demoted_samples > 0
        assert crash.lost_samples == 0
        assert crash.recovery_latency_s is not None
        assert crash.recovery_latency_s > 0
        # Demoted samples ship raw: the epoch moves more bytes, not fewer.
        assert crash.traffic_delta_bytes > 0

    def test_corruption_detected_and_resent(self, chaos_report):
        run = chaos_report.run_named("payload-corruption")
        assert run.corrupted_payloads > 0
        assert run.lost_samples == 0
        assert run.traffic_delta_bytes > 0  # resends cost wire bytes


class TestShardedChaos:
    def test_sharded_sim_survives_every_scenario(self):
        """Regression: the chaos path passes record_spans/record_timeline
        and faults through run_epoch; the pre-fix sharded sim raised
        TypeError on that call shape."""
        dataset = make_openimages(num_samples=80, seed=11)
        report = run_chaos(dataset, seed=3, shards=3, telemetry=True)
        assert report.survived
        crash = report.run_named("storage-crash")
        assert crash.demoted_samples > 0
        assert crash.stats.spans is not None
        shards = {
            e.attrs["shard"]
            for e in crash.stats.spans.events
            if "shard" in e.attrs
        }
        assert shards == {0, 1, 2}

    def test_brownout_slows_the_epoch(self, chaos_report):
        run = chaos_report.run_named("link-brownout")
        assert run.epoch_delta_s > 0
        assert run.lost_samples == 0

    def test_run_named_rejects_unknown(self, chaos_report):
        with pytest.raises(KeyError):
            chaos_report.run_named("meteor-strike")

    def test_render_mentions_every_scenario(self, chaos_report):
        text = chaos_report.render()
        for run in chaos_report.runs:
            assert run.scenario.name in text


class TestEmptySchedule:
    def test_empty_schedule_is_byte_identical_to_baseline(self):
        dataset = make_openimages(num_samples=60, seed=5)
        null_scenario = ChaosScenario(
            name="no-faults", schedule=FaultSchedule(), description="control"
        )
        report = run_chaos(dataset, seed=2, scenarios=[null_scenario])
        run = report.run_named("no-faults")
        assert run.epoch_delta_s == 0.0
        assert run.traffic_delta_bytes == 0
        assert run.demoted_samples == 0
        assert run.corrupted_payloads == 0


@pytest.mark.parametrize("value", ["0", "-2", "1.5"])
def test_shards_flag_must_be_a_positive_integer(capsys, value):
    with pytest.raises(SystemExit) as exited:
        main(["--samples", "20", "--shards", value])
    assert exited.value.code == 2
    assert "invalid shard_count value" in capsys.readouterr().err
