"""The offline bench's epoch-simulation layer: kernel rows and identity gates."""

from repro.bench import LAYERS
from repro.cluster.trainer import KERNEL_CHOICES

LAYER = "cluster.run_epoch"
EPOCH_GATES = ("epoch", "epoch_faulted")


def test_bench_scale_shape_and_identity_gate(bench_scale_entry):
    result = bench_scale_entry
    assert result["num_samples"] == 60
    assert all(result["gates"][gate] is True for gate in EPOCH_GATES)
    row = result["layers"][LAYER]
    assert set(row["seconds"]) == set(KERNEL_CHOICES) == set(row["us_per_sample"])
    assert all(value > 0 for value in row["seconds"].values())
    assert all(value > 0 for value in row["us_per_sample"].values())
    assert set(row["instrumented_us_per_sample"]) == {"fast"}
    assert row["instrumented_us_per_sample"]["fast"] > 0
    assert result["epoch_time_s"] > 0
    assert result["traffic_bytes"] > 0


def test_run_bench_report_schema(bench_report):
    assert LAYERS[LAYER] == ("reference", "fast")  # reference path first
    assert bench_report["layers"][LAYER] == list(LAYERS[LAYER])
    for entry in bench_report["scales"]:
        assert all(entry["gates"][gate] is True for gate in EPOCH_GATES)
        assert set(entry["layers"][LAYER]["seconds"]) == set(KERNEL_CHOICES)
    assert set(bench_report["gates"]) == {
        "spans_identical",
        "timeline_identical",
        "sharded_identical",
        "multijob_identical",
    }
    assert bench_report["profiler_e2e"]["identical"] is True
    assert bench_report["profiler_e2e"]["epoch_time_s"] > 0


def test_main_writes_report(bench_main_run):
    code, written = bench_main_run
    assert code == 0
    assert written["identical"] is True
    assert "million" not in written
    (entry,) = written["scales"]
    assert entry["num_samples"] == 40
    assert all(entry["gates"][gate] is True for gate in EPOCH_GATES)
    assert set(entry["layers"][LAYER]["us_per_sample"]) == set(KERNEL_CHOICES)
