"""The offline bench's profiling layers: record-building and plan rows and gates."""

from repro.bench import LAYERS, SCHEMA

PROFILING_LAYERS = ("parallel.build_records", "core.plan")
PROFILING_GATES = ("records", "plan")


def test_bench_scale_shape_and_determinism_gate(bench_scale_entry):
    result = bench_scale_entry
    assert result["num_samples"] == 60
    assert all(result["gates"][gate] is True for gate in PROFILING_GATES)
    for layer in PROFILING_LAYERS:
        row = result["layers"][layer]
        assert set(row["seconds"]) == set(LAYERS[layer]) == set(row["us_per_sample"])
        assert all(value > 0 for value in row["seconds"].values())
        assert all(value > 0 for value in row["us_per_sample"].values())
    assert result["num_offloaded"] > 0


def test_run_bench_report_schema(bench_report):
    assert bench_report["schema"] == SCHEMA
    assert LAYERS["parallel.build_records"] == ("sequential", "vectorized")
    assert LAYERS["core.plan"] == ("list", "table")
    for layer in PROFILING_LAYERS:
        assert bench_report["layers"][layer] == list(LAYERS[layer])
    assert [entry["num_samples"] for entry in bench_report["scales"]] == [40, 80]
    for entry in bench_report["scales"]:
        assert all(entry["gates"][gate] is True for gate in PROFILING_GATES)
        assert entry["num_offloaded"] > 0
    sequential = bench_report["profiler_e2e"]["profile_seconds"]["sequential"]
    assert sequential > 0


def test_main_writes_report(bench_main_run):
    code, written = bench_main_run
    assert code == 0
    assert written["schema"] == SCHEMA
    assert written["identical"] is True
    (entry,) = written["scales"]
    assert all(entry["gates"][gate] is True for gate in PROFILING_GATES)
    for layer in PROFILING_LAYERS:
        assert set(entry["layers"][layer]["seconds"]) == set(LAYERS[layer])
