"""The offline bench: report schema, gates, summary and `main`'s exit code.

The per-layer rows and gates are checked next to their layers, in
``tests/parallel/test_bench.py`` and ``tests/cluster/test_bench.py``.
"""

import dataclasses
import json

import pytest

import repro.bench as bench
from repro.bench import (
    ALLOCATION_LAYERS,
    LAYERS,
    SCHEMA,
    aux_gates,
    bench_million,
    bench_scale,
    failed_gates,
    main,
    render_summary,
)
from repro.cluster.trainer import TrainerSim
from repro.parallel import build_records
from repro.preprocessing.records import RecordTable


def test_bench_scale_gates_and_layers(bench_scale_entry):
    result = bench_scale_entry
    assert result["identical"] is True
    assert result["gates"] == {
        "records": True,
        "plan": True,
        "epoch": True,
        "epoch_faulted": True,
    }
    assert set(result["layers"]) == set(LAYERS)
    for row in result["layers"].values():
        assert "peak_bytes" not in row  # measured at the smallest scale only


def test_bench_scale_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bench_scale(0)
    with pytest.raises(ValueError):
        bench_scale(10, repeats=0)


def test_aux_gates_all_identical():
    assert aux_gates(num_samples=64, seed=7) == {
        "spans_identical": True,
        "timeline_identical": True,
        "sharded_identical": True,
        "multijob_identical": True,
    }


def test_run_bench_report_schema(bench_report):
    report = bench_report
    assert report["schema"] == SCHEMA
    assert report["layers"] == {layer: list(paths) for layer, paths in LAYERS.items()}
    assert report["identical"] is True
    assert failed_gates(report) == []
    assert all(report["gates"].values())
    assert "million" not in report
    json.dumps(report)  # the report must be JSON-serializable as-is


def test_allocation_rows_at_the_smallest_scale(bench_report):
    smallest, larger = bench_report["scales"]
    for layer in LAYERS:
        row = smallest["layers"][layer]
        if layer not in ALLOCATION_LAYERS:
            assert "peak_bytes" not in row
            continue
        for path in LAYERS[layer]:
            assert row["peak_bytes"][path] > 0
            assert row["live_blocks"][path] > 0
        assert "peak_bytes" not in larger["layers"][layer]


def test_summary_names_every_layer(bench_report):
    summary = render_summary(bench_report)
    for layer in LAYERS:
        assert layer in summary
    assert "live blocks" in summary
    assert "gates: all identical" in summary


def test_million_entry_scaled_down(bench_clock):
    entry = bench_million(num_samples=200, seed=7, timer=bench_clock)
    assert entry["completed"] is True
    assert entry["num_samples"] == 200
    seconds = entry["seconds"]
    assert seconds["total"] >= seconds["simulate_epoch"]
    assert entry["traffic_bytes"] > 0


def _diverging_records(pipeline, dataset, *, seed, parallel="vectorized", **kwargs):
    """build_records, with one cost of the vectorized table nudged."""
    table = build_records(pipeline, dataset, seed=seed, parallel=parallel, **kwargs)
    if parallel != "vectorized":
        return table
    rows = list(table)
    first = rows[0]
    rows[0] = dataclasses.replace(
        first, op_costs=(first.op_costs[0] + 1e-9,) + first.op_costs[1:]
    )
    return RecordTable.from_records(rows)


def _diverging_kernel(original):
    """TrainerSim.run_epoch, with the fast kernel's epoch time nudged."""

    def run_epoch(self, *args, kernel="fast", **kwargs):
        stats = original(self, *args, kernel=kernel, **kwargs)
        if kernel == "reference":
            return stats
        return dataclasses.replace(stats, epoch_time_s=stats.epoch_time_s + 1e-9)

    return run_epoch


@pytest.mark.parametrize("layer", ["records", "epoch"])
def test_main_fails_when_a_layer_diverges(layer, monkeypatch, tmp_path, capsys):
    if layer == "records":
        monkeypatch.setattr(bench, "build_records", _diverging_records)
    else:
        monkeypatch.setattr(
            TrainerSim, "run_epoch", _diverging_kernel(TrainerSim.run_epoch)
        )
    out = tmp_path / "BENCH.json"
    assert main(["--scales", "40", "--repeats", "1", "--out", str(out)]) == 1
    written = json.loads(out.read_text())
    assert written["identical"] is False
    assert f"n=40 {layer}" in failed_gates(written)
    assert "FAIL" in capsys.readouterr().out
