"""CLI smoke tests (small sample counts keep them fast)."""

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "sophon" in out

    def test_fig1a(self, capsys):
        assert main(["--samples", "100", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "Sample A" in out and "Sample B" in out

    def test_fig1b(self, capsys):
        assert main(["--samples", "150", "fig1b"]) == 0
        out = capsys.readouterr().out
        assert "openimages-12g" in out and "imagenet-11g" in out

    def test_fig1c(self, capsys):
        assert main(["--samples", "150", "fig1c"]) == 0
        assert "EfficiencySummary" in capsys.readouterr().out

    def test_fig1d(self, capsys):
        assert main(["--samples", "200", "fig1d"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "alexnet" in out

    def test_fig3(self, capsys):
        assert main(["--samples", "200", "fig3", "--dataset", "imagenet"]) == 0
        assert "sophon" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["--samples", "150", "fig4", "--cores", "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "storage-core sweep" in out
        assert "marginal gain" in out

    def test_table1_shows_both_matrices(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cedar" in out  # published systems table
        assert "resize-off" in out  # implemented policies table

    def test_sweep(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        assert main([
            "--samples", "150", "sweep",
            "--cores", "1", "8", "--csv", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "storage_cores" in out
        assert path.read_text().startswith("storage_cores")

    def test_frontier_emits_table_and_json_in_one_invocation(self, capsys, tmp_path):
        path = tmp_path / "frontier.json"
        assert main([
            "--samples", "12", "frontier",
            "--bandwidth", "40", "--floors", "40", "30",
            "--json", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "traffic-vs-fidelity frontier" in out
        assert "Floor" in out and "WorstPSNR" in out
        import json
        report = json.loads(path.read_text())
        assert report["kind"] == "fidelity-frontier"
        # The fidelity-free anchor plus one point per requested floor.
        assert [p["min_psnr_db"] for p in report["points"]] == [None, 40.0, 30.0]
        traffic = [p["traffic_bytes"] for p in report["points"]]
        assert traffic[0] >= traffic[1] >= traffic[2]

    def test_frontier_without_json_path_prints_json(self, capsys):
        assert main(["--samples", "8", "frontier", "--bandwidth", "40"]) == 0
        out = capsys.readouterr().out
        assert '"kind": "fidelity-frontier"' in out

    def test_sweep_requires_an_axis(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["--samples", "50", "sweep"])

    def test_fig3_csv_export(self, capsys, tmp_path):
        path = tmp_path / "fig3.csv"
        assert main(["--samples", "150", "fig3", "--csv", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("dataset,policy")
        assert "sophon" in text

    def test_plan_save_round_trip(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        assert main(["--samples", "150", "plan", "--save", str(path)]) == 0
        out = capsys.readouterr().out
        assert "split histogram" in out

        splits = json.loads(path.read_text())["splits"]
        assert len(splits) == 150
        assert any(splits)

    def test_stalls(self, capsys):
        assert main(["--samples", "150", "stalls"]) == 0
        out = capsys.readouterr().out
        assert "no-off" in out and "sophon" in out

    def test_ext_llm(self, capsys):
        assert main(["--samples", "500", "ext-llm"]) == 0
        out = capsys.readouterr().out
        assert "offloadable documents: 0%" in out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["--samples", "10", "fig3", "--dataset", "mnist"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fig1d", "frontier", "all"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    def test_bandwidth_must_be_finite_and_positive(self, capsys, command, value):
        with pytest.raises(SystemExit) as exited:
            main(["--samples", "8", command, "--bandwidth", value])
        assert exited.value.code == 2
        assert "invalid mbps value" in capsys.readouterr().err


class TestClusterTelemetryCli:
    def test_audit_with_shards(self, capsys):
        """Regression: audit calls run_epoch(..., record_spans=True) on the
        sharded sim; the narrowed pre-fix signature raised TypeError."""
        assert main(["--samples", "100", "audit", "5", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "simulated spans for sample 5" in out
        assert "shard=" in out

    @pytest.mark.parametrize("command", [["audit", "3"], ["adaptive"]])
    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "two"])
    def test_shards_must_be_a_positive_integer(self, capsys, command, value):
        with pytest.raises(SystemExit) as exited:
            main(["--samples", "50", *command, "--shards", value])
        assert exited.value.code == 2
        assert "invalid shard_count value" in capsys.readouterr().err

    def test_adaptive_plain(self, capsys):
        assert main(["--samples", "100", "adaptive", "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "adaptive run: 3 epochs" in out
        assert "Replanned" in out

    def test_adaptive_sharded_telemetry_and_replay(self, capsys, tmp_path):
        assert main([
            "--samples", "100", "adaptive",
            "--epochs", "3", "--shards", "2", "--job-name", "tenant-a",
            "--telemetry-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        trace = tmp_path / "tenant-a.trace.json"
        log = tmp_path / "tenant-a.telemetry.jsonl"
        assert trace.exists() and log.exists()

        import json

        names = {
            e["args"]["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
            if e["name"] == "process_name"
        }
        for epoch in range(3):
            assert f"tenant-a epoch {epoch} (virtual time)" in names
        assert "shards (virtual time)" in names
        assert "tenants (virtual time)" in names

        assert main(["replay", str(log)]) == 0
        out = capsys.readouterr().out
        assert "per-epoch:" in out
        assert "per-shard:" in out
        assert "per-tenant:" in out
        assert "shard 0" in out and "shard 1" in out
        assert "job tenant-a" in out

    def test_replay_without_cluster_labels_stays_plain(self, capsys, tmp_path):
        assert main([
            "--samples", "100", "fig1d", "--telemetry-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "fig1d.telemetry.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "per-shard:" not in out
        assert "per-tenant:" not in out
