"""Size-listing trace dataset tests."""

import pytest


class TestSizeListing:
    def test_from_iterable(self):
        from repro.data.fileio import trace_from_size_listing

        dataset = trace_from_size_listing([100_000, 300_000, 50_000], name="mine")
        assert len(dataset) == 3
        assert dataset.name == "mine"
        assert dataset.raw_meta(1).nbytes == 300_000
        assert dataset.raw_meta(0).height >= 64

    def test_from_file_with_comments(self, tmp_path):
        from repro.data.fileio import trace_from_size_listing

        path = tmp_path / "sizes.txt"
        path.write_text("# my dataset\n120000\n\n340000  # big one\n90000\n")
        dataset = trace_from_size_listing(str(path))
        assert list(dataset.raw_sizes) == [120_000, 340_000, 90_000]

    def test_dims_deterministic_in_seed(self):
        from repro.data.fileio import trace_from_size_listing

        a = trace_from_size_listing([200_000] * 5, seed=1)
        b = trace_from_size_listing([200_000] * 5, seed=1)
        assert a.raw_meta(2) == b.raw_meta(2)

    def test_sophon_runs_on_listing_dataset(self, pipeline):
        from repro.cluster.spec import standard_cluster
        from repro.core.policy import PolicyContext
        from repro.core.sophon import Sophon
        from repro.data.fileio import trace_from_size_listing
        from repro.workloads.models import get_model_profile

        dataset = trace_from_size_listing(
            [400_000, 50_000, 280_000, 90_000] * 10, name="listing"
        )
        context = PolicyContext(
            dataset=dataset,
            pipeline=pipeline,
            spec=standard_cluster(storage_cores=8),
            model=get_model_profile("alexnet"),
            batch_size=8,
            seed=0,
        )
        plan = Sophon().plan(context)
        # The 400k/280k samples shrink, the 50k/90k do not.
        assert plan.num_offloaded == 20

    def test_validation(self, tmp_path):
        from repro.data.fileio import trace_from_size_listing

        with pytest.raises(ValueError):
            trace_from_size_listing([])
        with pytest.raises(ValueError):
            trace_from_size_listing([100, 0])
        bad = tmp_path / "bad.txt"
        bad.write_text("12\nnot-a-number\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            trace_from_size_listing(str(bad))
