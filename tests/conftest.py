"""Shared fixtures: small datasets, pipelines, clusters, bench reports."""

import json

import numpy as np
import pytest

from repro.cluster.spec import standard_cluster
from repro.data.catalog import make_imagenet, make_openimages
from repro.data.synthetic import ImageContentConfig, SyntheticImageDataset
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


@pytest.fixture(scope="session")
def pipeline():
    return standard_pipeline()


@pytest.fixture(scope="session")
def openimages_small():
    """Calibrated OpenImages trace, small but statistically faithful."""
    return make_openimages(num_samples=600, seed=7)


@pytest.fixture(scope="session")
def imagenet_small():
    return make_imagenet(num_samples=900, seed=7)


@pytest.fixture(scope="session")
def materialized_tiny():
    """A 10-sample materialized dataset (real pixels + codec)."""
    return SyntheticImageDataset(
        num_samples=10,
        seed=5,
        content=ImageContentConfig(min_side=64, max_side=256),
        name="materialized-tiny",
    )


@pytest.fixture(scope="session")
def alexnet():
    return get_model_profile("alexnet", "rtx6000")


@pytest.fixture
def cluster():
    return standard_cluster(storage_cores=8)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def ticking_clock():
    """A deterministic injectable timer: each read advances 1ms."""
    state = {"t": 0.0}

    def timer():
        state["t"] += 0.001
        return state["t"]

    return timer


@pytest.fixture
def bench_clock():
    """A fresh :func:`ticking_clock` for one bench call."""
    return ticking_clock()


@pytest.fixture(scope="session")
def bench_scale_entry():
    """One offline-bench scale entry at 60 samples."""
    from repro.bench import bench_scale

    return bench_scale(60, repeats=1, timer=ticking_clock())


@pytest.fixture(scope="session")
def bench_report():
    """A small offline-bench report over two scales, given out of order."""
    from repro.bench import run_bench

    return run_bench(scales=[80, 40], repeats=1, timer=ticking_clock())


@pytest.fixture(scope="session")
def bench_main_run(tmp_path_factory):
    """``(exit code, written report)`` of one small ``repro.bench`` main run."""
    from repro.bench import main

    out = tmp_path_factory.mktemp("bench") / "BENCH.json"
    code = main(["--scales", "40", "--repeats", "1", "--out", str(out)])
    return code, json.loads(out.read_text())
