"""ClusterSpec tests."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.data.trace import TraceDataset
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

COUNT_FIELDS = (
    "compute_cores",
    "storage_cores",
    "prefetch_batches",
    "response_overhead_bytes",
    "link_chunk_bytes",
)
FLOAT_FIELDS = (
    "bandwidth_mbps",
    "network_rtt_s",
    "compute_cpu_factor",
    "storage_cpu_factor",
)
NON_FINITE = (math.nan, math.inf, -math.inf)


class TestClusterSpec:
    def test_standard_matches_paper_setup(self):
        spec = standard_cluster()
        assert spec.compute_cores == 48
        assert spec.storage_cores == 48
        assert spec.bandwidth_mbps == 500.0

    def test_bandwidth_conversion(self):
        spec = standard_cluster(bandwidth_mbps=500.0)
        assert spec.bandwidth_bytes_per_s == pytest.approx(62.5e6)

    def test_zero_storage_cores_disables_offloading(self):
        spec = standard_cluster(storage_cores=0)
        assert not spec.can_offload

    def test_with_storage_cores_is_nondestructive(self):
        base = standard_cluster(storage_cores=48)
        varied = base.with_storage_cores(2)
        assert varied.storage_cores == 2
        assert base.storage_cores == 48
        assert varied.bandwidth_mbps == base.bandwidth_mbps

    def test_with_bandwidth(self):
        assert standard_cluster().with_bandwidth(1000.0).bandwidth_mbps == 1000.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compute_cores": 0},
            {"storage_cores": -1},
            {"bandwidth_mbps": 0.0},
            {"network_rtt_s": -0.1},
            {"compute_cpu_factor": 0.0},
            {"storage_cpu_factor": -1.0},
            {"prefetch_batches": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterSpec(**kwargs)

    def test_frozen(self):
        with pytest.raises(Exception):
            standard_cluster().storage_cores = 3

    @pytest.mark.parametrize("field", COUNT_FIELDS + FLOAT_FIELDS)
    @pytest.mark.parametrize("value", NON_FINITE + (True, False))
    def test_rejects_non_finite_and_bool(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(standard_cluster(), **{field: value})

    @pytest.mark.parametrize("field", COUNT_FIELDS)
    def test_counts_must_be_integers(self, field):
        with pytest.raises(ValueError, match="integer"):
            dataclasses.replace(standard_cluster(), **{field: 4096.5})

    def test_standard_cluster_rejects_what_the_simulator_cannot_run(self):
        for kwargs in ({"bandwidth_mbps": math.nan}, {"bandwidth_mbps": math.inf},
                       {"storage_cores": 1.5}):
            with pytest.raises(ValueError):
                standard_cluster(**kwargs)


def _finite_floats(value) -> bool:
    """Every float reachable in ``value`` (dataclass, dict, list) is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if dataclasses.is_dataclass(value):
        return all(_finite_floats(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(_finite_floats(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_floats(v) for v in value)
    return True


def _field_values(field: str):
    """NaN, +-inf and bools, plus in-range values for ``field``."""
    if field in COUNT_FIELDS:
        low = 4096 if field == "link_chunk_bytes" else 1
        valid = st.integers(low, low + 64)
    else:
        valid = st.floats(1e-3, 4.0)
    return st.one_of(st.sampled_from(NON_FINITE), st.booleans(), valid)


@st.composite
def spec_edits(draw):
    field = draw(st.sampled_from(COUNT_FIELDS + FLOAT_FIELDS))
    return field, draw(_field_values(field))


class TestFiniteInFiniteOut:
    """A spec either refuses a field value or simulates to finite stats."""

    DATASET = TraceDataset([120_000] * 12, [500] * 12, [400] * 12, name="finite")

    @given(edit=spec_edits())
    @settings(max_examples=60, deadline=None)
    def test_raises_or_simulates_finitely(self, edit):
        field, value = edit
        base = dataclasses.replace(standard_cluster(storage_cores=4), prefetch_batches=2)
        try:
            spec = dataclasses.replace(base, **{field: value})
        except ValueError:
            return
        trainer = TrainerSim(
            self.DATASET, standard_pipeline(), get_model_profile("alexnet"), spec, batch_size=4
        )
        for kernel in ("fast", "reference"):
            stats = trainer.run_epoch([2] * len(self.DATASET), kernel=kernel)
            assert _finite_floats(stats), (field, value, kernel, stats)
            for share in (stats.gpu_utilization, stats.compute_cpu_utilization,
                          stats.storage_cpu_utilization, stats.link_utilization):
                assert 0.0 <= share <= 1.0 + 1e-9

