"""Window decode in ``Pipeline.run`` against the op-at-a-time oracle.

When a run range holds Decode followed by RandomResizedCrop, ``run``
decodes only the crop's window.  Payloads, stage traces and profiled
records must equal running every op on its own (full decode, then crop),
kept in :func:`tests.preprocessing.oracles.run_unfused`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import CodecConfig, ProgressiveCodecConfig, ProgressiveJpegCodec, ToyJpegCodec
from repro.core.profiler import StageTwoProfiler
from repro.data.synthetic import ImageContentConfig, SyntheticImageDataset
from repro.parallel import build_records
from repro.preprocessing.extra_ops import augmented_training_pipeline
from repro.preprocessing.payload import Payload, PayloadKind
from repro.preprocessing.pipeline import PipelineRun, standard_pipeline
from repro.preprocessing.records import RecordTable, SampleRecord
from tests.preprocessing.oracles import run_unfused

PIPELINES = {"standard": standard_pipeline, "augmented": augmented_training_pipeline}


def assert_same_run(got: PipelineRun, want: PipelineRun) -> None:
    assert got.stages == want.stages
    assert got.out_meta == want.out_meta
    assert got.payload.kind is want.payload.kind
    if got.payload.kind is PayloadKind.ENCODED:
        assert got.payload.data == want.payload.data
    else:
        assert got.payload.data.dtype == want.payload.data.dtype
        assert got.payload.data.shape == want.payload.data.shape
        assert got.payload.data.tobytes() == want.payload.data.tobytes()


@st.composite
def encoded_samples(draw):
    """A raw payload from either codec: colour or grayscale, any quality."""
    height = draw(st.integers(1, 72))
    width = draw(st.integers(1, 72))
    grayscale = draw(st.booleans())
    base = CodecConfig(quality=draw(st.integers(1, 100)), subsample=draw(st.booleans()))
    codec = draw(
        st.sampled_from(
            [ToyJpegCodec(base), ProgressiveJpegCodec(ProgressiveCodecConfig(base=base))]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    if grayscale:
        image = image[..., 0].copy()
    return codec, Payload.encoded(codec.encode(image), height=height, width=width)


class TestRunMatchesUnfused:
    @given(
        sample=encoded_samples(),
        name=st.sampled_from(sorted(PIPELINES)),
        crop_size=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        epoch=st.integers(0, 5),
        sample_id=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_split(self, sample, name, crop_size, seed, epoch, sample_id):
        codec, raw = sample
        pipeline = PIPELINES[name](crop_size=crop_size, codec=codec)
        ids = dict(seed=seed, epoch=epoch, sample_id=sample_id)
        for split in range(len(pipeline) + 1):
            # Storage side: ops [0, split); compute side: ops [split, n).
            prefix = pipeline.run(raw, stop=split, **ids)
            assert_same_run(prefix, run_unfused(pipeline, raw, stop=split, **ids))
            suffix = pipeline.run(prefix.payload, start=split, **ids)
            assert_same_run(suffix, run_unfused(pipeline, prefix.payload, start=split, **ids))
        assert_same_run(pipeline.run(raw, **ids), run_unfused(pipeline, raw, **ids))

    def test_decode_trace_keeps_the_full_image_meta(self, rng):
        image = rng.integers(0, 256, size=(50, 70, 3), dtype=np.uint8)
        raw = Payload.encoded(ToyJpegCodec().encode(image), height=50, width=70)
        run = standard_pipeline(crop_size=16).run(raw, seed=1, epoch=0, sample_id=2, stop=2)
        decode, crop = run.stages
        assert (decode.out_meta.height, decode.out_meta.width) == (50, 70)
        assert crop.params["crop_h"] * crop.params["crop_w"] < 50 * 70
        assert run.payload.data.shape == (16, 16, 3)


def profile_unfused(pipeline, dataset, seed, epoch):
    rows = []
    for sample_id in dataset.sample_ids():
        payload = dataset.raw_payload(sample_id)
        run = run_unfused(pipeline, payload, seed=seed, epoch=epoch, sample_id=sample_id)
        rows.append(
            SampleRecord(
                sample_id=sample_id,
                stage_sizes=(payload.nbytes,) + tuple(s.out_meta.nbytes for s in run.stages),
                op_costs=tuple(s.cost_s for s in run.stages),
            )
        )
    return RecordTable.from_records(rows)


class TestRealProfilingMatchesRecords:
    @given(
        name=st.sampled_from(sorted(PIPELINES)),
        data_seed=st.integers(0, 2**10),
        seed=st.integers(0, 2**16),
        epoch=st.integers(0, 3),
    )
    @settings(max_examples=8, deadline=None)
    def test_real_execution_equals_records(self, name, data_seed, seed, epoch):
        dataset = SyntheticImageDataset(
            num_samples=4,
            seed=data_seed,
            content=ImageContentConfig(min_side=8, max_side=72),
            name="fused-profile",
        )
        pipeline = PIPELINES[name](crop_size=24)
        real = StageTwoProfiler(use_real_execution=True).profile(
            dataset, pipeline, seed=seed, epoch=epoch
        )
        assert real == profile_unfused(pipeline, dataset, seed, epoch)
        simulated = build_records(pipeline, dataset, seed=seed, epoch=epoch)
        assert [r.stage_sizes for r in real] == [r.stage_sizes for r in simulated]
        assert [r.op_costs for r in real] == [r.op_costs for r in simulated]
