"""Library micro-benchmarks: real wall-clock throughput of the hot paths.

Unlike the figure regenerators (which run in virtual time), these measure
the actual Python/numpy implementations -- codec encode/decode (whole
image and crop window), YCbCr -> RGB conversion, bilinear resize (down
and up), the fused Decode -> crop prefix, the full pipeline, and message
serialization -- with pytest-benchmark's normal multi-round timing.  They guard against
performance regressions in the substrate itself.
"""

import numpy as np
import pytest

from repro.codec import CodecConfig, ToyJpegCodec
from repro.codec.colorspace import rgb_to_ycbcr, ycbcr_to_rgb
from repro.data.synthetic import generate_image
from repro.preprocessing.payload import Payload
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.resize import resize_bilinear
from repro.rpc.messages import FetchRequest, FetchResponse


@pytest.fixture(scope="module")
def image():
    return generate_image(np.random.default_rng(0), 384, 512, texture=0.5)


@pytest.fixture(scope="module")
def codec():
    return ToyJpegCodec(CodecConfig())


def test_micro_codec_encode(benchmark, image, codec):
    encoded = benchmark(codec.encode, image)
    assert len(encoded) > 0


def test_micro_codec_decode(benchmark, image, codec):
    encoded = codec.encode(image)
    decoded = benchmark(codec.decode, encoded)
    assert decoded.shape == image.shape


def test_micro_decode_window(benchmark, image, codec):
    encoded = codec.encode(image)
    decoded = benchmark(codec.decode, encoded, window=(64, 96, 224, 256))
    assert decoded.shape == (224, 256, 3)


def test_micro_decode_crop(benchmark, image, codec):
    """Decode -> RandomResizedCrop, which decodes only the crop's window."""
    pipeline = standard_pipeline(codec=codec)
    payload = Payload.encoded(codec.encode(image), height=384, width=512)

    def run():
        return pipeline.run(payload, seed=0, epoch=0, sample_id=0, stop=2)

    result = benchmark(run)
    assert result.payload.data.shape == (224, 224, 3)


def test_micro_ycbcr_to_rgb(benchmark, image):
    ycc = rgb_to_ycbcr(image)
    rgb = benchmark(ycbcr_to_rgb, ycc)
    assert rgb.shape == image.shape and rgb.dtype == np.uint8


def test_micro_resize(benchmark, image):
    out = benchmark(resize_bilinear, image, 224, 224)
    assert out.shape == (224, 224, 3)


def test_micro_resize_upscaling_crop(benchmark, image):
    """A RandomResizedCrop region smaller than 224 px on both sides."""
    region = image[40:190, 60:220]
    out = benchmark(resize_bilinear, region, 224, 224)
    assert out.shape == (224, 224, 3)


def test_micro_full_pipeline(benchmark, image, codec):
    pipeline = standard_pipeline(codec=codec)
    payload = Payload.encoded(codec.encode(image), height=384, width=512)

    def run():
        return pipeline.run(payload, seed=0, epoch=0, sample_id=0)

    result = benchmark(run)
    assert result.payload.data.shape == (3, 224, 224)


def test_micro_response_serialization(benchmark, image):
    request = FetchRequest(0, 0, 2)
    payload = Payload.image(np.ascontiguousarray(image[:224, :224]))

    def round_trip():
        wire = FetchResponse.from_payload(request, payload, 224, 224).to_bytes()
        return FetchResponse.from_bytes(wire).to_payload()

    restored = benchmark(round_trip)
    assert restored.data.shape == (224, 224, 3)
