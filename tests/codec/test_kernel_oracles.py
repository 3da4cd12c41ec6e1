"""The decode kernels return byte-identical arrays to their references.

The references in :mod:`tests.codec.oracles` make a fresh array for every
step; the production kernels gather, widen and convert in fewer passes
with the same floating-point operations in the same order.  Inputs aim
at the places a reordered computation would show: colour conversions
that land on exact ``k + 0.5`` rounding boundaries, values outside
[0, 255], ``-0.0``, odd window offsets, and DC sums past the int16 range.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec.colorspace import upsample_420, ycbcr_to_rgb
from repro.codec.jpeg import assemble_image, plane_window, reconstruct_plane
from repro.codec.quant import BASE_CHROMA_TABLE, BASE_LUMA_TABLE, quality_scaled_table
from repro.codec.zigzag import inverse_zigzag
from repro.preprocessing.resize import resize_bilinear
from tests.codec.oracles import (
    assemble_image_reference,
    inverse_zigzag_reference,
    reconstruct_plane_reference,
    upsample_420_reference,
    ycbcr_to_rgb_reference,
)
from tests.preprocessing.oracles import resize_bilinear_reference

#: BT.601 full-range RGB -> YCbCr (JFIF), used to aim inputs at the
#: rounding boundaries of the inverse conversion.
RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
EDGE_VALUES = np.array([-300.5, -0.5, 0.5, 127.5, 254.5, 255.5, 400.25])


def sprinkle(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Overwrite about a tenth of ``values`` with -0.0 and edge values."""
    pick = rng.random(values.shape)
    values[pick < 0.04] = -0.0
    edges = pick > 0.94
    values[edges] = rng.choice(EDGE_VALUES, size=int(edges.sum()))
    return values


def ycc_pixels(seed: int, height: int, width: int) -> np.ndarray:
    """YCbCr (chroma on 128) whose RGB conversion lands on k + 0.5."""
    rng = np.random.default_rng(seed)
    rgb = rng.integers(-40, 296, size=(height, width, 3)) + 0.5
    ycc = rgb @ RGB_TO_YCBCR.T
    ycc[..., 1:] += 128.0
    return sprinkle(rng, ycc)


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    same_layout = got.dtype == want.dtype and got.shape == want.shape
    return same_layout and got.tobytes() == want.tobytes()


@st.composite
def windows(draw, max_side: int = 40):
    """(height, width, window) with the window anywhere inside the image."""
    height = draw(st.integers(1, max_side))
    width = draw(st.integers(1, max_side))
    top = draw(st.integers(0, height - 1))
    left = draw(st.integers(0, width - 1))
    win_h = draw(st.integers(1, height - top))
    win_w = draw(st.integers(1, width - left))
    return height, width, (top, left, win_h, win_w)


class TestInverseZigzag:
    @given(
        n=st.integers(1, 12),
        lead=st.sampled_from([(), (3,), (2, 5)]),
        dtype=st.sampled_from([np.int16, np.int64, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @example(n=8, lead=(4,), dtype=np.float64, seed=0)
    @example(n=3, lead=(), dtype=np.int16, seed=1)
    @settings(max_examples=60, deadline=None)
    def test_gather_equals_scatter(self, n, lead, dtype, seed):
        rng = np.random.default_rng(seed)
        flat = rng.integers(-500, 500, size=lead + (n * n,)).astype(dtype)
        if dtype is np.float64:
            sprinkle(rng, flat)
        assert same_bytes(inverse_zigzag(flat, n), inverse_zigzag_reference(flat, n))

    def test_gather_of_a_non_contiguous_window(self, rng):
        flat = rng.integers(-99, 99, size=(6, 7, 64)).astype(np.int16)[1:5, 2:6]
        assert same_bytes(inverse_zigzag(flat), inverse_zigzag_reference(flat))


class TestColourConversion:
    @given(height=st.integers(1, 24), width=st.integers(1, 24), seed=st.integers(0, 2**16))
    # A one-pixel-wide image: multiplying it as (11, 3) instead of
    # (11, 1, 3) rounds a pixel differently, so a flattened colour matmul
    # fails here.
    @example(height=11, width=1, seed=0)
    @example(height=1, width=1, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_ycbcr_to_rgb(self, height, width, seed):
        ycc = ycc_pixels(seed, height, width)
        assert same_bytes(ycbcr_to_rgb(ycc), ycbcr_to_rgb_reference(ycc))

    def test_ycbcr_to_rgb_leaves_its_input_alone(self):
        ycc = ycc_pixels(3, 5, 6)
        before = ycc.copy()
        ycbcr_to_rgb(ycc)
        assert same_bytes(ycc, before)

    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           out_h=st.integers(1, 26), out_w=st.integers(1, 26), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_upsample_420(self, rows, cols, out_h, out_w, seed):
        channel = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
        sprinkle(np.random.default_rng(seed), channel)
        want = upsample_420_reference(channel, out_h, out_w)
        assert same_bytes(upsample_420(channel, np.empty(want.shape)), want)


class TestReconstructPlane:
    @given(
        case=windows(),
        quality=st.integers(1, 100),
        chroma=st.booleans(),
        dtype=st.sampled_from([np.int16, np.int64]),
        seed=st.integers(0, 2**16),
    )
    # 5 x 5 blocks whose DC deltas sum past 32767.
    @example(case=(40, 40, (3, 5, 31, 33)), quality=95, chroma=False, dtype=np.int16, seed=0)
    @example(case=(9, 17, (1, 9, 8, 8)), quality=1, chroma=True, dtype=np.int64, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_equals_reference(self, case, quality, chroma, dtype, seed):
        height, width, window = case
        rng = np.random.default_rng(seed)
        blocks = ((height + 7) // 8) * ((width + 7) // 8)
        flat = rng.integers(-60, 60, size=(blocks, 64))
        flat[rng.random(flat.shape) < 0.5] = 0
        flat[:, 0] = rng.integers(1500, 2000, size=blocks) * rng.choice([-1, 1])
        flat = flat.astype(dtype)
        table = quality_scaled_table(BASE_CHROMA_TABLE if chroma else BASE_LUMA_TABLE, quality)
        got = reconstruct_plane(flat, width, table, window)
        want = reconstruct_plane_reference(flat, width, table, window)
        assert same_bytes(got, want)


class TestAssembleImage:
    @given(
        case=windows(),
        mode=st.sampled_from(["gray", "color-444", "color-420"]),
        seed=st.integers(0, 2**16),
    )
    @example(case=(17, 33, (3, 5, 9, 27)), mode="color-420", seed=2)
    @example(case=(8, 8, (1, 1, 7, 7)), mode="color-420", seed=3)
    @example(case=(30, 30, (0, 7, 11, 1)), mode="color-444", seed=0)
    @settings(max_examples=80, deadline=None)
    def test_equals_reference(self, case, mode, seed):
        _, _, window = case
        grayscale, subsampled = mode == "gray", mode == "color-420"
        _, _, height, width = window
        luma = ycc_pixels(seed, height, width)
        planes = [luma[..., 0].copy()]
        if not grayscale:
            _, _, c_h, c_w = plane_window(window, 1, grayscale, subsampled)
            chroma = ycc_pixels(seed + 1, c_h, c_w) if subsampled else luma
            planes += [chroma[..., 1].copy(), chroma[..., 2].copy()]
        before = [plane.copy() for plane in planes]
        got = assemble_image(planes, grayscale, subsampled, window)
        want = assemble_image_reference(planes, grayscale, subsampled, window)
        assert same_bytes(got, want)
        assert all(same_bytes(p, b) for p, b in zip(planes, before))


class TestResizeEdges:
    """Resize shapes and values the random property may not reach."""

    SHAPES = [  # (in_h, in_w, channels, out_h, out_w)
        (2, 2, 3, 1, 1),  # 2 -> 1 blends exact midpoints
        (274, 261, 3, 224, 224),  # a typical RandomResizedCrop downscale
        (150, 190, 3, 224, 224),  # an upscaling crop
        (3, 5, None, 9, 13),  # 2-D upscale
        (40, 31, None, 7, 5),  # 2-D downscale
        (1, 7, 3, 6, 1),
        (13, 1, None, 2, 40),
    ]

    @given(
        seed=st.integers(0, 2**16),
        shape=st.sampled_from(SHAPES),
        dtype=st.sampled_from([np.uint8, np.float64]),
    )
    @settings(max_examples=30, deadline=None)
    def test_equals_reference(self, seed, shape, dtype):
        in_h, in_w, channels, out_h, out_w = shape
        size = (in_h, in_w) if channels is None else (in_h, in_w, channels)
        rng = np.random.default_rng(seed)
        if dtype is np.uint8:
            image = rng.integers(0, 256, size=size, dtype=np.uint8)
        else:
            image = sprinkle(rng, rng.normal(128.0, 100.0, size=size))
        got = resize_bilinear(image, out_h, out_w)
        assert same_bytes(got, resize_bilinear_reference(image, out_h, out_w))
