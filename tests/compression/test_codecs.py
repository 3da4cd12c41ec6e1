"""Compression model tests."""

import pytest

from repro.compression.codecs import CompressionModel, KindProfile
from repro.preprocessing.payload import PayloadKind


class TestCompressionModel:
    def test_profiles_exist_for_all_kinds(self):
        model = CompressionModel()
        for kind in PayloadKind:
            assert model.profile_for(kind).ratio > 0

    def test_encoded_payloads_incompressible(self):
        model = CompressionModel()
        assert model.savings_bytes(PayloadKind.ENCODED, 10_000) == 0

    def test_tensor_savings_positive(self):
        model = CompressionModel()
        assert model.savings_bytes(PayloadKind.TENSOR_F32, 10_000) > 0

    def test_compressed_bytes_scale_linearly(self):
        model = CompressionModel()
        one = model.compressed_bytes(PayloadKind.IMAGE_U8, 1000)
        ten = model.compressed_bytes(PayloadKind.IMAGE_U8, 10_000)
        assert ten == pytest.approx(10 * one, rel=0.01)

    def test_cpu_seconds_positive_and_asymmetric(self):
        model = CompressionModel()
        comp = model.compress_seconds(PayloadKind.IMAGE_U8, 1_000_000)
        decomp = model.decompress_seconds(PayloadKind.IMAGE_U8, 1_000_000)
        assert comp > decomp > 0  # inflate is cheaper than deflate

    def test_kind_profile_validation(self):
        with pytest.raises(ValueError):
            KindProfile(ratio=0.0, compress_bytes_per_s=1.0, decompress_bytes_per_s=1.0)
        with pytest.raises(ValueError):
            KindProfile(ratio=0.5, compress_bytes_per_s=0.0, decompress_bytes_per_s=1.0)

    def test_unknown_kind_raises(self):
        model = CompressionModel(profiles={})
        with pytest.raises(KeyError):
            model.profile_for(PayloadKind.ENCODED)
