"""Model profile registry tests."""

import pytest

from repro.workloads.models import (
    MODEL_REGISTRY,
    ModelProfile,
    get_model_profile,
    register_model_profile,
)


class TestModelProfiles:
    def test_paper_models_registered_for_both_gpus(self):
        for model in ("alexnet", "resnet18", "resnet50"):
            for gpu in ("rtx6000", "v100"):
                assert get_model_profile(model, gpu).images_per_second > 0

    def test_relative_compute_intensity(self):
        alexnet = get_model_profile("alexnet", "rtx6000")
        resnet18 = get_model_profile("resnet18", "rtx6000")
        resnet50 = get_model_profile("resnet50", "rtx6000")
        assert alexnet.images_per_second > resnet18.images_per_second
        assert resnet18.images_per_second > resnet50.images_per_second

    def test_batch_time(self):
        profile = ModelProfile("m", "g", images_per_second=100.0)
        assert profile.batch_time_s(50) == pytest.approx(0.5)

    def test_epoch_gpu_time(self):
        profile = ModelProfile("m", "g", images_per_second=100.0)
        assert profile.epoch_gpu_time_s(1000) == pytest.approx(10.0)

    def test_unknown_profile_lists_known(self):
        with pytest.raises(KeyError, match="alexnet/rtx6000"):
            get_model_profile("vit", "h100")

    def test_register_custom(self):
        profile = ModelProfile("custom", "gpu-x", images_per_second=1.0)
        register_model_profile(profile)
        try:
            assert get_model_profile("custom", "gpu-x") is profile
        finally:
            del MODEL_REGISTRY[("custom", "gpu-x")]

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelProfile("m", "g", images_per_second=0.0)
        with pytest.raises(ValueError):
            ModelProfile("m", "g", images_per_second=1.0, batch_size=0)
        with pytest.raises(ValueError):
            ModelProfile("m", "g", images_per_second=1.0).batch_time_s(0)
        with pytest.raises(ValueError):
            ModelProfile("m", "g", images_per_second=1.0).epoch_gpu_time_s(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"images_per_second": float("nan")},
            {"images_per_second": float("inf")},
            {"images_per_second": 1.0, "batch_size": True},
            {"images_per_second": 1.0, "batch_size": 8.5},
        ],
    )
    def test_rejects_non_finite_and_non_integral(self, kwargs):
        with pytest.raises(ValueError):
            ModelProfile("m", "g", **kwargs)
