"""ServiceConfig validation: every count and duration is checked."""

import math

import pytest

from repro.service.config import ServiceConfig

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "field, value",
    [
        ("retry_after_s", NAN),
        ("retry_after_s", INF),
        ("retry_after_s", -0.1),
        ("retry_after_s", True),
        ("drain_timeout_s", NAN),
        ("drain_timeout_s", INF),
        ("drain_timeout_s", 0.0),
        ("default_deadline_s", NAN),
        ("default_deadline_s", INF),
        ("default_deadline_s", 0.0),
        ("default_deadline_s", "30"),
        ("workers", NAN),
        ("workers", 2.5),
        ("queue_capacity", True),
        ("total_storage_cores", -1),
        ("flight_capacity", 0),
    ],
)
def test_rejects_non_finite_or_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: value})


def test_accepts_the_boundaries():
    config = ServiceConfig(retry_after_s=0.0, drain_timeout_s=1e-3, default_deadline_s=None)
    assert config.retry_after_s == 0.0
    assert ServiceConfig(default_deadline_s=0.5).default_deadline_s == 0.5
