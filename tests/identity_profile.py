"""Hypothesis draw counts for the identity and oracle gates.

Tier-1 runs each gate at its own count.  A CI step sets
``SOPHON_IDENTITY_PROFILE=identity-deep`` to run the engine identity
properties, the bulk-accept fold, the planner oracles and the
command-line property at 400 draws.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "identity",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile("identity-deep", settings.get_profile("identity"), max_examples=400)
PROFILE = os.environ.get("SOPHON_IDENTITY_PROFILE", "identity")
IDENTITY_SETTINGS = settings.get_profile(PROFILE)


def draws(tier1: int) -> settings:
    """``tier1`` draws per property, or the deep profile's count under it."""
    count = tier1 if PROFILE == "identity" else IDENTITY_SETTINGS.max_examples
    return settings(max_examples=count, deadline=None)
