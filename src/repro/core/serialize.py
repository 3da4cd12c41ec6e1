"""JSON form of an offload plan (``sophon-repro plan --save``).

The fidelity axis's ``scan_counts`` is emitted only when present, so
output for fidelity-free plans is byte-identical to before the axis
existed.
"""

import json

from repro.core.plan import OffloadPlan

_PLAN_VERSION = 1


def plan_to_json(plan: OffloadPlan) -> str:
    doc = {
        "version": _PLAN_VERSION,
        "kind": "offload-plan",
        "splits": list(plan.splits),
        "reason": plan.reason,
    }
    if plan.scan_counts is not None:
        doc["scan_counts"] = list(plan.scan_counts)
    return json.dumps(doc)
