"""Offload plans: per-sample split points plus planning provenance."""

import collections
import dataclasses
from typing import Dict, Optional, Sequence

from repro.cluster.epoch_model import EpochEstimate
from repro.cluster.spec import ClusterSpec
from repro.preprocessing.records import RecordTable, SampleRecord


@dataclasses.dataclass(frozen=True)
class OffloadPlan:
    """The output of a policy: how far each sample's pipeline is offloaded.

    splits: index = sample id, value = number of leading ops to execute on
        the storage node (0 = fetch raw).
    reason: human-readable note on how/why planning stopped.
    expected: the analytic epoch estimate the planner believed in (None for
        trivial plans).
    scan_counts: the optional fidelity axis -- index = sample id, value =
        how many scans of the sample's progressive raw stream to ship, or
        None for full fidelity.  A non-None entry is only valid at split 0
        (scan truncation applies to the raw encoded object; once any
        pipeline prefix runs remotely the decoded payload ships instead).
        ``scan_counts=None`` (the default) means the fidelity axis is
        unused and the plan behaves exactly as before it existed.
    """

    splits: Sequence[int]
    reason: str = ""
    expected: Optional[EpochEstimate] = None
    scan_counts: Optional[Sequence[Optional[int]]] = None

    def __post_init__(self) -> None:
        if any(s < 0 for s in self.splits):
            raise ValueError("split points must be >= 0")
        if self.scan_counts is not None:
            if len(self.scan_counts) != len(self.splits):
                raise ValueError(
                    f"scan_counts covers {len(self.scan_counts)} samples, "
                    f"plan has {len(self.splits)}"
                )
            for sample_id, count in enumerate(self.scan_counts):
                if count is None:
                    continue
                if count < 1:
                    raise ValueError(
                        f"sample {sample_id}: scan count must be >= 1, got {count}"
                    )
                if self.splits[sample_id] != 0:
                    raise ValueError(
                        f"sample {sample_id}: scan truncation requires split 0, "
                        f"plan says split {self.splits[sample_id]}"
                    )

    def __len__(self) -> int:
        return len(self.splits)

    def split_for(self, sample_id: int) -> int:
        return self.splits[sample_id]

    def scan_count_for(self, sample_id: int) -> Optional[int]:
        """Scans of the raw stream to ship, or None for full fidelity."""
        if self.scan_counts is None:
            return None
        return self.scan_counts[sample_id]

    @property
    def num_offloaded(self) -> int:
        return sum(1 for s in self.splits if s > 0)

    @property
    def num_degraded(self) -> int:
        """Samples shipped at reduced fidelity (a truncated scan prefix)."""
        if self.scan_counts is None:
            return 0
        return sum(1 for c in self.scan_counts if c is not None)

    @property
    def offload_fraction(self) -> float:
        if len(self.splits) == 0:
            return 0.0
        return self.num_offloaded / len(self.splits)

    def split_histogram(self) -> Dict[int, int]:
        """How many samples use each split point."""
        return dict(collections.Counter(self.splits))

    def clamped_for(self, spec: ClusterSpec) -> "OffloadPlan":
        """Disable offloading when the cluster cannot do it (0 storage cores).

        Scan truncation survives clamping: it is byte slicing at GET time,
        not offloaded CPU work, so it needs no storage cores.
        """
        if spec.can_offload or self.num_offloaded == 0:
            return self
        return OffloadPlan(
            splits=[0] * len(self.splits),
            reason=f"{self.reason} [clamped: no storage cores]".strip(),
            expected=None,
            scan_counts=self.scan_counts,
        )

    def expected_traffic_bytes(
        self, records: Sequence[SampleRecord], overhead_bytes: int = 0
    ) -> int:
        """Wire bytes this plan implies, given per-sample records."""
        if len(records) != len(self.splits):
            raise ValueError(
                f"records cover {len(records)} samples, plan has {len(self.splits)}"
            )
        wire = RecordTable.from_records(records).wire_bytes(self.splits, self.scan_counts)
        return sum(wire) + overhead_bytes * len(records)

    @classmethod
    def no_offload(cls, num_samples: int, reason: str = "no offloading") -> "OffloadPlan":
        return cls(splits=[0] * num_samples, reason=reason)

    @classmethod
    def uniform(cls, num_samples: int, split: int, reason: str = "") -> "OffloadPlan":
        """Every sample offloaded to the same split point."""
        if split < 0:
            raise ValueError(f"split must be >= 0, got {split}")
        return cls(splits=[split] * num_samples, reason=reason)
