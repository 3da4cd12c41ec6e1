"""Figure 3: epoch time and data traffic per policy, ample storage CPUs."""

import dataclasses
from typing import Dict, List, Optional

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.data.dataset import Dataset
from repro.harness.runner import ExperimentResult, compare_policies
from repro.utils.tables import render_table
from repro.utils.units import format_bytes, format_seconds


@dataclasses.dataclass
class PolicyComparison:
    """Figure-3 style comparison on one dataset."""

    dataset_name: str
    results: List[ExperimentResult]

    def by_policy(self) -> Dict[str, ExperimentResult]:
        return {r.policy_name: r for r in self.results}

    def traffic_ratio(self, policy: str, baseline: str = "no-off") -> float:
        """traffic(policy) / traffic(baseline); <1 means policy reduced it."""
        table = self.by_policy()
        return table[policy].traffic_bytes / table[baseline].traffic_bytes

    def time_ratio(self, policy: str, baseline: str = "no-off") -> float:
        table = self.by_policy()
        return table[policy].epoch_time_s / table[baseline].epoch_time_s

    def render(self) -> str:
        rows = []
        base = self.by_policy().get("no-off")
        for result in self.results:
            rows.append(
                (
                    result.policy_name,
                    format_seconds(result.epoch_time_s),
                    format_bytes(result.traffic_bytes),
                    f"{result.traffic_bytes / base.traffic_bytes:.2f}x" if base else "-",
                    f"{result.gpu_utilization:.0%}",
                    result.plan.num_offloaded,
                )
            )
        title = f"[{self.dataset_name}] epoch time / traffic per policy"
        table = render_table(
            ("Policy", "Epoch", "Traffic", "vs No-Off", "GPU util", "Offloaded"),
            rows,
        )
        return f"{title}\n{table}"


def ample_cpu_comparison(
    dataset: Dataset,
    cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
) -> PolicyComparison:
    """Run all five policies with ample (48) storage cores (section 4.1)."""
    if cluster is None:
        cluster = standard_cluster(storage_cores=48)
    results = compare_policies(dataset, cluster, seed=seed)
    return PolicyComparison(dataset_name=dataset.name, results=results)
