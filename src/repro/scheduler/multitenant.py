"""Greedy water-filling allocation of storage cores across tenant jobs."""

import dataclasses
from typing import Dict, Optional, Sequence

from repro.cluster.epoch_model import EpochModel
from repro.cluster.spec import ClusterSpec
from repro.core.decision import DecisionEngine
from repro.core.policy import PolicyContext
from repro.data.dataset import Dataset
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.workloads.models import ModelProfile, get_model_profile


@dataclasses.dataclass
class TenantJob:
    """One training job competing for storage-node cores."""

    name: str
    dataset: Dataset
    model: ModelProfile
    pipeline: Optional[Pipeline] = None
    weight: float = 1.0  # relative importance in the objective
    seed: int = 0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.pipeline is None:
            self.pipeline = standard_pipeline()


@dataclasses.dataclass
class Allocation:
    """Result: cores per job plus the per-job epoch estimates."""

    cores: Dict[str, int]
    epoch_times: Dict[str, float]
    total_cores: int

    @property
    def objective(self) -> float:
        """Sum of epoch times (the quantity the scheduler minimizes)."""
        return sum(self.epoch_times.values())

    def render(self) -> str:
        lines = [f"{'Job':<16} {'Cores':>5} {'Epoch':>10}"]
        for name in sorted(self.cores):
            lines.append(
                f"{name:<16} {self.cores[name]:>5} {self.epoch_times[name]:>9.2f}s"
            )
        lines.append(f"{'(total)':<16} {sum(self.cores.values()):>5}")
        return "\n".join(lines)


class GreedyCoreScheduler:
    """Assign cores one at a time to the job with the best marginal gain.

    For each candidate (job, +1 core) the scheduler re-runs the job's
    SOPHON decision engine at that allocation and evaluates the analytic
    epoch estimate; the core goes to the job whose weighted epoch time
    drops the most.  Epoch-time evaluations are cached per (job, cores).
    """

    def __init__(
        self,
        base_spec: ClusterSpec,
        engine: Optional[DecisionEngine] = None,
    ) -> None:
        self.base_spec = base_spec
        self.engine = engine if engine is not None else DecisionEngine()
        self._cache: Dict[tuple, float] = {}

    def epoch_time_at(self, job: TenantJob, cores: int) -> float:
        """Analytic epoch time of ``job`` given ``cores`` storage cores."""
        key = (job.name, cores)
        if key in self._cache:
            return self._cache[key]
        spec = self.base_spec.with_storage_cores(cores)
        context = PolicyContext(
            dataset=job.dataset,
            pipeline=job.pipeline,
            spec=spec,
            model=job.model,
            seed=job.seed,
        )
        if cores == 0:
            metrics = context.records().epoch_metrics(
                context.epoch_gpu_time_s, spec.response_overhead_bytes
            )
            time_s = EpochModel(spec).epoch_time_s(metrics)
        else:
            plan = self.engine.plan(
                context.records(), spec, gpu_time_s=context.epoch_gpu_time_s
            )
            time_s = plan.expected.epoch_time_s
        self._cache[key] = time_s
        return time_s

    def allocate(self, jobs: Sequence[TenantJob], total_cores: int) -> Allocation:
        """Distribute ``total_cores`` across ``jobs`` greedily."""
        if total_cores < 0:
            raise ValueError(f"total_cores must be >= 0, got {total_cores}")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")

        cores = {job.name: 0 for job in jobs}
        for _ in range(total_cores):
            best_job = None
            best_gain = 0.0
            for job in jobs:
                current = self.epoch_time_at(job, cores[job.name])
                upgraded = self.epoch_time_at(job, cores[job.name] + 1)
                gain = (current - upgraded) * job.weight
                if gain > best_gain:
                    best_gain = gain
                    best_job = job
            if best_job is None:
                break  # no job benefits from another core
            cores[best_job.name] += 1

        epoch_times = {
            job.name: self.epoch_time_at(job, cores[job.name]) for job in jobs
        }
        return Allocation(cores=cores, epoch_times=epoch_times, total_cores=total_cores)


def make_job(
    name: str,
    dataset: Dataset,
    model_name: str = "alexnet",
    gpu: str = "rtx6000",
    weight: float = 1.0,
    seed: int = 0,
) -> TenantJob:
    """Convenience constructor used by examples and tests."""
    return TenantJob(
        name=name,
        dataset=dataset,
        model=get_model_profile(model_name, gpu),
        weight=weight,
        seed=seed,
    )
