"""PyTorch-style DataLoader over the materialized execution path.

The loader asks a *fetcher* for each sample (locally, or through the RPC
client which may offload a pipeline prefix to the storage server per the
active offload plan), finishes the remaining ops locally, and yields stacked
float32 batches.  It is the end-to-end data path used by tests and examples;
large sweeps use the event simulator instead.
"""

import dataclasses
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.sampler import BatchSampler, Sampler, SequentialSampler
from repro.preprocessing.payload import Payload, PayloadKind, SupportsFetch
from repro.preprocessing.pipeline import Pipeline


class DirectFetcher:
    """Fetch straight from a materialized dataset (no offloading, no wire)."""

    def __init__(self, dataset: Dataset) -> None:
        if not dataset.is_materialized:
            raise ValueError("DirectFetcher needs a materialized dataset")
        self.dataset = dataset

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        if split != 0:
            raise ValueError("DirectFetcher cannot apply remote preprocessing")
        return self.dataset.raw_payload(sample_id)


@dataclasses.dataclass
class Batch:
    """One training batch: stacked float32 tensors plus provenance."""

    tensors: np.ndarray  # (B, C, H, W) float32
    sample_ids: List[int]

    def __len__(self) -> int:
        return len(self.sample_ids)


class DataLoader:
    """Iterate epochs of preprocessed batches.

    splits: per-sample offload split points (index = sample id); None means
        no offloading anywhere.  The fetcher receives each sample's split and
        the loader runs the remaining ops ``split..n`` locally, so the merged
        execution is bit-identical to a fully local run (per-op derived RNG).
    """

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        fetcher: SupportsFetch,
        batch_size: int = 32,
        sampler: Optional[Sampler] = None,
        splits: Optional[Sequence[int]] = None,
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.fetcher = fetcher
        self.seed = seed
        if sampler is None:
            sampler = SequentialSampler(len(dataset))
        if len(sampler) != len(dataset):
            raise ValueError(
                f"sampler covers {len(sampler)} samples, dataset has {len(dataset)}"
            )
        self.batch_sampler = BatchSampler(sampler, batch_size, drop_last=drop_last)
        if splits is not None and len(splits) != len(dataset):
            raise ValueError(
                f"splits has {len(splits)} entries, dataset has {len(dataset)}"
            )
        self.splits = list(splits) if splits is not None else None

    def split_for(self, sample_id: int) -> int:
        if self.splits is None:
            return 0
        return self.splits[sample_id]

    def load_sample(self, sample_id: int, epoch: int) -> Payload:
        """Fetch one sample and finish its preprocessing locally."""
        split = self.split_for(sample_id)
        payload = self.fetcher.fetch(sample_id, epoch, split)
        run = self.pipeline.run(
            payload, seed=self.seed, epoch=epoch, sample_id=sample_id, start=split
        )
        result = run.payload
        if result.kind is not PayloadKind.TENSOR_F32:
            raise RuntimeError(
                f"pipeline ended in {result.kind.value}, expected a tensor"
            )
        return result

    def epoch(self, epoch: int) -> Iterator[Batch]:
        """Yield this epoch's batches in sampler order."""
        for ids in self.batch_sampler.epoch_batches(epoch):
            tensors = [self.load_sample(sample_id, epoch).data for sample_id in ids]
            yield Batch(tensors=np.stack(tensors), sample_ids=list(ids))

    def batches_per_epoch(self) -> int:
        return self.batch_sampler.batches_per_epoch()
