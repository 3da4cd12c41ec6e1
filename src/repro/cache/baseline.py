"""Epoch-by-epoch traffic of cached training runs (the caching baseline).

Simulates the network traffic of training with a compute-side raw-sample
cache, optionally combined with a SOPHON offload plan (offloaded samples
bypass the cache: their payloads are augmentation-bearing and must be
re-fetched every epoch; raw-fetched samples hit the cache).
"""

from typing import List, Optional, Sequence

from repro.cache.core import ByteCache
from repro.data.dataset import Dataset
from repro.data.sampler import RandomSampler, Sampler
from repro.preprocessing.records import SampleRecord


def epoch_traffic_with_cache(
    dataset: Dataset,
    capacity_bytes: int,
    epochs: int,
    splits: Optional[Sequence[int]] = None,
    records: Optional[Sequence[SampleRecord]] = None,
    sampler: Optional[Sampler] = None,
    overhead_bytes: int = 0,
    seed: int = 0,
) -> List[int]:
    """Per-epoch bytes fetched over the network.

    splits: optional SOPHON plan; a sample with split > 0 ships its
        (per-epoch-fresh) partially preprocessed payload and is never
        cached.  ``records`` must be provided alongside to size those
        payloads.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if splits is not None and records is None:
        raise ValueError("records are required when a plan is given")
    if splits is not None and len(splits) != len(dataset):
        raise ValueError(
            f"splits has {len(splits)} entries, dataset has {len(dataset)}"
        )
    if sampler is None:
        sampler = RandomSampler(len(dataset), seed=seed)
    cache = ByteCache(capacity_bytes)

    traffic: List[int] = []
    for epoch in range(epochs):
        fetched = 0
        for sample_id in sampler.epoch_order(epoch):
            split = 0 if splits is None else splits[sample_id]
            if split > 0:
                fetched += records[sample_id].size_at(split) + overhead_bytes
                continue
            size = dataset.raw_meta(sample_id).nbytes
            if cache.get(sample_id, size_hint=size) is None:
                fetched += size + overhead_bytes
                cache.put(sample_id, True, size)
        traffic.append(fetched)
    return traffic


def epoch_traffic_with_pinned_cache(
    dataset: Dataset,
    capacity_bytes: int,
    epochs: int,
    overhead_bytes: int = 0,
) -> List[int]:
    """Traffic of a *selective* (pinned) cache, Quiver-style.

    LRU thrashes under the per-epoch random permutations of DL training
    (an item survives only if it sat late in one epoch and early in the
    next), so the related work pins a chosen subset instead.  Pinning the
    largest samples that fit maximizes bytes served locally; steady-state
    traffic is then exactly ``total - pinned`` -- the "limited by
    capacity" ceiling the paper contrasts SOPHON against.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    sizes = [(dataset.raw_meta(i).nbytes, i) for i in dataset.sample_ids()]
    sizes.sort(reverse=True)
    pinned = set()
    used = 0
    for size, sample_id in sizes:
        if used + size <= capacity_bytes:
            pinned.add(sample_id)
            used += size

    total = sum(size for size, _ in sizes)
    unpinned = total - used + overhead_bytes * (len(sizes) - len(pinned))
    first = total + overhead_bytes * len(sizes)  # cold start fills the pins
    return [first] + [unpinned] * (epochs - 1)
