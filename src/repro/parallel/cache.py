"""Keyed caching of profiled records across planning passes.

Re-planning sweeps (fig3's five policies, fig4's core sweep, adaptive
re-planning) all rebuild the same records from the same (dataset,
pipeline, seed, epoch) key.  A :class:`RecordCache` makes that rebuild a
lookup: keys combine a *pipeline fingerprint* (op classes + op
configuration + cost-model constants), a *dataset fingerprint*, the RNG
seed, and the epoch.  Record tables are immutable (rows materialize once,
on first use, and a racing second build yields equal rows), so cached
tables are shared freely across policies and threads.

Fingerprints hash configuration, not object identity: two independently
constructed but identically configured pipelines produce the same
fingerprint (covered by tests).  Dataset fingerprints combine type,
name, and length with a deterministic probe of a few raw metas rather
than a full scan -- synthetic datasets materialize samples lazily and a
full scan would defeat the point of caching.
"""

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable

#: How many samples the dataset fingerprint probes (spread evenly).
_PROBE_SAMPLES = 8

CacheKey = Tuple[str, str, int, int]


def _stable(value: object) -> str:
    """A deterministic, content-based string form of a config value."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return f"ndarray({value.dtype},{value.shape},{value.tobytes().hex()})"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_stable(item) for item in value)
        return f"[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_stable(key)}:{_stable(value[key])}" for key in sorted(value, key=repr)
        )
        return f"{{{inner}}}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return f"{type(value).__qualname__}({_stable(fields)})"
    if hasattr(value, "__dict__"):
        return f"{type(value).__qualname__}({_stable(vars(value))})"
    return f"{type(value).__qualname__}:{value!r}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def pipeline_fingerprint(pipeline: Pipeline, cost_model: Optional[CostModel] = None) -> str:
    """Content fingerprint of a pipeline + effective cost model."""
    model = cost_model if cost_model is not None else pipeline.cost_model
    parts = [
        _stable([f"{type(op).__qualname__}:{_stable(vars(op))}" for op in pipeline.ops]),
        _stable({name: model.op_costs[name] for name in sorted(model.op_costs)}),
        repr(model.cpu_speed_factor),
    ]
    return _digest("|".join(parts))


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content fingerprint of a dataset (type, name, length, meta probe)."""
    n = len(dataset)
    if n:
        stride = max(1, n // _PROBE_SAMPLES)
        probe_ids = list(range(0, n, stride))[:_PROBE_SAMPLES]
        if probe_ids[-1] != n - 1:
            probe_ids.append(n - 1)
    else:
        probe_ids = []
    probes = []
    for sample_id in probe_ids:
        meta = dataset.raw_meta(sample_id)
        probes.append((sample_id, meta.nbytes, meta.height, meta.width, meta.channels))
    return _digest(f"{type(dataset).__qualname__}|{dataset.name}|{n}|{probes!r}")


def record_key(
    dataset: Dataset,
    pipeline: Pipeline,
    seed: int,
    epoch: int,
    cost_model: Optional[CostModel] = None,
) -> CacheKey:
    """The cache key for one profiling pass.

    Records are identical whichever execution mode built them (that is
    the parallel engine's determinism contract), so the key deliberately
    excludes the mode.
    """
    return (
        dataset_fingerprint(dataset),
        pipeline_fingerprint(pipeline, cost_model),
        seed,
        epoch,
    )


class RecordCache:
    """A bounded, thread-safe LRU cache of profiled record tables."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, RecordTable]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[RecordTable]:
        with self._lock:
            records = self._entries.get(key)
            if records is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return records

    def put(self, key: CacheKey, records: RecordTable) -> None:
        with self._lock:
            self._entries[key] = records
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_build(
        self, key: CacheKey, builder: Callable[[], RecordTable]
    ) -> RecordTable:
        """The cached records for ``key``, building (and storing) on miss."""
        records = self.get(key)
        if records is None:
            records = builder()
            self.put(key, records)
        return records

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
