"""The dataset interface shared by materialized and trace datasets."""

import abc
from typing import Iterator, List, Sequence, Union

from repro.preprocessing.payload import BatchMeta, Payload, StageMeta


class UnmaterializedSampleError(NotImplementedError):
    """Raised when pixel data is requested from a metadata-only dataset."""


class Dataset(abc.ABC):
    """A collection of encoded samples addressed by integer id (0..n-1)."""

    #: Human-readable dataset name (appears in reports).
    name: str = "dataset"

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of samples."""

    @abc.abstractmethod
    def raw_meta(self, sample_id: int) -> StageMeta:
        """Metadata of the stored (encoded) sample: size and decoded dims."""

    def raw_payload(self, sample_id: int) -> Payload:
        """The stored bytes of a sample.

        Metadata-only datasets raise :class:`UnmaterializedSampleError`.
        """
        raise UnmaterializedSampleError(
            f"{type(self).__name__} does not materialize pixel data"
        )

    @property
    def is_materialized(self) -> bool:
        """Whether :meth:`raw_payload` is available."""
        return False

    def sample_ids(self) -> range:
        return range(len(self))

    def raw_metas(self, sample_ids: Sequence[int]) -> Union[BatchMeta, List[StageMeta]]:
        """The raw metas of ``sample_ids``, for ``simulate_batch``.

        One :meth:`raw_meta` call per sample; datasets that already hold
        their metadata as arrays return one :class:`BatchMeta` instead.
        """
        return [self.raw_meta(sample_id) for sample_id in sample_ids]

    def iter_metas(self) -> Iterator[StageMeta]:
        for sample_id in self.sample_ids():
            yield self.raw_meta(sample_id)

    @property
    def total_raw_bytes(self) -> int:
        """Sum of stored sizes (the dataset's on-storage footprint)."""
        return sum(meta.nbytes for meta in self.iter_metas())

    def _check_id(self, sample_id: int) -> None:
        if not 0 <= sample_id < len(self):
            raise IndexError(f"sample id {sample_id} out of range [0, {len(self)})")
