"""Build trace datasets from real file-size listings.

Anyone with a real image dataset can feed its byte sizes (``ls -l`` /
``du``-style, one integer per line) and get a trace dataset whose SOPHON
results reflect *their* data.
"""

from typing import Iterable, Union

import numpy as np

from repro.data.distributions import dimensions_for_sizes
from repro.data.trace import TraceDataset
from repro.utils.rng import derive_rng


def trace_from_size_listing(
    source: Union[str, Iterable[int]],
    name: str = "listing",
    seed: int = 0,
    mean_bits_per_pixel: float = 2.0,
) -> TraceDataset:
    """Build a trace dataset from real encoded-file sizes.

    source: a path to a text file (one byte count per line; blank lines
        and ``#`` comments ignored) or an iterable of integers.
    Decoded dimensions are inferred from each size via the bits-per-pixel
    model (see :func:`repro.data.distributions.dimensions_for_sizes`).
    """
    if isinstance(source, str):
        sizes = []
        with open(source) as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    sizes.append(int(text))
                except ValueError:
                    raise ValueError(
                        f"{source}:{line_number}: not an integer: {text!r}"
                    ) from None
    else:
        sizes = [int(s) for s in source]
    if not sizes:
        raise ValueError("size listing is empty")
    if min(sizes) <= 0:
        raise ValueError("file sizes must be positive")

    array = np.asarray(sizes, dtype=np.int64)
    rng = derive_rng(seed, 0x115717)
    heights, widths = dimensions_for_sizes(
        rng, array, mean_bits_per_pixel=mean_bits_per_pixel
    )
    return TraceDataset(array, heights, widths, name=name)

