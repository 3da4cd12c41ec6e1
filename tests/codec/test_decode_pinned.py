"""Full-image decodes pinned to checked-in digests.

Every entry is the sha256 of the baseline decode followed by the
progressive decode at each scan count, for one seeded image and codec
configuration.  The digests were produced by the full-image decoder
before it learned to decode pixel windows, so they pin that the window
refactor moved no pixel of a full decode.

Regenerate (only for a deliberate codec change) with::

    PYTHONPATH=src python tests/codec/test_decode_pinned.py
"""

import hashlib
import itertools
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.codec import (
    CodecConfig,
    ProgressiveCodecConfig,
    ProgressiveJpegCodec,
    ToyJpegCodec,
)

DIMS = ((1, 1), (7, 13), (17, 33), (384, 384))
MODES = ("color-420", "color-444", "gray")
QUALITIES = (1, 50, 95, 100)


def corpus_image(height: int, width: int, mode: str, seed: int) -> np.ndarray:
    """A seeded gradient-plus-noise image, built from numpy alone."""
    rng = np.random.default_rng(seed)
    ys = np.linspace(0.0, 1.0, height)[:, None, None]
    xs = np.linspace(0.0, 1.0, width)[None, :, None]
    tint = rng.uniform(0.0, 1.0, size=(1, 1, 3))
    smooth = 255.0 * (0.5 * ys + 0.3 * xs * tint + 0.2 * tint)
    noise = rng.normal(0.0, 40.0, size=(height, width, 3))
    image = np.clip(smooth + noise, 0, 255).astype(np.uint8)
    return image[..., 0].copy() if mode == "gray" else image


def cases() -> Iterator[Tuple[str, int, int, str, int, int]]:
    """(name, height, width, mode, quality, seed) for every pinned decode."""
    for seed, ((height, width), mode, quality) in enumerate(
        itertools.product(DIMS, MODES, QUALITIES)
    ):
        yield f"{height}x{width}-{mode}-q{quality}", height, width, mode, quality, seed


def decode_digest(height: int, width: int, mode: str, quality: int, seed: int) -> str:
    image = corpus_image(height, width, mode, seed)
    base = CodecConfig(quality=quality, subsample=mode != "color-444")
    digest = hashlib.sha256()
    baseline = ToyJpegCodec(base)
    digest.update(baseline.decode(baseline.encode(image)).tobytes())
    progressive = ProgressiveJpegCodec(ProgressiveCodecConfig(base=base))
    stream = progressive.encode(image)
    for count in range(1, progressive.config.num_scans + 1):
        digest.update(progressive.decode(stream, scan_count=count).tobytes())
    return digest.hexdigest()


def current_digests() -> Dict[str, str]:
    return {name: decode_digest(*args) for name, *args in cases()}


PINNED = {
    "1x1-color-420-q1": "8e775cccab896be3e44c2b1a67241948914bf6cbdf1b474ba4e060fd8dc191b8",
    "1x1-color-420-q50": "ab44bea02fb162cdabd3f830ff6d5d0e8c8b76c4d301a50b394e1ed25135f457",
    "1x1-color-420-q95": "b3eb58b68f0cf1c8df99204ce1e8c767d12a7bc95b7223da51fda4624388d319",
    "1x1-color-420-q100": "4297f3311fa67e6add90f8c2d5a2ce3696152b4cdf13b8153986ffbd52f3cf86",
    "1x1-color-444-q1": "4dbd48575f8796b49d20e38a553dc5bee962ed1759df7f3c8d72071c4ceff007",
    "1x1-color-444-q50": "c11f40db21ea9f0f998eec8a6dffe1382e27536a5e54117b14b58bf92068746d",
    "1x1-color-444-q95": "85c6739bb2adbe7980696d8130717675da49a82bd1c91e723b48f62469ebd083",
    "1x1-color-444-q100": "aa7f93b0c8d06096021c9bb1333866104bc613eccd0147bbffa2ab02dc70b403",
    "1x1-gray-q1": "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44",
    "1x1-gray-q50": "824da7fe0d3a58cecfe9fde29e6cf5bec4383460b4cb7d6e61b9889e9a781763",
    "1x1-gray-q95": "39ada8f4ed23cab2a12bd511d0b7b6aaf3c7e927b8df1137e4f37c6a6442469b",
    "1x1-gray-q100": "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44",
    "7x13-color-420-q1": "52da35869b8152928064d61336f5e7dd1d8522638656dda0058319572a818f47",
    "7x13-color-420-q50": "1584907e090f176b03433e941078db61c95057413304e1094a42cb95744fedb0",
    "7x13-color-420-q95": "d2a653425dc3b488b4d5f9d4f7b377e19b59f7ce5438906247f5a60e0fccba10",
    "7x13-color-420-q100": "9830e7eb9a7d0fc337f4a2bee33ab7e72f66958988b90ec67672942c5ff8b58d",
    "7x13-color-444-q1": "8a3d07b09e4047ac18876cd06124ba530c1882ce09e8e714771f91a994243014",
    "7x13-color-444-q50": "1bd1728e0d999c1d8035a62448b7954e6a0f130d767e291f5418b105e076cb17",
    "7x13-color-444-q95": "6610571d58f1b99ebe720579e72a21efa1ce8e2af4785e21098e0ee5e8a70e79",
    "7x13-color-444-q100": "b6e987a6ec9041be9ae9e97f3055956d07f1d156f8875122ea7c24c5f3118069",
    "7x13-gray-q1": "45ec0380d3c1a1ffbed00b48b686541fba992dade1a8fe7ec88e2a2613f51c59",
    "7x13-gray-q50": "ed8b6341f38199fb1ac403d694f38e8a3c367cb11e0028a4bb95c000172e8b63",
    "7x13-gray-q95": "2afd60a0a0fb6f172f256aebc9bacd9b5bd976e7101a7953e0420111f41b1d85",
    "7x13-gray-q100": "4fca84672c4cef8ee1d1c96b728f79bd9d2fc1867e082b2b0cdc445b52925fc6",
    "17x33-color-420-q1": "475198a56a7817713a89a2f01b80b680b3001ec4258077445c8b9cfc5ba5e82a",
    "17x33-color-420-q50": "c5ede15525f9d7028b226b83dc2e9c0be102d3d3f542a091a400bab224787a29",
    "17x33-color-420-q95": "b16e67615052cd98d414d094df49d406d3c1ac1ebd2ee7d2432a875ebae8137b",
    "17x33-color-420-q100": "b223735319a32ce7f720f792c50a49f0ddb58fd5fa8ec36dcbbfed022348bdf8",
    "17x33-color-444-q1": "27fc3ad4d4a7c3fd58c0fe82ce35987134fc6b1494b82ed308a8f056349419fc",
    "17x33-color-444-q50": "a25e99f95c4a63de6e02e3bee41c64330d8deb0921a8b3cf43989414c48e2bdd",
    "17x33-color-444-q95": "9b6326aacab6cdc6e7b31fbb88973a058ce5049bbe7ffcc790eae5f3a25a230b",
    "17x33-color-444-q100": "f0d2b3fbb15cb8d3ee8e19516b112d14ddc5bb52543560ae9ff962366bcfc0f0",
    "17x33-gray-q1": "c913fab194911e522bd30d39b67f8bc1d8872e315edd6fb9820433eeae9944fc",
    "17x33-gray-q50": "3fc8cb9af58402a8f5c296ece295bb8504752c77577754913871fb20c08fa0d8",
    "17x33-gray-q95": "875450755ad778493407beb06041a6493ad7b1898bc3676880add94e68e76c69",
    "17x33-gray-q100": "e36b748a23a25cd3e375a527c3de84a35278f69afb8ec1834d3db1a44e67e913",
    "384x384-color-420-q1": "4fb314a9e3027b31ae283f650232579040cf85160605afd258909d3723d30c16",
    "384x384-color-420-q50": "8fdfd13e4a90eb740fb8ec0e999d35c4570fa2cd4c00ccaf5bc9f93afa2f8969",
    "384x384-color-420-q95": "ccc4e44615102d9d2c628e9403bfff8d72cfeae004750b12bfcb70d5d3cdf0e9",
    "384x384-color-420-q100": "81f28336716f5eaa838cd70e4fc4fd2d296fc1a326b3cbaec88a72b3720fc9a0",
    "384x384-color-444-q1": "f2325d1a0055227008728da229298f8f68af6d490972311d2853ce44e8021174",
    "384x384-color-444-q50": "2608b9f790ceb6b8cdcca2f28d3bda855faacce07d0a0566b8efc46d1a8770b0",
    "384x384-color-444-q95": "896a9eb8f4a138f9369d51c1b9017c476144ea0cfe5e4022a8f7a030ecdd900f",
    "384x384-color-444-q100": "08e3b5af471f58a6fbe7158887c9c6ea0a055c0ee1d84832666860567ce6b4bc",
    "384x384-gray-q1": "a9f9d15f1aca3d4ce2e06c4e92684a99f6952375e51916192ec1d988f0e1a0c8",
    "384x384-gray-q50": "6fc723e2c5be34bc081307fe976f6da04471a401df09a628db18cda3f969602c",
    "384x384-gray-q95": "eccc24582374a3747693e294175744f42daeeac7fe00dc1aae7666e9c9b4f358",
    "384x384-gray-q100": "4fc7dd5c6a38a736e7cacad69c6f1a20cbbde2128c3af8766bd898c9b8feac52",
}


@pytest.mark.parametrize("case", list(cases()), ids=lambda case: case[0])
def test_full_decode_matches_pinned_digest(case):
    name, *args = case
    assert decode_digest(*args) == PINNED[name]


def test_corpus_covers_every_pinned_case():
    assert {name for name, *_ in cases()} == set(PINNED)


if __name__ == "__main__":
    for name, value in current_digests().items():
        print(f'    "{name}": "{value}",')
