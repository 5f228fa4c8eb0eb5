"""Frozen outputs: stego streams and extracted bits for fixed seeds.

A refactor of the codec, the band code or the rank/unrank layer must keep
these byte-identical. A change that alters a digest changes what a given
seed produces and has to say so.

The uniform k=256, n=16 cover has mostly all-distinct blocks, whose class
size 16! is not a power of two, so every such block consumes the
payload-length generator. Inputs are drawn here with ``random`` directly,
so the digests do not depend on ``permsteg.sources``.
"""

import hashlib
import random

from permsteg import st2_embed, stn_embed, stn_extract, symbol_alphabet

STN_SEEDS = (1, 2, 3)
STN_EMBED_SHA256 = {
    1: "ab1743b5c476f9f0ca9974991dfd3d3135e878bc513c0ed37d2f0db39662383d",
    2: "97d361b3041d4c24ea7b7a15d4c3dd06450b23f6988802de55617e78a3055e1f",
    3: "c03733702455c49f1e90dc1f8f897e1ae5581dab1324523505c9ea1e4106c462",
}
STN_EXTRACT_SHA256 = {
    1: "28339fff53c6aa1228444ed585614a0c3a28b34fc74519b80a0d3fd50bf13ffe",
    2: "6ef5af2c1363e70c5fa8c429aaaf99650f312a1a11d445b1522ed2e42e3cbb1e",
    3: "5df446ab60e736ba733eed252e8c85c579369c515bfb42457aeb600a26752226",
}
ST2_EMBED_SHA256 = {
    1: "236da48fa33fe5d7b76cb65bd836c5086ebcf30dc94fb4081ec5bfbf4bfe6c61",
    2: "f94d4bac6df766cca50a77208c3952b5960b0bdd88c9f3d4bf9298cc974931ca",
}


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(str, items)).encode()).hexdigest()


def _stn_session(seed):
    alphabet = symbol_alphabet(256)
    rng = random.Random(seed)
    cover = [rng.choice(alphabet.symbols) for _ in range(16 * 300 + 5)]
    hidden = [rng.getrandbits(1) for _ in range(10_000)]
    result = stn_embed(
        cover, hidden, 16, alphabet, random.Random(seed + 100), random.Random(seed + 200)
    )
    return result, stn_extract(result.stego, 16, alphabet)


def test_stn_embed_and_extract_frozen():
    for seed in STN_SEEDS:
        result, extracted = _stn_session(seed)
        assert _digest(result.stego) == STN_EMBED_SHA256[seed], seed
        assert _digest(extracted.bits) == STN_EXTRACT_SHA256[seed], seed


def test_st2_embed_frozen():
    alphabet = symbol_alphabet(8)
    weights = [1 / i for i in range(1, 9)]
    for seed in ST2_EMBED_SHA256:
        rng = random.Random(seed)
        cover = rng.choices(alphabet.symbols, weights=weights, k=6001)
        hidden = [rng.getrandbits(1) for _ in range(2000)]
        result = st2_embed(cover, hidden, alphabet, random.Random(seed + 300))
        assert _digest(result.stego) == ST2_EMBED_SHA256[seed], seed
