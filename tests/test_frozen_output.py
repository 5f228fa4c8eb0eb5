"""Frozen outputs: stego streams and extracted bits for fixed seeds.

A refactor of the codec, the band code or the rank/unrank layer must keep
these byte-identical. A change that alters a digest changes what a given
seed produces and has to say so.

The uniform k=256, n=16 cover has mostly all-distinct blocks, whose class
size 16! is not a power of two, so every such block consumes the
payload-length generator. The Zipf k=4, n=64 cover has long runs of equal
letters and classes far above the member-table limit, so every block goes
through rank/unrank and the boundaries between runs of equal letters.
The Zipf k=8, n=4 cover has classes of at most 24 members that recur
thousands of times, so it runs the recurring-class paths: embed's member
tables and the blocks extract decodes once and then looks up.
The uniform k=256, n=256 cover has class sizes of some 1,600 bits, so its
blocks run the chunked rank and unrank of big classes.
Inputs are drawn here with ``random`` directly, so the digests do not
depend on ``permsteg.sources``.
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
ZIPF4_EMBED_SHA256 = {
    1: "ae61d178b7916a81146d7950e405e55925ec9c1b5134a0ce1392c732b32ba0ea",
    2: "8dcf435cb7e61580fe3bda01cc5265573562f2aa3c01f0558778cb6edff91460",
    3: "818c1ede21acdee9b83d615ace59c8016e120314027237691f5a3d6c63feaf84",
}
ZIPF4_EXTRACT_SHA256 = {
    1: "e93efde63a80324057ed1c1a0a533971fd78929bf17d908912fcd84f0148883f",
    2: "9e5532fc3f3004d0c7de77767e9ff776cbb2e47da8af246f8d930d285d1ae7de",
    3: "9c1470d744d7db047446ff699ecbed5a44781deedc29925d3eb8ed3e68bce479",
}
ZIPF8_EMBED_SHA256 = {
    1: "5083185d88916621307e26748a12ad5c355b0ac8959dd9b75ee2718c31a978c9",
    2: "e85edb65b7bc05e671d009b1b418619f3837051129bc8d1a5bcc8f06da473c18",
    3: "421653cb52211ecb536f7f007e88c89d5c63063f429baf639cbb8dd1cb0b5f1c",
}
ZIPF8_EXTRACT_SHA256 = {
    1: "2f67861b476b3dacb76a7b45b068803ea9d8e98ead0c1f4e2abf2830d98ccb4c",
    2: "497bd3d463d6eeb62fc128252d181c7d8e7d19eee83324210ddf911c56945731",
    3: "c03b5aa03b5a393219c6b606f23ccd14a898239d7c9118678acce7a3dfa03c1c",
}
ZIPF8_EXTRACT_TRACE_SHA256 = {
    1: "27a2334c8d21112c29f3c9cab38801a9ecd70fe9eaadbc25391367d74a511006",
    2: "154d1523124aaa8c001443bd4d768ff549352d2e7b681f78fd0cdfc0375cc865",
    3: "6c57184f97685f4575688d421265f98ce929295f5bb646fee8cbd216de7f72e1",
}
LARGE_EMBED_SHA256 = {
    1: "06b120279928c93c495e3fffd3a62a223e4a8d90569cf21a3a28454808d5d3ed",
    2: "cbd494166ff164a9259d78911af986a83cfde1c87355369011f59440a6eb02e4",
    3: "26063c22ff0e4f4af801ed4c0f826ed0626c3b2ecf772ddce3b0f6fe279a7b35",
}
LARGE_EXTRACT_SHA256 = {
    1: "01473c51694ef3dc211d78bb3fc1f9f194eb41b21abc7b164fcc708aaf517f37",
    2: "40c704bfacb2a49a183f62da0fa9175b6f8cd482fc3f31122f6ee87655104080",
    3: "30f613a913f6504e2649861af16652ebfb0b5577aa7ceb94a3858207f66e9000",
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


def test_stn_repeated_letter_classes_frozen():
    alphabet = symbol_alphabet(4)
    weights = [1 / i for i in range(1, 5)]
    for seed in STN_SEEDS:
        rng = random.Random(seed)
        cover = rng.choices(alphabet.symbols, weights=weights, k=64 * 60 + 7)
        hidden = [rng.getrandbits(1) for _ in range(4000)]
        result = stn_embed(
            cover, hidden, 64, alphabet, random.Random(seed + 100), random.Random(seed + 200)
        )
        extracted = stn_extract(result.stego, 64, alphabet)
        assert _digest(result.stego) == ZIPF4_EMBED_SHA256[seed], seed
        assert _digest(extracted.bits) == ZIPF4_EXTRACT_SHA256[seed], seed


def test_stn_recurring_small_classes_frozen():
    alphabet = symbol_alphabet(8)
    weights = [1 / i for i in range(1, 9)]
    for seed in STN_SEEDS:
        rng = random.Random(seed)
        cover = rng.choices(alphabet.symbols, weights=weights, k=4 * 5000 + 3)
        hidden = [rng.getrandbits(1) for _ in range(12_000)]
        result = stn_embed(
            cover, hidden, 4, alphabet, random.Random(seed + 100), random.Random(seed + 200)
        )
        extracted = stn_extract(result.stego, 4, alphabet)
        assert result.padding_bits > 0, seed
        assert _digest(result.stego) == ZIPF8_EMBED_SHA256[seed], seed
        assert _digest(extracted.bits) == ZIPF8_EXTRACT_SHA256[seed], seed
        assert _digest(extracted.trace) == ZIPF8_EXTRACT_TRACE_SHA256[seed], seed


def test_stn_large_classes_frozen():
    alphabet = symbol_alphabet(256)
    for seed in STN_SEEDS:
        rng = random.Random(seed)
        cover = [rng.choice(alphabet.symbols) for _ in range(256 * 12 + 9)]
        hidden = [rng.getrandbits(1) for _ in range(16_000)]
        result = stn_embed(
            cover, hidden, 256, alphabet, random.Random(seed + 100), random.Random(seed + 200)
        )
        extracted = stn_extract(result.stego, 256, alphabet)
        assert result.padding_bits > 0, seed
        assert _digest(result.stego) == LARGE_EMBED_SHA256[seed], seed
        assert _digest(extracted.bits) == LARGE_EXTRACT_SHA256[seed], seed


def test_st2_embed_frozen():
    alphabet = symbol_alphabet(8)
    weights = [1 / i for i in range(1, 9)]
    for seed in ST2_EMBED_SHA256:
        rng = random.Random(seed)
        cover = rng.choices(alphabet.symbols, weights=weights, k=6001)
        hidden = [rng.getrandbits(1) for _ in range(2000)]
        result = st2_embed(cover, hidden, alphabet, random.Random(seed + 300))
        assert _digest(result.stego) == ST2_EMBED_SHA256[seed], seed
