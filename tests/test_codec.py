import dataclasses
import random
import re
from collections import Counter
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permsteg.codec
from permsteg import (
    Alphabet,
    BlockTrace,
    EmbedResult,
    ExtractTrace,
    InvalidAlphabet,
    InvalidBlockLength,
    UnknownSymbol,
    bits_from_int,
    bits_to_bytes,
    bytes_to_bits,
    decode_index,
    draw_hidden_bits,
    encode_index,
    frame_payload,
    sample_delta,
    sorted_class_size,
    st2_embed,
    st2_extract,
    stn_embed,
    stn_embed_pieces,
    stn_extract,
    stn_extract_pieces,
    symbol_alphabet,
    unframe_bits,
)

from oracles import (
    band_index,
    brute_class_size,
    brute_decode,
    brute_decode_table,
    brute_rank,
    enumerate_class,
    multinomial,
    positional_rank,
    positional_unrank,
    set_bits,
)

AB = Alphabet(["a", "b"])
ABC = Alphabet(["a", "b", "c"])


def rngs(*seeds):
    return tuple(random.Random(s) for s in seeds)


class TestPairScheme:
    def test_textbook_session(self):
        cover = list("aababaaaabbaaaaabb")
        result = st2_embed(cover, [0, 1, 1, 0, 0], AB, random.Random(9))
        assert "".join(result.stego) == "aaabbaaabaabaaaabb"
        assert result.bits_embedded == 4
        assert result.padding_bits == 0
        extracted = st2_extract(result.stego, AB)
        assert extracted.bits == (0, 1, 1, 0)

    def test_no_mixed_pairs_embeds_nothing(self):
        result = st2_embed(list("aaaa"), [1], AB, random.Random(0))
        assert "".join(result.stego) == "aaaa"
        assert result.bits_embedded == 0

    def test_bit_zero_selects_ascending(self):
        result = st2_embed(list("ba"), [0], AB, random.Random(0))
        assert "".join(result.stego) == "ab"
        assert result.bits_embedded == 1

    def test_extract_equal_pairs_yield_nothing(self):
        assert st2_extract(list("aabb"), AB).bits == ()

    def test_extract_descending_pair(self):
        assert st2_extract(["c", "b"], ABC).bits == (1,)

    def test_trailing_odd_symbol_passes_through(self):
        result = st2_embed(list("bab"), [1], AB, random.Random(0))
        assert "".join(result.stego) == "bab"  # 'ba' with bit 1 stays descending
        assert result.bits_embedded == 1
        assert st2_extract(result.stego, AB).bits == (1,)

    def test_padding_counted_separately(self):
        cover = list("abab")
        result = st2_embed(cover, [1], AB, random.Random(3))
        assert result.bits_embedded == 1
        assert result.padding_bits == 1
        assert [rec.delta for rec in result.trace] == [1, 1]
        # extraction returns genuine + padding, in consumption order
        assert list(st2_extract(result.stego, AB).bits) == result.consumed_bits()

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol, match="'z'"):
            st2_embed(list("az"), [0], AB, random.Random(0))
        with pytest.raises(UnknownSymbol, match="'z'"):
            st2_extract(list("az"), AB)
        with pytest.raises(UnknownSymbol, match="'z'"):
            st2_extract(list("abz"), AB)

    def test_single_symbol_alphabet_rejected(self):
        with pytest.raises(InvalidAlphabet):
            st2_embed(["x", "x"], [0], Alphabet(["x"]), random.Random(0))


class TestBlockScheme:
    def test_worked_example(self):
        # this delta seed's first draw lands in band d = 1 of the class of 6
        result = stn_embed(["b", "a", "c"], [0], 3, ABC, random.Random(5), random.Random(2))
        assert result.stego == ("c", "a", "b")
        assert result.bits_embedded == 1
        rec = result.trace[0]
        assert (rec.class_size, rec.delta, rec.payload, rec.index) == (6, 1, 0, 4)
        extracted = stn_extract(result.stego, 3, ABC)
        assert extracted.bits == (0,)
        assert extracted.trace[0] == (1, 0, 4)

    def test_single_class_block_carries_nothing(self):
        result = stn_embed(
            ["a", "a", "a"], [1, 1], 3, ABC, random.Random(1), random.Random(2)
        )
        assert result.stego == ("a", "a", "a")
        assert result.bits_embedded == 0
        assert stn_extract(result.stego, 3, ABC).bits == ()

    def test_trailing_partial_block_passes_through(self):
        result = stn_embed(
            ["b", "a", "c", "c", "a"], [0], 3, ABC, random.Random(5), random.Random(2)
        )
        assert result.stego[:3] == ("c", "a", "b")
        assert result.stego[3:] == ("c", "a")
        assert len(result.trace) == 1
        assert stn_extract(result.stego, 3, ABC).bits == (0,)

    def test_block_length_validation(self):
        for n in (0, 1, -2):
            with pytest.raises(InvalidBlockLength):
                stn_embed(["a"], [], n, ABC, random.Random(0), random.Random(1))
            with pytest.raises(InvalidBlockLength):
                stn_extract(["a"], n, ABC)

    def test_unknown_symbol_in_full_and_partial_blocks(self):
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_embed(["a", "z"], [], 2, ABC, random.Random(0), random.Random(1))
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_embed(["a", "a", "z"], [], 2, ABC, random.Random(0), random.Random(1))
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_extract(["z", "a"], 2, ABC)
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_extract(["a", "a", "z"], 2, ABC)

    def test_unknown_symbol_named_in_stream_order(self):
        # 'y' sorts before 'z', but 'z' comes first in the stream
        stream = ["a", "b", "a", "z", "c", "y"]
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_embed(stream, [1] * 8, 3, ABC, random.Random(0), random.Random(1))
        with pytest.raises(UnknownSymbol, match="'z'"):
            stn_extract(stream, 3, ABC)

    def test_empty_cover(self):
        result = stn_embed([], [1, 0], 4, ABC, random.Random(0), random.Random(1))
        assert result.stego == ()
        assert result.bits_embedded == 0
        assert result.trace == ()

    def test_determinism(self):
        cover = list("abcabcacbbca")
        runs = [
            stn_embed(cover, [1, 0, 1], 3, ABC, random.Random(5), random.Random(6))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_invalid_payload_bit_rejected(self):
        with pytest.raises(ValueError):
            stn_embed(["a", "b"], [2], 2, ABC, random.Random(0), random.Random(1))


def random_model_blocks(seed, symbols, k):
    rng = random.Random(seed)
    alpha = symbol_alphabet(k)
    return [alpha.symbols[rng.randrange(k)] for _ in range(symbols)], alpha


class TestRoundTrip:
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=70),
        st.lists(st.integers(min_value=0, max_value=1), max_size=80),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_scheme_round_trip(self, k, n, cover_len, hidden, seed):
        cover, alpha = random_model_blocks(seed, cover_len, k)
        result = stn_embed(
            cover, hidden, n, alpha, random.Random(seed + 1), random.Random(seed + 2)
        )
        # length and blockwise type preservation
        assert len(result.stego) == len(cover)
        full = (len(cover) // n) * n
        for start in range(0, full, n):
            assert sorted(cover[start : start + n]) == sorted(result.stego[start : start + n])
        assert list(result.stego[full:]) == list(cover[full:])
        # bit accounting
        assert result.bits_embedded + result.padding_bits == sum(
            rec.delta for rec in result.trace
        )
        assert result.bits_embedded <= len(hidden)
        # zero-error extraction: consumed bits come back exactly, genuine first
        extracted = stn_extract(result.stego, n, alpha)
        assert list(extracted.bits) == result.consumed_bits()
        assert list(extracted.bits[: result.bits_embedded]) == hidden[: result.bits_embedded]

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=60),
        st.lists(st.integers(min_value=0, max_value=1), max_size=40),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_pair_scheme_round_trip(self, k, cover_len, hidden, seed):
        cover, alpha = random_model_blocks(seed, cover_len, k)
        result = st2_embed(cover, hidden, alpha, random.Random(seed + 2))
        assert len(result.stego) == len(cover)
        extracted = st2_extract(result.stego, alpha)
        assert list(extracted.bits) == result.consumed_bits()
        assert list(extracted.bits[: result.bits_embedded]) == hidden[: result.bits_embedded]


class TestSchemeCoincidence:
    def test_pair_and_block_schemes_agree_for_n2(self):
        # exhaustive: 3-symbol alphabet, every cover of length <= 8; for each
        # cover every full-length hidden string, plus every shorter prefix of
        # one fixed pattern (exercises the padding path with equal seeds).
        # The pair scheme's embed is checked against the per-block oracle
        # embed at n = 2, its extract against brute-force rank and decode.
        reference = TestEmbedAgainstOracles._reference
        for length in range(1, 9):
            for cover in product(ABC.symbols, repeat=length):
                mixed = sum(
                    1 for i in range(0, length - 1, 2) if cover[i] != cover[i + 1]
                )
                pattern = draw_hidden_bits(mixed, random.Random(length * 31 + mixed))
                hiddens = [pattern[:cut] for cut in range(mixed + 1)]
                if mixed:
                    hiddens += [
                        [(value >> (mixed - 1 - j)) & 1 for j in range(mixed)]
                        for value in range(1 << mixed)
                    ]
                for hidden in hiddens:
                    pair = st2_embed(cover, hidden, ABC, random.Random(77))
                    # the oracle's padding generator is seeded 76 + 1
                    stego, records, genuine, padding = reference(cover, hidden, 2, ABC, 76)
                    assert pair.stego == stego, (cover, hidden)
                    assert pair.records == records, (cover, hidden)
                    assert (pair.bits_embedded, pair.padding_bits) == (genuine, padding)
                    block = stn_embed(cover, hidden, 2, ABC, random.Random(1), random.Random(77))
                    assert block == pair
                    pair_out = st2_extract(pair.stego, ABC)
                    _, extract_ref = _reference_traces(pair.stego, 2)
                    assert pair_out.trace == extract_ref, (cover, hidden)
                    assert list(pair_out.bits) == [
                        (r >> i) & 1 for d, r, _ in extract_ref for i in reversed(range(d))
                    ]
                    assert stn_extract(block.stego, 2, ABC) == pair_out

    def test_no_delta_randomness_consumed_for_n2(self):
        delta_rng = random.Random(123)
        state = delta_rng.getstate()
        stn_embed(
            list("abbaabca"), [1, 0], 2, ABC, delta_rng, random.Random(4)
        )
        assert delta_rng.getstate() == state


class TestPieces:
    """Pieces joined equal the whole-stream result, whatever the piece size."""

    @staticmethod
    def _session(scheme, n, seed):
        """(pieces of embed, pieces of extract, whole embed, whole extract) for one cover."""
        alphabet = symbol_alphabet(8)
        rng = random.Random(seed)
        weights = [1 / i for i in range(1, 9)]
        cover = rng.choices(alphabet.symbols, weights=weights, k=60 * n + n - 1)
        hidden = [rng.getrandbits(1) for _ in range(20 * n)]
        if scheme == "st2":
            return (
                lambda: stn_embed_pieces(cover, hidden, 2, alphabet, *rngs(5, 7)),
                lambda stego: stn_extract_pieces(stego, 2, alphabet),
                lambda: st2_embed(cover, hidden, alphabet, random.Random(7)),
                lambda stego: st2_extract(stego, alphabet),
            )
        return (
            lambda: stn_embed_pieces(cover, hidden, n, alphabet, *rngs(5, 7)),
            lambda stego: stn_extract_pieces(stego, n, alphabet),
            lambda: stn_embed(cover, hidden, n, alphabet, *rngs(5, 7)),
            lambda stego: stn_extract(stego, n, alphabet),
        )

    @pytest.mark.parametrize(
        "scheme, n, piece_symbols",
        [("stn", 4, 12), ("stn", 4, 15), ("stn", 16, 8), ("st2", 2, 6), ("st2", 2, 7)],
    )
    def test_pieces_join_to_whole_stream(self, monkeypatch, scheme, n, piece_symbols):
        embed_pieces, extract_pieces, embed, extract = self._session(scheme, n, piece_symbols)
        (whole,) = embed_pieces()  # the default piece holds the whole cover
        (whole_bits,) = extract_pieces(whole.stego)
        assert whole.padding_bits > 0
        assert len(whole.stego) % n

        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", piece_symbols)
        size = max(n, piece_symbols - piece_symbols % n)
        pieces = list(embed_pieces())
        assert len(pieces) > 10
        assert all(len(piece.stego) == size for piece in pieces[:-1])
        assert 0 < len(pieces[-1].stego) < size
        assert sum((piece.stego for piece in pieces), ()) == whole.stego
        assert sum((piece.trace for piece in pieces), ()) == whole.trace
        assert sum(piece.bits_embedded for piece in pieces) == whole.bits_embedded
        assert sum(piece.padding_bits for piece in pieces) == whole.padding_bits
        parts = list(extract_pieces(whole.stego))
        assert len(parts) == len(pieces)
        assert sum((part.bits for part in parts), ()) == whole_bits.bits
        assert sum((part.trace for part in parts), ()) == whole_bits.trace
        assert embed() == whole
        assert extract(whole.stego) == whole_bits

    @pytest.mark.parametrize("scheme", ["stn", "st2"])
    def test_unknown_symbol_in_a_late_piece(self, monkeypatch, scheme):
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 8)
        cover = list("abcabcabcabcabcabcabcabcabcabcab") + ["z"]
        if scheme == "st2":
            pieces = stn_embed_pieces(cover, [1, 0] * 20, 2, ABC, *rngs(0, 1))
            parts = stn_extract_pieces(cover, 2, ABC)
        else:
            pieces = stn_embed_pieces(cover, [1, 0] * 20, 4, ABC, *rngs(1, 2))
            parts = stn_extract_pieces(cover, 4, ABC)
        assert len(next(pieces).stego) == 8
        with pytest.raises(UnknownSymbol, match="'z'"):
            list(pieces)
        assert len(next(parts).records) == 8 // (2 if scheme == "st2" else 4)
        with pytest.raises(UnknownSymbol, match="'z'"):
            list(parts)

    def test_unknown_symbol_in_a_piece_yields_none_of_it(self, monkeypatch):
        # the piece is checked before any of its blocks is coded
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 8)
        cover = list("abcabcab") + list("cabcazbc")
        pieces = stn_embed_pieces(cover, [1, 0] * 20, 4, ABC, *rngs(1, 2))
        assert len(next(pieces).stego) == 8
        with pytest.raises(UnknownSymbol, match="'z'"):
            next(pieces)
        parts = stn_extract_pieces(cover, 4, ABC)
        assert len(next(parts).records) == 2
        with pytest.raises(UnknownSymbol, match="'z'"):
            next(parts)


class TestExtractAgainstOracles:
    """stn_extract's records and bits equal a per-block decode by the oracles."""

    @staticmethod
    def _reference(stego, n, alphabet):
        """Per full block: class size and rank by brute force on short blocks,
        by the multinomial and the positional scan on longer ones; the band by
        the brute-force table on small classes, by the offset formula else."""
        records, bits, tables = [], [], {}
        for start in range(0, len(stego) - n + 1, n):
            block = tuple(stego[start : start + n])
            if n <= 6:
                size, tau = brute_class_size(block), brute_rank(block)
            else:
                indices = [alphabet.index(token) for token in block]
                size = multinomial(Counter(indices).values())
                tau = positional_rank(indices)
            if size <= 4096:
                if size not in tables:
                    tables[size] = brute_decode_table(size)
                d, r = tables[size][tau]
                assert (d, r) == brute_decode(size, tau)
            else:
                (d,) = [
                    d for d in set_bits(size)
                    if 0 <= tau - band_index(size, d, 0) < 1 << d
                ]
                r = tau - band_index(size, d, 0)
            records.append((d, r, tau))
            bits.extend((r >> shift) & 1 for shift in range(d - 1, -1, -1))
        return tuple(records), tuple(bits)

    @staticmethod
    def _cases():
        rng = random.Random(20261018)
        for _ in range(40):
            k, n = rng.randint(2, 40), rng.randint(2, 12)
            yield k, n, rng.randrange(1 << 30), 40
        yield 3, 64, 1, 6
        yield 26, 64, 2, 6
        yield 256, 256, 3, 3

    def test_records_and_bits_match_per_block_reference(self, monkeypatch):
        for k, n, seed, blocks in self._cases():
            alphabet = symbol_alphabet(k)
            rng = random.Random(seed)
            # Zipf weights, so short blocks recur and hit the decode map
            weights = [1 / i for i in range(1, k + 1)]
            stego = rng.choices(alphabet.symbols, weights=weights, k=n * blocks + n // 2)
            records, bits = self._reference(stego, n, alphabet)
            whole = stn_extract(stego, n, alphabet)
            assert whole.records == records, (k, n, seed)
            assert whole.bits == bits, (k, n, seed)
            with monkeypatch.context() as patch:
                patch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 8)
                parts = list(stn_extract_pieces(stego, n, alphabet))
            assert len(parts) == blocks // max(1, 8 // n) + 1, (k, n, seed)
            assert sum((part.records for part in parts), ()) == records, (k, n, seed)
            assert sum((part.bits for part in parts), ()) == bits, (k, n, seed)

    @pytest.mark.parametrize(
        "k, n, blocks", [(5, 3, 60), (8, 4, 60), (26, 10, 30), (256, 256, 3)]
    )
    def test_records_equal_decode_index(self, k, n, blocks):
        # extract's inline band decode against payload.decode_index on each
        # block's class size: random classes, then N = 1 and N = n at ranks
        # n - 1 and 0 (a power of two at n = 4 and n = 256)
        alphabet = symbol_alphabet(k)
        rng = random.Random(k * n)
        a, b = alphabet.symbols[:2]
        stego = rng.choices(alphabet.symbols, k=n * blocks)
        stego += [a] * n + [b] + [a] * (n - 1) + [a] * (n - 1) + [b]
        sizes = []
        result = stn_extract(stego, n, alphabet)
        for start, (d, r, tau) in zip(range(0, len(stego), n), result.records):
            size = sorted_class_size(sorted(stego[start : start + n]))
            assert (d, r) == decode_index(size, tau), (k, n, start)
            sizes.append(size)
        assert len(sizes) == blocks + 3
        assert sizes[-3:] == [1, n, n]
        assert [tau for _, _, tau in result.records[-3:]] == [0, n - 1, 0]


def _zipf_cover(k, n, blocks, seed):
    """A Zipf cover of ``blocks`` blocks plus half a block, so short blocks recur."""
    alphabet = symbol_alphabet(k)
    rng = random.Random(seed)
    weights = [1 / i for i in range(1, k + 1)]
    return rng.choices(alphabet.symbols, weights=weights, k=n * blocks + n // 2), alphabet


class TestEmbedAgainstOracles:
    """stn_embed's stego and records equal a per-block embed by the oracles."""

    @staticmethod
    def _reference(cover, hidden, n, alphabet, seed):
        """Per full block: the class size by brute force on short blocks, by the
        multinomial on longer ones; the payload length and index by
        payload.sample_delta/encode_index on a twin delta generator; the word
        from the enumerated class on short blocks, by the positional scan else."""
        delta_rng, padding_rng = rngs(seed, seed + 1)
        feed = _PerBitFeed(hidden, padding_rng)
        stego, records = [], []
        for start in range(0, len(cover) - n + 1, n):
            block = tuple(cover[start : start + n])
            indices = [alphabet.index(token) for token in block]
            if n <= 6:
                size = brute_class_size(block)
            else:
                size = multinomial(Counter(indices).values())
            d = sample_delta(size, delta_rng)
            r = feed.pull(0, 0, d)[0]
            tau = encode_index(size, d, r)
            if n <= 6:
                stego.extend(enumerate_class(block)[tau])
            else:
                stego.extend(alphabet[i] for i in positional_unrank(sorted(indices), tau, size))
            records.append((size, d, r, tau))
        stego.extend(cover[len(cover) - len(cover) % n :])
        return tuple(stego), tuple(records), feed.pulled, feed.padding

    @staticmethod
    def _cases():
        rng = random.Random(20261019)
        for _ in range(40):
            k, n = rng.randint(2, 40), rng.randint(2, 12)
            yield k, n, rng.randrange(1 << 30), 60
        yield 3, 64, 1, 6
        yield 26, 64, 2, 6
        yield 256, 256, 3, 3

    def test_stego_and_records_match_per_block_reference(self, monkeypatch):
        mid_block = 0
        for k, n, seed, blocks in self._cases():
            cover, alphabet = _zipf_cover(k, n, blocks, seed)
            # payload lengths do not depend on the payload, so a first pass
            # finds a block of d >= 2 bits to run the payload out inside of
            _, records, _, _ = self._reference(cover, [], n, alphabet, seed)
            ends = list(accumulate(d for _, d, _, _ in records))
            spans = list(zip([0] + ends, ends))
            half = spans[-1][1] // 2
            cut = next((end - 1 for start, end in spans if end > half and end - start >= 2), half)
            mid_block += any(start < cut < end for start, end in spans)
            hidden = draw_hidden_bits(cut, random.Random(seed))
            stego, records, genuine, padding = self._reference(cover, hidden, n, alphabet, seed)
            assert genuine == cut and padding > 0, (k, n, seed)
            whole = stn_embed(cover, hidden, n, alphabet, *rngs(seed, seed + 1))
            assert whole.stego == stego, (k, n, seed)
            assert whole.records == records, (k, n, seed)
            assert (whole.bits_embedded, whole.padding_bits) == (genuine, padding), (k, n, seed)
            with monkeypatch.context() as patch:
                patch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 8)
                pieces = list(stn_embed_pieces(cover, hidden, n, alphabet, *rngs(seed, seed + 1)))
            assert len(pieces) == blocks // max(1, 8 // n) + 1, (k, n, seed)
            assert sum((piece.stego for piece in pieces), ()) == stego, (k, n, seed)
            assert sum((piece.records for piece in pieces), ()) == records, (k, n, seed)
            assert sum(piece.bits_embedded for piece in pieces) == genuine, (k, n, seed)
            assert sum(piece.padding_bits for piece in pieces) == padding, (k, n, seed)
        assert mid_block >= 30

    @staticmethod
    def _embed_with_caps(hidden, cover, alphabet, n, cap):
        """Joined pieces of an embed, checking after each piece that embed's
        class map and raw-block memo hold at most ``cap`` entries, and its
        member tables (an entry's third item) at most ``cap`` words."""
        pieces, sizes = [], []
        gen = stn_embed_pieces(cover, hidden, n, alphabet, *rngs(5, 6))
        for piece in gen:
            pieces.append(piece)
            state = gen.gi_frame.f_locals
            sizes.append((len(state["classes"]), len(state["memo"])))
            assert max(sizes[-1]) <= cap
            assert sum(len(entry[2] or ()) for entry in state["classes"].values()) <= cap
        stego = sum((piece.stego for piece in pieces), ())
        return stego, sum((piece.records for piece in pieces), ()), sizes[-1]

    @pytest.mark.parametrize("k, n", [(8, 4), (4, 6), (3, 8)])
    def test_member_table_caps_do_not_change_output(self, monkeypatch, k, n):
        cover, alphabet = _zipf_cover(k, n, 400, seed=k * n)
        hidden = draw_hidden_bits(200 * n, random.Random(n))
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 64)
        unranks = []
        original = permsteg.codec.unrank_indices

        def counted(*args):
            unranks.append(args)
            return original(*args)

        monkeypatch.setattr(permsteg.codec, "unrank_indices", counted)
        budget = permsteg.codec._MEMBER_TABLE_BUDGET
        default = self._embed_with_caps(hidden, cover, alphabet, n, budget)
        default_unranks = len(unranks)
        assert default_unranks < 400  # member tables served some blocks
        assert min(default[2]) > 4  # more distinct classes and raw blocks than the cap below
        with monkeypatch.context() as patch:
            patch.setattr(permsteg.codec, "_MEMBER_TABLE_MAX_CLASS", 0)
            del unranks[:]
            no_tables = self._embed_with_caps(hidden, cover, alphabet, n, 0)
            assert len(unranks) == 400  # every block unranked
        assert no_tables[:2] == default[:2]
        for cap in (4, 40):
            with monkeypatch.context() as patch:
                patch.setattr(permsteg.codec, "_MEMBER_TABLE_BUDGET", cap)
                del unranks[:]
                capped = self._embed_with_caps(hidden, cover, alphabet, n, cap)
                assert default_unranks <= len(unranks) <= 400
            assert capped[:2] == default[:2]


class TestConsumedBits:
    """consumed_bits() packs per 64-bit window what bits_from_int gives per record."""

    @staticmethod
    def _per_record(records):
        return [bit for _, d, r, _ in records for bit in bits_from_int(r, d)]

    @pytest.mark.parametrize(
        "records",
        [
            (),
            ((1, 0, 0, 0),) * 70,
            ((6, 2, 3, 3), (1, 0, 0, 0), (6, 1, 0, 4), (12, 3, 5, 5), (24, 4, 9, 9)) * 40,
            ((1 << 70, 70, (1 << 70) - 1, (1 << 70) - 1), (2, 1, 0, 0), (1 << 64, 64, 5, 5)),
        ],
    )
    def test_synthetic_records(self, records):
        result = EmbedResult((), 0, 0, records)
        assert result.consumed_bits() == self._per_record(records)

    @pytest.mark.parametrize("k, n, blocks", [(8, 4, 300), (26, 10, 60), (256, 256, 4)])
    def test_embedded_records_and_joined_pieces(self, monkeypatch, k, n, blocks):
        cover, alphabet = _zipf_cover(k, n, blocks, seed=n)
        hidden = draw_hidden_bits(blocks * n, random.Random(k))
        whole = stn_embed(cover, hidden, n, alphabet, *rngs(1, 2))
        bits = whole.consumed_bits()
        assert bits == self._per_record(whole.records)
        assert list(stn_extract(whole.stego, n, alphabet).bits) == bits
        if k == 256:
            assert min(d for _, d, _, _ in whole.records) >= 64
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 3 * n)
        pieces = list(stn_embed_pieces(cover, hidden, n, alphabet, *rngs(1, 2)))
        assert sum((piece.consumed_bits() for piece in pieces), []) == bits


class _PerBitFeed:
    """The payload feed read one bit at a time: the reference for the window.

    Its ``pull`` leaves no window, so the codec calls it for every read of a
    bit or more; the padding bits of a read are drawn as one ``getrandbits``.
    """

    def __init__(self, bits, padding_rng):
        self._iter = iter(bits)
        self._rng = padding_rng
        self.pulled = 0
        self.padding = 0

    def pull(self, window, avail, count):
        value = 0
        for taken in range(count):
            bit = next(self._iter, None)
            if bit is None:
                pad = count - taken
                self.padding += pad
                return (value << pad) | self._rng.getrandbits(pad), 0, 0
            value = (value << 1) | bit
            self.pulled += 1
        return value, 0, 0


class TestBitWindow:
    """Payload bits enter the codec through a window of 64 bits."""

    @staticmethod
    def _cover(k, n, blocks, seed=3):
        alphabet = symbol_alphabet(k)
        rng = random.Random(seed)
        return [rng.choice(alphabet.symbols) for _ in range(n * blocks)], alphabet

    @pytest.mark.parametrize("bad", [2, -1, "1", 1.5, None])
    @pytest.mark.parametrize("position", [0, 5, 100])
    def test_bad_bit_raises(self, bad, position):
        cover, alphabet = self._cover(8, 4, 200)
        hidden = draw_hidden_bits(position, random.Random(position)) + [bad, 0]
        # the error names the offending item, whatever its type
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            stn_embed(cover, hidden, 4, alphabet, *rngs(1, 2))
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            st2_embed(cover, hidden, alphabet, random.Random(2))

    def test_bools_accepted(self):
        cover, alphabet = self._cover(8, 4, 100)
        hidden = draw_hidden_bits(150, random.Random(9))
        as_bools = [bool(bit) for bit in hidden]
        assert stn_embed(cover, as_bools, 4, alphabet, *rngs(1, 2)) == stn_embed(
            cover, hidden, 4, alphabet, *rngs(1, 2)
        )
        assert st2_embed(cover, as_bools, alphabet, random.Random(2)) == st2_embed(
            cover, hidden, alphabet, random.Random(2)
        )

    @pytest.mark.parametrize("length", [63, 64, 65, 130])
    @pytest.mark.parametrize("k, n", [(8, 2), (8, 4), (16, 16), (64, 64)])
    def test_payload_running_out_matches_per_bit_feed(self, monkeypatch, length, k, n):
        cover, alphabet = self._cover(k, n, 300 if n == 2 else 100, seed=length * k + 6)
        hidden = draw_hidden_bits(length, random.Random(length))
        window = stn_embed(cover, hidden, n, alphabet, *rngs(1, 2))
        if n == 2:
            assert st2_embed(cover, hidden, alphabet, random.Random(2)) == window
        else:
            # the payload runs out inside a block, which then takes padding too
            ends = list(accumulate(rec.delta for rec in window.trace))
            assert any(start < length < end for start, end in zip([0] + ends, ends))
        monkeypatch.setattr(permsteg.codec, "_BitFeed", _PerBitFeed)
        per_bit = stn_embed(cover, hidden, n, alphabet, *rngs(1, 2))
        assert window.bits_embedded == per_bit.bits_embedded == length
        assert window.padding_bits == per_bit.padding_bits > 0
        assert window.stego == per_bit.stego
        assert window.records == per_bit.records

    @pytest.mark.parametrize("k, n", [(8, 2), (8, 4), (64, 64)])
    def test_unread_window_bits_not_counted(self, monkeypatch, k, n):
        cover, alphabet = self._cover(k, n, 50)
        hidden = draw_hidden_bits(50 * n * 8, random.Random(k))
        pulled = []

        def counted():
            for bit in hidden:
                pulled.append(bit)
                yield bit

        window = stn_embed(cover, counted(), n, alphabet, *rngs(1, 2))
        assert window.padding_bits == 0
        assert window.bits_embedded == sum(rec.delta for rec in window.trace)
        assert 0 <= len(pulled) - window.bits_embedded < 64
        if n == 2:
            del pulled[:]
            assert st2_embed(cover, counted(), alphabet, random.Random(2)) == window
            assert 0 <= len(pulled) - window.bits_embedded < 64
        monkeypatch.setattr(permsteg.codec, "_BitFeed", _PerBitFeed)
        per_bit = stn_embed(cover, hidden, n, alphabet, *rngs(1, 2))
        assert (window.stego, window.bits_embedded) == (per_bit.stego, per_bit.bits_embedded)

    @pytest.mark.parametrize("length", [30, 64, 150])
    def test_pair_window_spans_pieces(self, monkeypatch, length):
        # pieces of 8 pairs carry at most 8 bits each, so one 64-bit window
        # serves several pieces, and the payload runs out inside a piece
        cover, alphabet = self._cover(8, 2, 400, seed=length)
        hidden = draw_hidden_bits(length, random.Random(length))
        whole = stn_embed(cover, hidden, 2, alphabet, *rngs(1, 2))
        assert whole.bits_embedded == length and whole.padding_bits > 0
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 16)
        for feed in (permsteg.codec._BitFeed, _PerBitFeed):
            monkeypatch.setattr(permsteg.codec, "_BitFeed", feed)
            pieces = list(stn_embed_pieces(cover, hidden, 2, alphabet, *rngs(1, 2)))
            assert len(pieces) == 51  # the last one empty
            assert any(piece.bits_embedded and piece.padding_bits for piece in pieces)
            assert sum((piece.stego for piece in pieces), ()) == whole.stego
            assert sum((piece.records for piece in pieces), ()) == whole.records
            assert sum(piece.bits_embedded for piece in pieces) == length
            assert sum(piece.padding_bits for piece in pieces) == whole.padding_bits

    @pytest.mark.parametrize("length", [30, 64, 150])
    @pytest.mark.parametrize("k, n", [(8, 2), (8, 4), (16, 16)])
    def test_each_piece_counts_the_bits_its_blocks_read(self, monkeypatch, length, k, n):
        # a 64-bit window serves several 16-symbol pieces, and the payload
        # runs out inside one; each piece counts exactly the bits its records
        # read, none of the window's unread ones
        cover, alphabet = self._cover(k, n, 800 // n, seed=length + n)
        hidden = draw_hidden_bits(length, random.Random(length))
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 16)
        pieces = list(stn_embed_pieces(cover, hidden, n, alphabet, *rngs(1, 2)))
        for piece in pieces:
            delta = sum(d for _, d, _, _ in piece.records)
            assert piece.bits_embedded + piece.padding_bits == delta
        assert sum(piece.bits_embedded for piece in pieces) == length
        assert any(piece.bits_embedded and piece.padding_bits for piece in pieces)


def _reference_traces(stego, n):
    """Embed and extract records built block by block with the brute-force oracles."""
    embed, extract = [], []
    for start in range(0, len(stego) - n + 1, n):
        block = stego[start : start + n]
        size, tau = brute_class_size(block), brute_rank(block)
        d, r = brute_decode(size, tau)
        embed.append(BlockTrace(size, d, r, tau))
        extract.append(ExtractTrace(d, r, tau))
    return tuple(embed), tuple(extract)


class TestTraceOnRequest:
    """trace, blocks and consumed_bits() are built from compact records."""

    @staticmethod
    def _check(result, extracted, n):
        embed_ref, extract_ref = _reference_traces(result.stego, n)
        assert result.trace == embed_ref
        assert [str(rec) for rec in result.trace] == [str(rec) for rec in embed_ref]
        assert result.blocks == len(embed_ref)
        bits = [(rec.payload >> i) & 1 for rec in embed_ref for i in reversed(range(rec.delta))]
        assert result.consumed_bits() == bits
        assert extracted.trace == extract_ref
        assert list(extracted.bits) == bits

    @pytest.mark.parametrize("scheme, n", [("stn", 4), ("stn", 5), ("st2", 2)])
    def test_whole_stream_and_joined_pieces(self, monkeypatch, scheme, n):
        rng = random.Random(n)
        cover = [rng.choice(ABC.symbols) for _ in range(30 * n + 1)]
        hidden = [rng.getrandbits(1) for _ in range(5 * n)]
        if scheme == "st2":
            embed = lambda: stn_embed_pieces(cover, hidden, 2, ABC, *rngs(5, 7))
            extract = lambda stego: stn_extract_pieces(stego, 2, ABC)
        else:
            embed = lambda: stn_embed_pieces(cover, hidden, n, ABC, *rngs(5, 7))
            extract = lambda stego: stn_extract_pieces(stego, n, ABC)
        (whole,) = embed()
        (whole_bits,) = extract(whole.stego)
        assert whole.padding_bits > 0
        self._check(whole, whole_bits, n)
        monkeypatch.setattr(permsteg.codec, "_PIECE_SYMBOLS", 3 * n)
        pieces = list(embed())
        parts = list(extract(whole.stego))
        assert len(pieces) == len(parts) > 10
        for piece, part in zip(pieces, parts):
            self._check(piece, part, n)
        assert sum(piece.blocks for piece in pieces) == whole.blocks
        assert sum((piece.consumed_bits() for piece in pieces), []) == whole.consumed_bits()

    def test_replace_and_equality(self):
        cover = list("abcabcacbbcacbaacb")
        runs = [stn_embed(cover, [1, 0, 1, 1], 3, ABC, *rngs(5, 6)) for _ in range(2)]
        assert runs[0] == runs[1]
        swapped = dataclasses.replace(runs[0], stego=tuple(reversed(runs[0].stego)))
        assert swapped.stego == tuple(reversed(runs[0].stego))
        assert swapped.trace == runs[0].trace
        assert swapped != runs[0]
        extracted = [stn_extract(runs[0].stego, 3, ABC) for _ in range(2)]
        assert extracted[0] == extracted[1]
        flipped = dataclasses.replace(extracted[0], bits=(1,) + extracted[0].bits[1:])
        assert flipped.trace == extracted[0].trace


class TestFraming:
    def test_frame_round_trip_through_codec(self):
        payload = b"attack at dawn"
        framed = frame_payload(payload)
        assert framed[:4] == (14).to_bytes(4, "big")
        hidden = bytes_to_bits(framed)
        cover, alpha = random_model_blocks(99, 600, 4)
        result = stn_embed(
            cover, hidden, 4, alpha, random.Random(7), random.Random(8)
        )
        assert result.bits_embedded == len(hidden)
        extracted = stn_extract(result.stego, 4, alpha)
        assert unframe_bits(extracted.bits) == payload

    def test_unframe_rejects_truncation(self):
        with pytest.raises(ValueError):
            unframe_bits([0] * 16)
        with pytest.raises(ValueError):
            unframe_bits(bytes_to_bits(frame_payload(b"abc"))[:-9])

    @pytest.mark.parametrize("payload", [b"", b"abc"])
    @pytest.mark.parametrize("cut", [0, 5], ids=["frame-ends-a-piece", "frame-ends-mid-piece"])
    def test_write_payload_stops_at_the_frame_end(self, payload, cut):
        frame = bytes_to_bits(frame_payload(payload))
        # the frame's last bit ends the third piece, or falls 5 bits before its end
        extra = [1, 0, 1, 1, 0][:cut]
        pieces = [frame[:20], frame[20:-9], frame[-9:] + extra, [0, 1] * 8, [1] * 5]

        def fed():
            yield from pieces[:3]
            raise AssertionError("pulled a piece past the one that completes the frame")

        out = bytearray()
        assert permsteg.codec.write_payload(fed(), True, out.extend) == (
            len(frame), 8 * len(payload)
        )
        assert out == payload
        # unframed, every piece is read
        taken = []
        out = bytearray()
        stream = sum(pieces, [])
        assert permsteg.codec.write_payload(
            (taken.append(bits) or bits for bits in pieces), False, out.extend
        ) == (len(stream), len(stream))
        assert taken == pieces
        assert out == bits_to_bytes(stream)

    def test_write_payload_short_frame_errors(self):
        frame = bytes_to_bits(frame_payload(b"abc"))
        with pytest.raises(ValueError, match=re.escape("framed stream needs >= 32 bits, got 31")):
            permsteg.codec.write_payload([frame[:20], frame[20:31]], True, bytearray().extend)
        with pytest.raises(ValueError, match=re.escape(
            "framed stream truncated: header says 3 bytes, only 2 available"
        )):
            permsteg.codec.write_payload([frame[:20], frame[20:-1]], True, bytearray().extend)

    @pytest.mark.parametrize("bad", [2, 300, 1.0, "1"])
    @pytest.mark.parametrize("at", [0, 40], ids=["header", "payload"])
    def test_unframe_names_a_non_bit(self, bad, at):
        bits = bytes_to_bits(frame_payload(b"ab"))
        bits[at] = bad
        with pytest.raises(ValueError, match=re.escape(f"bit must be 0 or 1, got {bad!r}")):
            unframe_bits(bits)
