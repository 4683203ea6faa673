import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxelcodec import (AdaptiveContextModel, DecodeError, DynamicContextModel, PointCloud,
                        UniformModel, VoxelContextModel, build, coded_bpp, coder,
                        decode_cloud, decode_sequence, encode_cloud,
                        encode_sequence, model_code_lengths, normalize, payload_size,
                        quantize_distribution, reconstruct_centers)
from voxelcodec.coder import TOTAL_FREQ, RangeDecoder, RangeEncoder, quantize_level
from voxelcodec.entropy import LOG2_ALPHABET

from conftest import VCNB_V3_UNIFORM, moving_sequence, random_cloud, structured_cloud


class TestQuantize:
    def test_uniform_apportionment(self):
        table = quantize_distribution(np.full(255, 1.0 / 255))
        # 65536 = 255*257 + 1; the remainder tie-break hands the spare unit to symbol 1
        assert table.freq[0] == 258
        assert np.all(table.freq[1:] == 257)
        assert table.freq.sum() == 65536

    def test_point_mass_floor(self):
        p = np.zeros(255)
        p[0] = 1.0
        table = quantize_distribution(p)
        assert table.freq[0] == 65536 - 254
        assert np.all(table.freq[1:] == 1)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.full(255, rng.uniform(0.02, 5.0)))
            t1 = quantize_distribution(p)
            t2 = quantize_distribution(t1.freq / 65536.0)
            assert np.array_equal(t1.freq, t2.freq)

    def test_every_freq_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.dirichlet(np.full(255, 0.01))
            t = quantize_distribution(p)
            assert t.freq.min() >= 1 and t.freq.sum() == 65536

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.full(255, 0.3), size=20)
        freq, cum = quantize_level(probs)
        for i in range(20):
            t = quantize_distribution(probs[i])
            assert np.array_equal(freq[i], t.freq)
            assert np.array_equal(cum[i], t.cum)


    def test_zero_fix_matches_loop_oracle(self):
        # peaky softmax rows, sparse Dirichlet rows and one-hot rows (254 zeros)
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 1, (2000, 255)) * rng.uniform(0.5, 40, (2000, 1))
        peaky = np.exp(logits - logits.max(axis=1, keepdims=True))
        sparse = rng.dirichlet(np.full(255, 0.01), size=500)
        one_hot = np.eye(255)[rng.integers(0, 255, 100)]
        for probs in (peaky, sparse, one_hot):
            expect, deficit_rows = _quantize_rows_loop(probs)
            assert deficit_rows > 0
            assert np.array_equal(coder._quantize_rows(probs), expect)


def _quantize_rows_loop(p):
    """The quantizer with its former per-row zero-fix loop, kept as an oracle:
    -> (frequencies, number of rows that had zeros to fix)."""
    p = p / p.sum(axis=1, keepdims=True)
    scaled = p * float(TOTAL_FREQ)
    base = np.floor(scaled).astype(np.int64)
    rem = scaled - base
    leftover = TOTAL_FREQ - base.sum(axis=1)
    order = np.argsort(-rem, axis=1, kind="stable")
    add = np.arange(p.shape[1])[None, :] < leftover[:, None]
    bump = np.zeros_like(base)
    np.put_along_axis(bump, order, add.astype(np.int64), axis=1)
    base += bump
    deficits = (base == 0).sum(axis=1)
    for r in np.nonzero(deficits)[0]:
        row = base[r]
        row[row == 0] = 1
        need = int(deficits[r])
        while need > 0:
            i = int(np.argmax(row))
            take = min(need, int(row[i]) - 1)
            row[i] -= take
            need -= take
    return base, int((deficits > 0).sum())


def _uniform_table():
    return quantize_distribution(np.full(255, 1.0 / 255))


class _FixedModel:
    """Test-only model: hands coder._code_level the same probabilities for
    every level, either one shared (255,) row or an (n, 255) batch."""

    def __init__(self, probs):
        self.probs = probs

    def level_probabilities(self, ctx):
        return self.probs

    def observe(self, ctx, i, symbol):
        pass


class _OneContextAdaptive:
    """Test-only model: every node reads and updates adaptive context 0."""

    def __init__(self):
        self.counts = AdaptiveContextModel(8)
        self.counts.begin_stream()

    def level_probabilities(self, ctx):
        return None

    def node_table(self, ctx, i):
        return self.counts.table_for_id(0)

    def observe(self, ctx, i, symbol):
        self.counts.observe_id(0, symbol)


def _encode(symbols, model) -> bytes:
    enc = RangeEncoder()
    coder._code_level(range(len(symbols)), symbols, model, enc, decoding=False)
    return enc.finish()


def _decode(data, count, model) -> list:
    return coder._code_level(range(count), None, model, RangeDecoder(data), decoding=True).tolist()


UNIFORM = np.full(255, 1.0 / 255)


class TestRangeCoder:
    def test_empty_stream(self):
        data = _encode([], _FixedModel(UNIFORM))
        assert len(data) <= 8

    def test_uniform_1e5_rate(self):
        rng = np.random.default_rng(0)
        symbols = rng.integers(1, 256, 100_000)
        data = _encode(symbols, _FixedModel(UNIFORM))
        bits = 8 * len(data)
        assert abs(bits - 100_000 * 7.994) / (100_000 * 7.994) < 0.01

    def test_skewed_under_600_bytes(self):
        p = np.zeros(255)
        p[0] = 1.0
        data = _encode(np.ones(100_000, dtype=int), _FixedModel(p))
        assert len(data) < 600

    def test_roundtrip_uniform_tables(self):
        rng = np.random.default_rng(3)
        symbols = rng.integers(1, 256, 10_000).tolist()
        data = _encode(symbols, _FixedModel(UNIFORM))
        assert _decode(data, len(symbols), _FixedModel(UNIFORM)) == symbols

    def test_roundtrip_adaptive_supplier(self):
        # evolving per-position tables, replayed identically on both sides
        rng = np.random.default_rng(4)
        symbols = rng.integers(1, 50, 5000).tolist()
        data = _encode(symbols, _OneContextAdaptive())
        assert _decode(data, len(symbols), _OneContextAdaptive()) == symbols

    def test_roundtrip_adaptive_past_total_freq(self):
        # 70k symbols in one context: its counts are halved once on the way,
        # every table the coder reads stays within the range coder's bounds
        # (the symbols above 49 never occur, so their frequency stays 1), and
        # the halved counts keep the skew
        rng = np.random.default_rng(6)
        symbols = np.where(rng.random(70_000) < 0.8, 9, rng.integers(1, 50, 70_000)).tolist()

        class Checked(_OneContextAdaptive):
            def __init__(self):
                super().__init__()
                self.totals = []

            def node_table(self, ctx, i):
                cum = super().node_table(ctx, i)
                assert cum[-1] <= TOTAL_FREQ and np.diff(cum).min() >= 1
                self.totals.append(int(cum[-1]))
                return cum

        encoder_model, decoder_model = Checked(), Checked()
        data = _encode(symbols, encoder_model)
        assert _decode(data, len(symbols), decoder_model) == symbols
        assert encoder_model.totals == decoder_model.totals
        assert max(encoder_model.totals) == TOTAL_FREQ
        assert (np.diff(encoder_model.totals) < 0).sum() == 1
        assert np.argmax(np.diff(encoder_model.counts.table_for_id(0))) == 8

    def test_truncated_stream_raises(self):
        data = _encode(list(range(1, 101)), _FixedModel(UNIFORM))
        with pytest.raises(DecodeError):
            _decode(data[: len(data) // 2], 100, _FixedModel(UNIFORM))

    def test_rate_bound_128_bits(self):
        # payload bits <= sum(-log2 freq/65536) + 128 slack, across stream shapes
        rng = np.random.default_rng(5)
        streams = [
            (rng.integers(1, 256, 100_000), UNIFORM),
            (np.ones(100_000, dtype=int), np.where(np.arange(255) == 0, 1.0, 0.0)),
        ]
        for symbols, p in streams:
            table = quantize_distribution(p)
            data = _encode(symbols, _FixedModel(p))
            ideal = float((-np.log2(table.freq[np.asarray(symbols) - 1] / 65536.0)).sum())
            assert 8 * len(data) <= ideal + 128
        # mixed random tables
        probs = rng.dirichlet(np.full(255, 0.2), size=20_000)
        freq, cum = quantize_level(probs)
        symbols = [int(rng.choice(255, p=f / 65536.0)) + 1 for f in freq]
        data = _encode(symbols, _FixedModel(probs))
        ideal = float(sum(-np.log2(freq[i, s - 1] / 65536.0) for i, s in enumerate(symbols)))
        assert 8 * len(data) <= ideal + 128

    def test_decoder_rejects_internal_desync(self):
        enc = RangeEncoder()
        t = _uniform_table()
        enc.encode(int(t.cum[10]), int(t.freq[10]))
        data = enc.finish()
        dec = RangeDecoder(data)
        v = dec.decode_target()
        assert t.cum[10] <= v < t.cum[11]


_TRIPLE = st.integers(1, TOTAL_FREQ).flatmap(
    lambda total: st.integers(1, total).flatmap(
        lambda freq: st.tuples(st.integers(0, total - freq), st.just(freq), st.just(total))))
# the top sliver of a 2^16 table pushes `low` up against the range's top, so
# the encoder holds back long runs of 0xFF bytes
_TOP = st.integers(1, 16).map(lambda f: (TOTAL_FREQ - f, f, TOTAL_FREQ))


def _carry_run(n):
    """n half-table symbols that keep the coding interval around one byte
    boundary (first 2^31, then 2^32 after every renormalization), so the
    encoder holds back a run of n/8 0xFF bytes; upper halves then lift `low`
    past the boundary and the carry turns the whole run into zeros."""
    half = TOTAL_FREQ // 2
    enc, triples = RangeEncoder(), []
    for _ in range(n):
        boundary = 1 << (32 if enc._out else 31)
        mid = enc._low + (enc._range // TOTAL_FREQ) * half
        triples.append((half, half, TOTAL_FREQ) if mid <= boundary else (0, half, TOTAL_FREQ))
        enc.encode(*triples[-1])
    return triples + [(half, half, TOTAL_FREQ)] * 40


class TestPayloadEnd:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(_TRIPLE, _TOP), max_size=400))
    @example([(TOTAL_FREQ - 1, 1, TOTAL_FREQ)] * 400)
    @example(_carry_run(400))
    @example([(0, 1, TOTAL_FREQ)] * 400)
    @example([])
    def test_decoder_ends_exactly_at_payload_end(self, triples):
        enc = RangeEncoder()
        for cum, freq, total in triples:
            enc.encode(cum, freq, total)
        data = enc.finish()
        dec = RangeDecoder(data)
        for cum, freq, total in triples:
            assert cum <= dec.decode_target(total) < cum + freq
            dec.consume(cum, freq)
        dec.finish()
        padded = RangeDecoder(data + b"\x00")
        for cum, freq, total in triples:
            padded.decode_target(total)
            padded.consume(cum, freq)
        with pytest.raises(DecodeError, match="1 bytes after"):
            padded.finish()

    @pytest.mark.parametrize("kind", ["uniform", "adaptive", "voxel-static", "sequence"])
    def test_appended_byte_rejected(self, kind):
        if kind == "sequence":
            model = DynamicContextModel(crop_size=5, child_crop_size=6, channels=(2,),
                                        hidden=8, seed=0)
            data = encode_sequence(moving_sequence(2, 150, seed=3), 5, 5, model)
            decode = decode_sequence
        else:
            model = {"uniform": UniformModel, "adaptive": lambda: AdaptiveContextModel(12),
                     "voxel-static": lambda: VoxelContextModel(crop_size=5, channels=(2,),
                                                               hidden=8, seed=0)}[kind]()
            data = encode_cloud(structured_cloud(300, seed=3), 6, 6, model)
            decode = decode_cloud
        decode(data, model)
        with pytest.raises(DecodeError, match="after the coded payload"):
            decode(data + b"\x00", model)

    def test_version_1_stream_rejected(self, monkeypatch):
        model = AdaptiveContextModel(12)
        data = encode_cloud(structured_cloud(300, seed=3), 6, 6, model)
        header, pos = coder.BitstreamHeader.unpack(data)
        monkeypatch.setattr(coder, "VERSION", 1)
        v1 = header.pack() + data[pos:]
        monkeypatch.undo()
        assert coder.VERSION == 4 and v1[4] == 1
        with pytest.raises(DecodeError, match="unsupported bitstream version 1"):
            decode_cloud(v1, model)

    def test_version_2_stream_rejected(self, monkeypatch):
        """Version 2 coded neural probabilities from the float network; decoding
        one with the integer network would desync silently."""
        model = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=3)
        data = encode_cloud(structured_cloud(300, seed=3), 5, 5, model)
        header, pos = coder.BitstreamHeader.unpack(data)
        monkeypatch.setattr(coder, "VERSION", 2)
        v2 = header.pack() + data[pos:]
        monkeypatch.undo()
        assert v2[4] == 2
        with pytest.raises(DecodeError, match="unsupported bitstream version 2"):
            decode_cloud(v2, model)

    def test_version_3_stream_rejected(self):
        """Version 3 closed its header with an FNV hash; the version is read first."""
        assert VCNB_V3_UNIFORM[4] == 3
        with pytest.raises(DecodeError, match="unsupported bitstream version 3"):
            decode_cloud(VCNB_V3_UNIFORM, UniformModel())


class TestCloudCodec:
    def test_single_point_three_symbols(self):
        cloud = PointCloud([[0.2, 0.4, 0.8]])
        model = UniformModel()
        data = encode_cloud(cloud, 3, 3, model)
        assert payload_size(data) <= 8    # 3 symbols at ~8 bits + flush
        _, tree, _ = decode_cloud(data, model, return_tree=True)
        assert tree.symbol_count() == 3

    @pytest.mark.parametrize("model_factory", [
        UniformModel,
        lambda: AdaptiveContextModel(12),
        lambda: VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0),
    ])
    def test_roundtrip_equals_truncated_build(self, model_factory):
        cloud = random_cloud(400, seed=17, lo=-2.0, hi=7.0)
        model = model_factory()
        data = encode_cloud(cloud, 6, 4, model)
        decoded, tree, header = decode_cloud(data, model, return_tree=True)
        norm, params = normalize(cloud)
        ref = build(norm, 6).truncate(4)
        for a, b in zip(ref.levels, tree.levels):
            assert np.array_equal(a, b)
        for a, b in zip(ref.symbols, tree.symbols):
            assert np.array_equal(a, b)
        assert np.allclose(decoded.points, reconstruct_centers(ref, params).points)

    def test_decode_without_refine_is_centers(self):
        cloud = random_cloud(300, seed=2)
        model = UniformModel()
        data = encode_cloud(cloud, 5, 5, model)
        decoded = decode_cloud(data, model)
        norm, params = normalize(cloud)
        ref = reconstruct_centers(build(norm, 5), params)
        assert np.allclose(decoded.points, ref.points)

    def test_coded_size_tracks_cross_entropy(self):
        # payload within 1% + 64 bytes of the model's own code lengths
        cloud = structured_cloud(20_000, seed=21)
        for model in (UniformModel(), AdaptiveContextModel(12)):
            data = encode_cloud(cloud, 7, 7, model)
            norm, _ = normalize(cloud)
            tree = build(norm, 7)
            bits = float(model_code_lengths(model, tree).sum())
            assert tree.symbol_count() >= 10_000
            assert 8 * payload_size(data) <= bits * 1.01 + 64 * 8
            assert 8 * payload_size(data) >= bits * 0.99 - 64 * 8

    def test_adaptive_code_lengths_are_coded_tables(self):
        # model bits are -log2(freq/total) of exactly the tables the coder coded with
        cloud = structured_cloud(2000, seed=8)
        coded = []

        class Recording(AdaptiveContextModel):
            def node_table(self, ctx, i):
                cum = super().node_table(ctx, i)
                coded.append(cum.copy())
                return cum

        encode_cloud(cloud, 7, 7, Recording(10))
        norm, _ = normalize(cloud)
        tree = build(norm, 7)
        syms = np.concatenate(tree.symbols).astype(np.int64)
        tables = np.array(coded)
        rows = np.arange(len(syms))
        freq = tables[rows, syms] - tables[rows, syms - 1]
        expected = -np.log2(freq / tables[:, -1])
        assert np.array_equal(model_code_lengths(AdaptiveContextModel(10), tree), expected)

    def test_bpp_accounting_identity(self):
        cloud = random_cloud(700, seed=5)
        model = UniformModel()
        norm, _ = normalize(cloud)
        tree = build(norm, 5)
        lengths = model_code_lengths(model, tree)
        assert len(lengths) == tree.symbol_count()
        assert abs(lengths.sum() - LOG2_ALPHABET * tree.symbol_count()) < 1e-9

    def test_model_hash_mismatch_refused(self):
        cloud = random_cloud(100, seed=1)
        m1 = VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0)
        m2 = VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=1)
        data = encode_cloud(cloud, 4, 4, m1)
        with pytest.raises(DecodeError):
            decode_cloud(data, m2)

    def test_model_kind_mismatch_refused(self):
        cloud = random_cloud(100, seed=1)
        data = encode_cloud(cloud, 4, 4, UniformModel())
        with pytest.raises(DecodeError):
            decode_cloud(data, AdaptiveContextModel(12))

    def test_any_single_byte_header_corruption_detected(self):
        cloud = random_cloud(64, seed=9)
        model = UniformModel()
        data = encode_cloud(cloud, 4, 4, model)
        _, header_len = coder.BitstreamHeader.unpack(data)
        for pos in range(header_len):
            corrupt = bytearray(data)
            corrupt[pos] ^= 0x01
            with pytest.raises(DecodeError):
                decode_cloud(bytes(corrupt), model)

    def test_determinism_repeat_encode(self):
        cloud = structured_cloud(900, seed=13)
        model = AdaptiveContextModel(10)
        a = encode_cloud(cloud, 6, 6, model)
        b = encode_cloud(cloud, 6, 6, model)
        assert a == b

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            encode_cloud(PointCloud(), 4, 4, UniformModel())

    def test_bad_trunc_rejected(self):
        with pytest.raises(ValueError):
            encode_cloud(random_cloud(10, 0), 4, 5, UniformModel())

    def test_truncated_payload_raises(self):
        cloud = random_cloud(500, seed=3)
        model = UniformModel()
        data = encode_cloud(cloud, 6, 6, model)
        with pytest.raises(DecodeError):
            decode_cloud(data[:-40], model)

    @pytest.mark.parametrize("model_factory", [UniformModel, lambda: AdaptiveContextModel(12)])
    def test_level_larger_than_point_count_raises(self, model_factory):
        # a header whose point count is below a decoded level's node count is a lie
        cloud = structured_cloud(3000, seed=7)
        model = model_factory()
        data = encode_cloud(cloud, 8, 8, model)
        header, pos = coder.BitstreamHeader.unpack(data)
        assert len(decode_cloud(data, model)) == 2969
        header.point_count = 5
        with pytest.raises(DecodeError, match="more than its 5 points"):
            decode_cloud(header.pack() + data[pos:], model)

    def test_coded_bpp_helper(self):
        cloud = random_cloud(250, seed=4)
        data = encode_cloud(cloud, 5, 5, UniformModel())
        assert coded_bpp(data) == pytest.approx(8 * payload_size(data) / 250)
