import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxelcodec import (AdaptiveContextModel, DecodeError, DynamicContextModel, PointCloud,
                        UniformModel, VoxelContextModel, build, build_node_dataset, coded_bpp,
                        coder, decode_cloud, decode_sequence, encode_cloud,
                        encode_sequence, model_code_lengths, nn, normalize, payload_size,
                        reconstruct_centers)
from voxelcodec.coder import TOTAL_FREQ, RangeDecoder, RangeEncoder
from voxelcodec.entropy import ALPHABET, level_code_lengths, table_rows
from voxelcodec.octree import Octree

from conftest import (VCNB_V3_UNIFORM, GivenContexts, coder_bound_bits, moving_sequence,
                      random_cloud, structured_cloud, uniform_code_lengths)


def _logit_rows(rng, exp):
    """Integer logits at exponent exp: peaky normal rows at scales 0.5-40,
    sparse rows (logs of Dirichlet(0.01) draws) and one-hot rows."""
    peaky = rng.normal(0, 1, (2000, 255)) * rng.uniform(0.5, 40, (2000, 1))
    sparse = np.log(np.maximum(rng.dirichlet(np.full(255, 0.01), size=500), 1e-300))
    one_hot = np.where(np.eye(255)[rng.integers(0, 255, 100)] > 0, 0.0, -1000.0)
    return [np.rint(z * 2.0 ** exp) for z in (peaky, sparse, one_hot)]


class TestQuantize:
    """`nn.integer_tables`: integer logits -> the coder's integer frequencies."""

    def test_uniform_apportionment(self):
        # 65536 = 255*257 + 1; the spare unit goes to the first of the equal
        # largest logits, symbol 1
        for exp in (-3, 0, 20):
            freq = nn.integer_tables(np.full((3, 255), 7.0), exp)
            assert np.all(freq[:, 0] == 258) and np.all(freq[:, 1:] == 257)
        (row,), update = UniformModel().stream()(range(1))
        assert np.array_equal(np.diff(row), freq[0]) and update is None

    def test_point_mass_floor(self):
        z = np.zeros((1, 255))
        z[0, 0] = 100 * 2.0 ** 10
        freq = nn.integer_tables(z, 10)[0]
        assert freq[0] == 65536 - 254
        assert np.all(freq[1:] == 1)

    def test_shift_invariant(self):
        # adding a constant to a row's integer logits leaves its table unchanged
        rng = np.random.default_rng(0)
        for z in _logit_rows(rng, 12):
            shift = np.rint(rng.normal(0, 2.0 ** 20, (len(z), 1)))
            assert np.array_equal(nn.integer_tables(z + shift, 12), nn.integer_tables(z, 12))

    def test_every_freq_positive(self):
        rng = np.random.default_rng(1)
        for exp in (0, 12, 30):
            for z in _logit_rows(rng, exp):
                freq = nn.integer_tables(z, exp)
                assert freq.dtype == np.int64 and freq.min() >= 1
                assert np.all(freq.sum(axis=1) == TOTAL_FREQ)

    def test_higher_logit_never_smaller_frequency(self):
        rng = np.random.default_rng(4)
        for z in _logit_rows(rng, 16):
            freq = nn.integer_tables(z, 16)
            order = np.argsort(z, axis=1, kind="stable")
            zs, fs = np.take_along_axis(z, order, 1), np.take_along_axis(freq, order, 1)
            assert not ((np.diff(zs, axis=1) > 0) & (np.diff(fs, axis=1) < 0)).any()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        z = np.rint(rng.normal(0, 3, (20, 255)) * 2.0 ** 14)
        freq = nn.integer_tables(z, 14)
        for i in range(20):
            assert np.array_equal(freq[i], nn.integer_tables(z[i:i + 1], 14)[0])

    def test_code_length_near_loop_oracle(self):
        # expected code length under the softmax of the real logits within
        # +0.05% of the float largest-remainder tables the coder read before
        rng = np.random.default_rng(3)
        for z in _logit_rows(rng, 20):
            real = z * 2.0 ** -20
            p = np.exp(real - real.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            expect = _quantize_rows_loop(p)
            tables = -(p * np.log2(nn.integer_tables(z, 20) / TOTAL_FREQ)).sum()
            oracle = -(p * np.log2(expect / TOTAL_FREQ)).sum()
            assert tables <= oracle * 1.0005


def _quantize_rows_loop(p):
    """The float largest-remainder quantizer the coder once ran on
    probabilities, with its per-row zero-fix loop, kept as an oracle and as
    a source of test tables: (n, 255) probabilities -> frequencies."""
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
    return base


def _tables(probs):
    """Frequencies of (255,) or (n, 255) probabilities by the oracle quantizer."""
    freq = _quantize_rows_loop(np.atleast_2d(probs))
    return freq if np.ndim(probs) == 2 else freq[0]


class _FixedModel:
    """Test-only model: its streams hand coder._code_level the same
    frequencies for every level, either one shared (255,) row or an
    (n, 255) batch."""

    def __init__(self, freq):
        self.freq = freq

    def stream(self):
        return lambda ctx: table_rows(self.freq, len(ctx))


class _OneContextAdaptive(AdaptiveContextModel):
    """Test-only model: every node reads and updates adaptive context 0."""

    def __init__(self):
        super().__init__(8)

    def context_ids(self, ctx):
        return np.zeros(len(ctx), dtype=np.int64)


_MASK32 = 0xFFFFFFFF
_RC_TOP = 1 << 24


class _RefEncoder:
    """The per-symbol range encoder the coder once ran, kept as the oracle of
    `RangeEncoder.encode_level` and `finish`: one `encode` call per symbol,
    and `_shift_low` for every byte, the flush included."""

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._pending = 1
        self._out = bytearray()

    def _shift_low(self):
        if self._low < 0xFF000000 or self._low > _MASK32:
            carry = self._low >> 32
            self._out.append((self._cache + carry) & 0xFF)
            for _ in range(self._pending - 1):
                self._out.append((0xFF + carry) & 0xFF)
            self._pending = 0
            self._cache = (self._low >> 24) & 0xFF
        self._pending += 1
        self._low = (self._low << 8) & _MASK32

    def encode(self, cum: int, freq: int, total: int = TOTAL_FREQ):
        r = self._range // total
        self._low += r * cum
        self._range = r * freq
        while self._range < _RC_TOP:
            self._range = (self._range << 8) & _MASK32
            self._shift_low()

    def finish(self) -> bytes:
        for _ in range(5):
            self._shift_low()
        return bytes(self._out)


class _RefDecoder:
    """The per-symbol range decoder the coder once ran, kept as the oracle of
    `RangeDecoder.decode_level` and `finish`."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        self._byte()          # leading cache byte, always zero
        for _ in range(4):
            self._code = ((self._code << 8) | self._byte()) & _MASK32
        self._r = 0

    def _byte(self) -> int:
        if self._pos >= len(self._data):
            raise DecodeError("range-coded payload exhausted")
        b = self._data[self._pos]
        self._pos += 1
        return b

    def decode_target(self, total: int = TOTAL_FREQ) -> int:
        self._r = self._range // total
        return min(self._code // self._r, total - 1)

    def consume(self, cum: int, freq: int):
        self._code -= self._r * cum
        self._range = self._r * freq
        while self._range < _RC_TOP:
            self._code = ((self._code << 8) | self._byte()) & _MASK32
            self._range = (self._range << 8) & _MASK32

    def finish(self):
        if self._pos != len(self._data):
            raise DecodeError(f"{len(self._data) - self._pos} bytes after the coded payload")


def _encode(symbols, model) -> bytes:
    """One level of `symbols`, coded in a stream of its own."""
    enc = RangeEncoder()
    coder._code_level(range(len(symbols)), symbols, model.stream(), enc, decoding=False)
    return enc.finish()


def _decode(data, count, model) -> list:
    return coder._code_level(range(count), None, model.stream(), RangeDecoder(data),
                             decoding=True).tolist()


UNIFORM = _tables(np.full(255, 1.0 / 255))   # [258, 257 x 254]
ONE_HOT = _tables(np.where(np.arange(255) == 0, 1.0, 0.0))   # [65282, 1 x 254]


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
        data = _encode(np.ones(100_000, dtype=int), _FixedModel(ONE_HOT))
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

            def stream(self):
                level_tables = super().stream()

                def checked(ctx):
                    rows, update = level_tables(ctx)
                    return map(self.check, rows), update
                return checked

            def check(self, row):
                # called as the coder reaches the node, after the previous update
                cum = np.asarray(row)
                assert cum[-1] <= TOTAL_FREQ and np.diff(cum).min() >= 1
                self.totals.append(int(cum[-1]))
                self.table = row   # context 0's table, the one every node codes with
                return row

        encoder_model, decoder_model = Checked(), Checked()
        data = _encode(symbols, encoder_model)
        assert _decode(data, len(symbols), decoder_model) == symbols
        assert encoder_model.totals == decoder_model.totals
        assert max(encoder_model.totals) == TOTAL_FREQ
        assert (np.diff(encoder_model.totals) < 0).sum() == 1
        assert np.argmax(np.diff(encoder_model.table)) == 8

    def test_truncated_stream_raises(self):
        data = _encode(list(range(1, 101)), _FixedModel(UNIFORM))
        with pytest.raises(DecodeError):
            _decode(data[: len(data) // 2], 100, _FixedModel(UNIFORM))

    def test_rate_bound_128_bits(self):
        # payload bits <= sum(-log2 freq/65536) + 128 slack, across stream shapes
        rng = np.random.default_rng(5)
        streams = [
            (rng.integers(1, 256, 100_000), UNIFORM),
            (np.ones(100_000, dtype=int), ONE_HOT),
        ]
        for symbols, table in streams:
            data = _encode(symbols, _FixedModel(table))
            ideal = float((-np.log2(table[np.asarray(symbols) - 1] / 65536.0)).sum())
            assert 8 * len(data) <= ideal + 128
        # mixed random tables
        freq = _tables(rng.dirichlet(np.full(255, 0.2), size=20_000))
        symbols = [int(rng.choice(255, p=f / 65536.0)) + 1 for f in freq]
        data = _encode(symbols, _FixedModel(freq))
        ideal = float(sum(-np.log2(freq[i, s - 1] / 65536.0) for i, s in enumerate(symbols)))
        assert 8 * len(data) <= ideal + 128

    def test_decoder_rejects_internal_desync(self):
        enc = _RefEncoder()
        cum = np.concatenate([[0], np.cumsum(UNIFORM)])
        enc.encode(int(cum[10]), int(UNIFORM[10]))
        data = enc.finish()
        dec = _RefDecoder(data)
        v = dec.decode_target()
        assert cum[10] <= v < cum[11]
        # the level methods code and decode symbol 11 to and from the same bytes
        assert _encode([11], _FixedModel(UNIFORM)) == data
        assert _decode(data, 1, _FixedModel(UNIFORM)) == [11]


class _ReferenceCounts:
    """The adaptive counts as the coder once read them, kept as the reference:
    a node's table is looked up by its context id, and each coded symbol adds
    one count with a slice add, halving every frequency past TOTAL_FREQ."""

    def __init__(self):
        self.tables = {}

    def node_table(self, cid):
        return self.tables.get(cid, np.arange(ALPHABET + 1, dtype=np.int64))

    def observe(self, cid, symbol):
        cum = self.tables.setdefault(cid, np.arange(ALPHABET + 1, dtype=np.int64))
        cum[symbol:] += 1
        if cum[-1] > TOTAL_FREQ:
            np.cumsum((np.diff(cum) + 1) >> 1, out=cum[1:])


def _reference_level(n, table, observe, symbols, enc_or_dec, decoding):
    """The per-node symbol loop the coder once ran, kept as the reference:
    node i's table from table(i), numpy element reads, `searchsorted`
    decoding, then observe(i, symbol). -> (symbols, the tables coded with)."""
    out, coded = [], []
    for i in range(n):
        c_row = table(i)
        coded.append(c_row.copy())
        total = int(c_row[-1])
        if decoding:
            s = int(c_row.searchsorted(enc_or_dec.decode_target(total), side="right"))
            lo = int(c_row[s - 1])
            enc_or_dec.consume(lo, int(c_row[s]) - lo)
        else:
            s = int(symbols[i])
            lo = int(c_row[s - 1])
            enc_or_dec.encode(lo, int(c_row[s]) - lo, total)
        out.append(s)
        observe(i, s)
    return out, coded


def _adaptive_stream(seed):
    """Seeded levels of (context ids, symbols) over 40 contexts, each context
    repeated within every level and skewed toward its own symbols. Context 0
    takes most of the 70k-node second level, so its total passes TOTAL_FREQ
    in the middle of that level."""
    rng = np.random.default_rng(seed)
    favourite = rng.integers(1, 256, 40)
    levels = []
    for n, share0 in ((3000, 0.05), (70_000, 0.95), (2000, 0.3)):
        cids = np.where(rng.random(n) < share0, 0, rng.integers(1, 40, n))
        syms = np.where(rng.random(n) < 0.7, favourite[cids], rng.integers(1, 256, n))
        levels.append((cids.tolist(), syms.tolist()))
    return levels


def _frozen(cum):
    """A read-only memoryview of a cumulative table: a fixed row that no
    update touches."""
    cum = np.asarray(cum, dtype=np.int64)
    cum.flags.writeable = False
    return memoryview(cum)


def _random_row(rng):
    """A cumulative table with a total in [256, 2^16], every frequency >= 1."""
    total = int(rng.integers(256, TOTAL_FREQ + 1))
    cuts = np.sort(rng.choice(np.arange(1, total), ALPHABET - 1, replace=False))
    return _frozen(np.concatenate([[0], cuts, [total]]))


# 2^16 tables whose symbol 255 is a sliver of f counts at the top
_SLIVERS = {f: _frozen(np.concatenate([[0], np.arange(TOTAL_FREQ - f - ALPHABET + 2,
                                                      TOTAL_FREQ - f + 1), [TOTAL_FREQ]]))
            for f in range(1, 17)}


def _straddle_symbol(enc, row):
    """The symbol of `row` whose slice of the oracle encoder's interval holds
    the point past its start with the most trailing zero bits. Coding it
    keeps that byte boundary inside the interval, so the encoder holds back
    0xFF bytes until a later symbol settles on one side of it."""
    total = int(row[ALPHABET])
    r = enc._range // total
    hi = enc._low + r * total - 1
    k = hi.bit_length()
    while (hi >> k) << k <= enc._low:
        k -= 1
    return int(np.searchsorted(row, (((hi >> k) << k) - enc._low) // r, side="right"))


class _MixedRows(GivenContexts):
    """Test-only model: each node is ("ctx", id), an adaptive context table
    updated after its symbol, or ("row", view), a fixed read-only table."""

    def stream(self):
        level_tables = super().stream()

        def mixed(ctx):
            tables, add_count = level_tables([ref for kind, ref in ctx if kind == "ctx"])
            tables = iter(tables)
            rows = [next(tables) if kind == "ctx" else ref for kind, ref in ctx]
            return rows, lambda row, s: row.readonly or add_count(row, s)
        return mixed


def _mixed_stream(seed, segments):
    """Nodes (ref, symbol) coded by the oracle encoder as they are drawn, and
    the oracle's bytes and longest held-back run. A segment (choice, kind, n)
    draws n nodes whose rows are one of four random fixed rows, a top-sliver
    row or one of three adaptive contexts, and whose symbols are random, the
    straddling symbol, the top symbol 255 or the bottom symbol 1."""
    rng = np.random.default_rng(seed)
    fixed = [_random_row(rng) for _ in range(4)]
    enc, counts, nodes, longest = _RefEncoder(), _ReferenceCounts(), [], 0
    for choice, kind, n in segments:
        for _ in range(n):
            if kind == "ctx":
                ref = ("ctx", int(rng.integers(0, 3)))
                row = counts.node_table(ref[1])
            else:
                ref = ("row", _SLIVERS[int(rng.integers(1, 17))] if kind == "sliver"
                       else fixed[int(rng.integers(0, 4))])
                row = np.asarray(ref[1])
            s = {"random": lambda: int(rng.integers(1, ALPHABET + 1)),
                 "straddle": lambda: _straddle_symbol(enc, row),
                 "top": lambda: ALPHABET, "bottom": lambda: 1}[choice]()
            lo = int(row[s - 1])
            enc.encode(lo, int(row[s]) - lo, int(row[ALPHABET]))
            if kind == "ctx":
                counts.observe(ref[1], s)
            nodes.append((ref, s))
            longest = max(longest, enc._pending)
    return nodes, enc.finish(), longest


_SEGMENT = st.tuples(st.sampled_from(["random", "straddle", "top", "bottom"]),
                     st.sampled_from(["row", "sliver", "ctx"]), st.integers(1, 300))


class TestReferenceLoop:
    """`_code_level` against the per-node reference loop: the same bytes, the
    same decoded symbols and, for adaptive counts, code lengths that are
    -log2(freq/total) of exactly the tables coded with."""

    def test_adaptive_streams(self):
        for seed in (0, 1):
            levels = _adaptive_stream(seed)
            ref, enc, ref_tables = _ReferenceCounts(), _RefEncoder(), []
            for cids, syms in levels:
                _, coded = _reference_level(len(cids), lambda i: ref.node_table(cids[i]),
                                            lambda i, s: ref.observe(cids[i], s), syms, enc,
                                            decoding=False)
                ref_tables.append(np.array(coded))
            data = enc.finish()
            totals = ref_tables[1][np.array(levels[1][0]) == 0, -1]
            halved = np.flatnonzero(np.diff(totals) < 0)
            assert len(halved) == 1 and 1000 < halved[0] < len(totals) - 1000

            level_tables, enc = GivenContexts(16).stream(), RangeEncoder()
            for cids, syms in levels:
                coder._code_level(cids, syms, level_tables, enc, decoding=False)
            assert enc.finish() == data

            level_tables, dec = GivenContexts(16).stream(), RangeDecoder(data)
            ref, ref_dec = _ReferenceCounts(), _RefDecoder(data)
            for cids, syms in levels:
                assert coder._code_level(cids, None, level_tables, dec,
                                         decoding=True).tolist() == syms
                got, _ = _reference_level(len(cids), lambda i: ref.node_table(cids[i]),
                                          lambda i, s: ref.observe(cids[i], s), None, ref_dec,
                                          decoding=True)
                assert got == syms
            dec.finish()
            ref_dec.finish()

            level_tables = GivenContexts(16).stream()
            for (cids, syms), tables in zip(levels, ref_tables):
                rows = np.arange(len(syms))
                s = np.array(syms)
                expected = -np.log2((tables[rows, s] - tables[rows, s - 1]) / tables[:, -1])
                assert np.array_equal(level_code_lengths(level_tables, cids, syms), expected)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.lists(_SEGMENT, max_size=6),
           st.lists(st.integers(0, 1800), max_size=3), st.integers(0, 255))
    @example(0, [("straddle", "row", 1000), ("top", "sliver", 30)], [500], 0)
    @example(1, [("straddle", "ctx", 600), ("bottom", "row", 20), ("straddle", "sliver", 600)],
             [300, 900], 255)
    @example(2, [], [], 0)
    def test_level_methods_match_oracle(self, seed, segments, cuts, extra):
        """Levels of random rows (totals 2^8 to 2^16), top slivers and adaptive
        contexts updated in between, with runs of straddling symbols that hold
        back long 0xFF runs: the level methods give the oracle's bytes and
        symbols, and reject a payload cut short or with a byte appended."""
        nodes, data, _ = _mixed_stream(seed, segments)
        bounds = [0] + sorted(min(c, len(nodes)) for c in cuts) + [len(nodes)]
        levels = [nodes[a:b] for a, b in zip(bounds, bounds[1:])]

        enc, level_tables = RangeEncoder(), _MixedRows(16).stream()
        for level in levels:
            coder._code_level([ref for ref, _ in level], [s for _, s in level], level_tables,
                              enc, decoding=False)
        assert enc.finish() == data

        def decode(payload):
            dec, level_tables = RangeDecoder(payload), _MixedRows(16).stream()
            for level in levels:
                got = coder._code_level([ref for ref, _ in level], None, level_tables, dec,
                                        decoding=True)
                assert got.tolist() == [s for _, s in level]
            dec.finish()

        decode(data)
        if len(data) > 5:   # past the decoder's first five bytes: a level reads the last
            with pytest.raises(DecodeError, match="payload exhausted"):
                decode(data[:-1])
        with pytest.raises(DecodeError, match="1 bytes after"):
            decode(data + bytes([extra]))

    def test_straddling_runs_hold_back_and_carry(self):
        # the property test's inputs reach what they are there for: a run of
        # straddling symbols holds back hundreds of 0xFF bytes; top symbols
        # then carry into it, turning the run into zeros, and bottom symbols
        # release it as 0xFF bytes
        _, data, longest = _mixed_stream(0, [("straddle", "row", 1000), ("top", "sliver", 30)])
        assert longest > 500
        assert b"\x00" * 500 in data and b"\xff" * 50 not in data
        _, data, longest = _mixed_stream(0, [("straddle", "ctx", 600), ("bottom", "row", 20)])
        assert longest > 500
        assert b"\xff" * 500 in data and b"\x00" * 50 not in data

    @pytest.mark.parametrize("shared", [True, False])
    def test_batch_and_shared_row(self, shared):
        rng = np.random.default_rng(7)
        n = 4000
        freq = UNIFORM if shared else _tables(rng.dirichlet(np.full(255, 0.2), size=n))
        cum = np.zeros((len(np.atleast_2d(freq)), ALPHABET + 1), dtype=np.int64)
        np.cumsum(np.atleast_2d(freq), axis=1, out=cum[:, 1:])
        table = (lambda i: cum[0]) if shared else cum.__getitem__
        levels = [[int(rng.choice(255, p=np.diff(table(i)) / TOTAL_FREQ)) + 1 for i in range(n)]
                  for _ in range(3)]
        ref_enc, enc = _RefEncoder(), RangeEncoder()
        for syms in levels:
            _reference_level(n, table, lambda i, s: None, syms, ref_enc, decoding=False)
            coder._code_level(range(n), syms, _FixedModel(freq).stream(), enc, decoding=False)
        data = enc.finish()
        assert data == ref_enc.finish()
        dec, ref_dec = RangeDecoder(data), _RefDecoder(data)
        for syms in levels:
            assert coder._code_level(range(n), None, _FixedModel(freq).stream(), dec,
                                     decoding=True).tolist() == syms
            assert _reference_level(n, table, lambda i, s: None, None, ref_dec,
                                    decoding=True)[0] == syms
        dec.finish()


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
    enc, triples = _RefEncoder(), []
    for _ in range(n):
        boundary = 1 << (32 if enc._out else 31)
        mid = enc._low + (enc._range // TOTAL_FREQ) * half
        triples.append((half, half, TOTAL_FREQ) if mid <= boundary else (0, half, TOTAL_FREQ))
        enc.encode(*triples[-1])
    return triples + [(half, half, TOTAL_FREQ)] * 40


def _triple_row(cum, freq, total):
    """A cumulative table whose symbol 2 takes [cum, cum + freq) of total;
    symbol 1 takes [0, cum), and symbols 3-255 are empty at the top."""
    return memoryview(np.array([0, cum] + [cum + freq] + [total] * (ALPHABET - 2),
                               dtype=np.int64))


class TestPayloadEnd:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(_TRIPLE, _TOP), max_size=400))
    @example([(TOTAL_FREQ - 1, 1, TOTAL_FREQ)] * 400)
    @example(_carry_run(400))
    @example([(0, 1, TOTAL_FREQ)] * 400)
    @example([])
    def test_decoder_ends_exactly_at_payload_end(self, triples):
        enc = _RefEncoder()
        for cum, freq, total in triples:
            enc.encode(cum, freq, total)
        data = enc.finish()
        dec = _RefDecoder(data)
        for cum, freq, total in triples:
            assert cum <= dec.decode_target(total) < cum + freq
            dec.consume(cum, freq)
        dec.finish()
        padded = _RefDecoder(data + b"\x00")
        for cum, freq, total in triples:
            padded.decode_target(total)
            padded.consume(cum, freq)
        with pytest.raises(DecodeError, match="1 bytes after"):
            padded.finish()
        # the level methods, on rows whose symbol 2 is each triple's slice
        rows = [_triple_row(*triple) for triple in triples]
        enc = RangeEncoder()
        enc.encode_level(rows, [2] * len(rows), None)
        assert enc.finish() == data
        dec = RangeDecoder(data)
        assert dec.decode_level(rows, len(rows), None) == bytes([2] * len(rows))
        dec.finish()
        padded = RangeDecoder(data + b"\x00")
        padded.decode_level(rows, len(rows), None)
        with pytest.raises(DecodeError, match="1 bytes after"):
            padded.finish()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=70), st.binary(min_size=70, max_size=160)),
           st.booleans())
    @example(b"\x00" + b"\xff" * 8, False)   # the first code is past the last slice
    @example(b"\x00" + b"\xff" * 8, True)
    def test_any_payload_decodes_as_the_oracle(self, data, adaptive):
        """Random bytes, corrupt payloads included: the level method decodes
        the oracle's symbols, or both raise DecodeError."""
        n = 60
        if adaptive:
            ref, model = _ReferenceCounts(), _OneContextAdaptive()
            table, observe = (lambda i: ref.node_table(0)), (lambda i, s: ref.observe(0, s))
        else:
            cum = np.concatenate([[0], np.cumsum(UNIFORM)])
            model, table, observe = _FixedModel(UNIFORM), (lambda i: cum), (lambda i, s: None)
        try:
            expected = _reference_level(n, table, observe, None, _RefDecoder(data),
                                        decoding=True)[0]
        except DecodeError:
            with pytest.raises(DecodeError):
                _decode(data, n, model)
        else:
            assert _decode(data, n, model) == expected

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
        assert coder.VERSION == 5 and v1[4] == 1
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

    def test_version_4_stream_rejected(self, monkeypatch):
        """Version 4 carried no symbol-stream hash; the version is read first."""
        model = UniformModel()
        data = encode_cloud(structured_cloud(300, seed=3), 6, 6, model)
        header, pos = coder.BitstreamHeader.unpack(data)
        monkeypatch.setattr(coder, "VERSION", 4)
        v4 = header.pack() + data[pos:]
        monkeypatch.undo()
        with pytest.raises(DecodeError, match="unsupported bitstream version 4"):
            decode_cloud(v4, model)

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
        # payload within 1% + 64 bytes of the model's own code lengths, and
        # within the coder's own bound over them (`coder_bound_bits`)
        cloud = structured_cloud(20_000, seed=21)
        voxel = VoxelContextModel(crop_size=5, channels=(2, 4), hidden=16, seed=0)
        voxel.train(build_node_dataset([build(normalize(structured_cloud(3000, seed=22))[0], 6)],
                                       crop_size=5), epochs=1, batch_size=64, lr=1e-3, seed=0)
        norm, _ = normalize(cloud)
        tree = build(norm, 7)
        assert tree.symbol_count() >= 10_000
        for model in (UniformModel(), AdaptiveContextModel(12), voxel):
            data = encode_cloud(cloud, 7, 7, model)
            lengths = model_code_lengths(model, tree)
            bits = float(lengths.sum())
            assert 8 * payload_size(data) <= bits * 1.01 + 64 * 8
            assert 8 * payload_size(data) >= bits * 0.99 - 64 * 8
            assert 8 * payload_size(data) <= coder_bound_bits(lengths)

    def test_adaptive_code_lengths_are_coded_tables(self):
        # model bits are -log2(freq/total) of exactly the tables the coder coded with
        cloud = structured_cloud(2000, seed=8)
        coded = []

        class Recording(AdaptiveContextModel):
            def stream(self):
                level_tables = super().stream()

                def recorded(ctx):
                    rows, update = level_tables(ctx)
                    return map(self.record, rows), update
                return recorded

            def record(self, row):
                # called as the coder reaches the node, after the previous update
                coded.append(np.array(row))
                return row

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
        assert np.array_equal(lengths, uniform_code_lengths(np.concatenate(tree.symbols)))

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

    @pytest.mark.parametrize("model", [
        UniformModel(), AdaptiveContextModel(16),
        VoxelContextModel(crop_size=5, channels=(2,), hidden=8, seed=0),
    ], ids=["uniform", "adaptive", "voxel-static"])
    def test_payload_bit_flip_decodes_or_raises(self, model):
        # each of the 96 bits of the payload's last 12 bytes, flipped alone:
        # decoding returns exactly the encoded octree (the flip hit slack in
        # the final bytes) or raises DecodeError, never a wrong octree or
        # another exception; the untrained network predicts uniformly
        cloud = structured_cloud(3000, seed=7)
        data = encode_cloud(cloud, 8, 8, model)
        ref = build(normalize(cloud)[0], 8)
        for pos in range(len(data) - 12, len(data)):
            for bit in range(8):
                corrupt = bytearray(data)
                corrupt[pos] ^= 1 << bit
                try:
                    _, tree, _ = decode_cloud(bytes(corrupt), model, return_tree=True)
                except DecodeError:
                    continue
                assert isinstance(tree, Octree) and len(tree.levels) == 9
                assert all(np.array_equal(a, b) for a, b in zip(tree.levels, ref.levels))
                assert all(np.array_equal(a, b) for a, b in zip(tree.symbols, ref.symbols))

    def test_coded_bpp_helper(self):
        cloud = random_cloud(250, seed=4)
        data = encode_cloud(cloud, 5, 5, UniformModel())
        assert coded_bpp(data) == pytest.approx(8 * payload_size(data) / 250)
