import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skysum import (
    InputVector,
    InsufficientData,
    PulseTrain,
    SingularFit,
    StochasticModel,
    analytic_sigma,
    build_crossbar,
    estimate_pbar_from_trace,
    expected_cumulative,
    fit_weight,
    infer,
    monte_carlo_sigma,
    paper2024,
    pulse_distribution,
    quantize,
    sample_pulse_sums,
    sample_stream_sums,
    simulate_cumulative,
    stream,
)
from skysum.crossbar import monte_carlo_column_counts
from skysum.rng import streams
from skysum.nucleation import (
    MC_BLOCK,
    PULSE_BLOCK,
    _lookup,
    _pulse_law,
    _sum_cdf,
)

from laws import UNBOUNDED, assert_follows, sum_pmf

LAW_DRAWS = 20_000


class TestStochasticModel:
    def test_bounds(self):
        StochasticModel(0.0)
        StochasticModel(1.0)
        with pytest.raises(ValueError):
            StochasticModel(-0.1)
        with pytest.raises(ValueError):
            StochasticModel(1.1)

    def test_even_split(self):
        assert StochasticModel(0.4).deviation_probabilities() == (0.2, 0.2)


class TestSamplePulseCount:
    """One pulse's count, drawn as a total over one pulse."""

    def test_deterministic_unit_weight(self):
        model = StochasticModel(0.0)
        g = stream(0, "t")
        assert all(sample_pulse_sums(1.0, model, g, 1, 1)[0] == 1
                   for _ in range(200))

    def test_zero_weight_creates_nothing(self):
        model = StochasticModel(0.9)
        counts = sample_pulse_sums(0.0, model, stream(1, "z"), 1, 5000)
        assert not counts.any()

    def test_unit_weight_distribution(self):
        # p_bar = 0.4 gives {0: 0.2, 1: 0.6, 2: 0.2}.
        model = StochasticModel(0.4)
        counts = sample_pulse_sums(1.0, model, stream(2, "d"), 1, 200_000)
        freqs = np.bincount(counts, minlength=3) / counts.size
        assert set(np.unique(counts)) <= {0, 1, 2}
        assert freqs[0] == pytest.approx(0.2, abs=0.01)
        assert freqs[1] == pytest.approx(0.6, abs=0.01)
        assert freqs[2] == pytest.approx(0.2, abs=0.01)

    def test_fractional_weight_mean(self):
        # w = 2.5, no deviations: half 2s, half 3s, mean 2.5.
        model = StochasticModel(0.0)
        counts = sample_pulse_sums(2.5, model, stream(3, "f"), 1, 1_000_000)
        assert set(np.unique(counts)) == {2, 3}
        se = 0.5 / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(2.5, abs=3 * se)

    def test_unit_weight_mean_is_exact_in_expectation(self):
        model = StochasticModel(0.6)
        counts = sample_pulse_sums(1.0, model, stream(4, "m"), 1, 500_000)
        se = counts.std() / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(1.0, abs=3 * se)

    def test_support_window(self):
        # Support stays within {b-1 .. b+2} of the nominal count.
        model = StochasticModel(1.0)
        counts = sample_pulse_sums(3.42, model, stream(5, "s"), 1, 100_000)
        assert counts.min() >= 2 and counts.max() <= 5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            sample_pulse_sums(-0.1, StochasticModel(0.0), stream(0, "n"),
                              1, 1)


class TestPulseLaw:
    def test_unit_weight_law(self):
        values, probs = pulse_distribution(1.0, StochasticModel(0.4))
        law = np.bincount(values, weights=probs)
        np.testing.assert_allclose(law, [0.2, 0.6, 0.2, 0.0], atol=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            pulse_distribution(-0.1, StochasticModel(0.0))

    @settings(deadline=None)
    @given(w=st.floats(0.0, 4.0), p_bar=st.floats(0.0, 1.0),
           n_pulses=st.integers(0, 30))
    @example(w=0.0, p_bar=0.4, n_pulses=10)
    @example(w=1.5, p_bar=0.0, n_pulses=10)
    @example(w=2.0, p_bar=0.0, n_pulses=10)
    @example(w=0.3, p_bar=1.0, n_pulses=10)
    @example(w=1.0, p_bar=0.4, n_pulses=0)
    def test_samplers_follow_the_law(self, w, p_bar, n_pulses):
        model = StochasticModel(p_bar)
        values, probs = pulse_distribution(w, model)
        assert values.min() >= 0 and values.max() <= math.floor(w) + 2
        assert probs.min() >= 0 and math.isclose(probs.sum(), 1.0)
        # Deviations are symmetric, so only the clamp at zero moves the mean.
        mean = float(values @ probs)
        assert mean >= w - 1e-12
        if w >= 1:
            assert mean == pytest.approx(w, abs=1e-12)
        key = repr((w, p_bar, n_pulses))
        pulses = sample_pulse_sums(w, model, stream(0, "law", key), 1,
                                   LAW_DRAWS)
        assert_follows(pulses, sum_pmf(w, model, 1))
        sums = sample_pulse_sums(w, model, stream(0, "sum-law", key),
                                 n_pulses, LAW_DRAWS)
        assert_follows(sums, sum_pmf(w, model, n_pulses))


def table_length(w, model, n_pulses):
    """Support length of the n-pulse sum: the batch size from which
    ``sample_pulse_sums`` draws from the cached table."""
    values, _ = pulse_distribution(w, model)
    return int(values[-1] - values[0]) * n_pulses + 1


class TestSumKernels:
    @pytest.mark.parametrize("w, p_bar, n_pulses", [
        (w, p_bar, n) for w in (0.0, 0.25, 1.0, 2.3)
        for p_bar in (0.0, 0.4, 1.0) for n in (0, 1, 40)
    ] + [(2.3, 0.4, 1000)])
    @pytest.mark.parametrize("below", [True, False],
                             ids=["multinomial", "table"])
    def test_kernel_follows_the_law(self, w, p_bar, n_pulses, below):
        # Batches one below the table length take the multinomial, batches
        # at it the table; either way the totals follow the exact law.
        model = StochasticModel(p_bar)
        size = table_length(w, model, n_pulses) - below
        g = stream(0, "kernel", repr((w, p_bar, n_pulses, below)))
        before = _sum_cdf.cache_info()
        n_batches = min(-(-LAW_DRAWS // max(size, 1)), 1000)
        batches = [sample_pulse_sums(w, model, g, n_pulses, size)
                   for _ in range(n_batches)]
        after = _sum_cdf.cache_info()
        used_table = after.hits + after.misses > before.hits + before.misses
        assert used_table == (not below)
        sums = np.concatenate(batches)
        assert sums.shape == (size * len(batches),)
        if size:
            assert_follows(sums, sum_pmf(w, model, n_pulses))

    def test_cold_cache_draws_equal_warm(self):
        model = StochasticModel(0.4)
        layer = quantize(stream(0, "layer").uniform(-1, 1, (6, 3)))
        x = np.arange(1, 7) * 5

        def draw():
            return (sample_pulse_sums(2.3, model, stream(0, "c"), 40, 4096),
                    infer(layer, x, mode="stochastic", stochastic=model,
                          seed=3, trials=1000))

        _sum_cdf.cache_clear()
        cold = draw()
        built = _sum_cdf.cache_info().misses
        warm = draw()
        assert built > 0 and _sum_cdf.cache_info().misses == built
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_table_is_read_only(self):
        offset, cdf, guide = _sum_cdf(2.3, 0.4, 10)
        assert offset == 10 and cdf.size == 31 and cdf[-1] == np.inf
        with pytest.raises(ValueError):
            cdf[0] = 0.0
        with pytest.raises(ValueError):
            guide[0] = 1
        for a in _pulse_law(2.3, 0.4):
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("w, p_bar, n_pulses", [
        (0.0, 0.4, 5), (2.3, 1.0, 0), (1.0, 0.0, 1), (1.0, 0.4, 1),
        (2.3, 0.4, 10), (0.5, 0.4, 40), (1.0, 0.4, 85), (1.5, 0.4, 85),
        (0.5, 0.4, 128), (1.0, 0.2, 1000), (1.0, 0.4, 2730),
        (1.5, 0.4, 2730),
    ])
    def test_guide_never_outweighs_its_table(self, w, p_bar, n_pulses):
        # Entry g of the guide is where the search for a uniform in
        # [g / B, (g + 1) / B) may start, for a power of two B of at least
        # twice the table length.  It takes one byte per bucket up to 256
        # totals and two above, so it costs no more bytes than the cdf.
        # 85 pulses at w = 1.5 give 256 totals and 128 at w = 0.5 give 257;
        # 2730 at w = 1.5 span 8191, the longest table below MC_BLOCK.  At
        # w = 1 the same pulse counts give tables cut to their support.
        _, cdf, guide = _sum_cdf(w, p_bar, n_pulses)
        buckets = guide.size
        assert buckets & (buckets - 1) == 0 and buckets >= 2 * cdf.size
        assert guide.dtype == (np.uint8 if cdf.size <= 256 else np.uint16)
        assert guide.nbytes <= cdf.nbytes
        np.testing.assert_array_equal(guide, np.searchsorted(
            cdf, np.arange(buckets) / buckets, side="right"))
        assert cdf.size <= MC_BLOCK

    @settings(deadline=None)
    @given(laws=st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 60)), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1))
    @example(laws=[(0.0, 0.4, 5)], seed=0)
    @example(laws=[(1.0, 0.2, 1000), (2.3, 1.0, 0), (0.5, 0.0, 7),
                   (1.0, 0.4, 1)], seed=1)
    @example(laws=[(4.0, 0.4, 60)], seed=2)
    @example(laws=[(3.42 / 14, 0.4, 17), (3.42 * 9 / 14, 0.4, 40),
                   (3.42, 0.4, 33), (1.0, 0.4, 2)], seed=3)
    def test_lookup_equals_searchsorted(self, laws, seed):
        # The guided lookup places every uniform where searchsorted does,
        # including 0, the largest double below 1, every finite cdf entry
        # and the double just below it.  A point mass has the one-entry
        # table [inf].  1000 pulses at w = 1, p_bar = 0.2 put 525 entries
        # in the first of 8192 buckets and 1948 in the last.  60 pulses at
        # w = 4 give totals 180..360 from a one-byte guide.  Laws of a
        # 15-state layer whose largest weight is 3.42, as stochastic
        # inference draws them, hold in one fused call uniforms that land
        # 0, 1 and 2 entries past their guide entry, and in the tails
        # dozens.
        tables = [_sum_cdf(w, p_bar, n) for w, p_bar, n in laws]
        rows = []
        for _, cdf, _ in tables:
            edges = cdf[cdf < 1.0]
            row = np.concatenate([[0.0, 1 - 2**-53], edges,
                                  np.nextafter(edges, 0)])
            rows.append(row[row >= 0.0])
        u = np.random.default_rng(seed).random(
            (len(rows), max(r.size for r in rows) + 64))
        for k, row in enumerate(rows):
            u[k, :row.size] = row
        want = [offset + np.searchsorted(cdf, uk, side="right")
                for (offset, cdf, _), uk in zip(tables, u)]
        got = [_lookup([table], uk[None])[0] for table, uk in zip(tables, u)]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(_lookup(tables, u), want)
        if laws[0][0] == 0.0 or laws[0][2] == 0:
            assert tables[0][1].tolist() == [np.inf]

    @settings(deadline=None, max_examples=60)
    @given(laws=st.lists(st.tuples(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 4.0)),
        st.one_of(st.sampled_from([0.0, 0.2, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.integers(0, 60), st.sampled_from([85, 128, 700]))),
        min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1))
    @example(laws=[(1.5, 0.4, 2730), (0.5, 0.4, 40), (4.0, 0.4, 60)],
             seed=0)
    @example(laws=[(0.0, 0.4, 5), (1.0, 0.2, 1000), (0.5, 0.4, 128),
                   (1.5, 0.4, 85)], seed=1)
    @example(laws=[(3.42 / 14, 0.4, 17), (3.42 * 9 / 14, 0.4, 40),
                   (3.42, 0.4, 33), (1.0, 0.4, 2)], seed=2)
    def test_fused_lookup_equals_searchsorted(self, laws, seed):
        # One call over rows of different tables, one- and two-byte guides
        # mixed, up to the longest table below MC_BLOCK, places every
        # uniform where searchsorted in its own row's cdf does: at 0, the
        # largest double below 1, every cdf value and the double below it,
        # and every bucket edge g / B of its guide and the double below.
        # The laws of a 15-state layer, as stochastic inference draws them,
        # put uniforms 0, 1, 2 and dozens of entries past their guide
        # entry in one call.
        tables = [_sum_cdf(w, p_bar, n) for w, p_bar, n in laws]
        rows = []
        for _, cdf, guide in tables:
            edges = np.concatenate([cdf[cdf < 1.0],
                                    np.arange(guide.size) / guide.size])
            row = np.concatenate([[0.0, 1 - 2**-53], edges,
                                  np.nextafter(edges, 0)])
            rows.append(row[row >= 0.0])
        u = np.random.default_rng(seed).random(
            (len(rows), max(r.size for r in rows) + 64))
        for k, row in enumerate(rows):
            u[k, :row.size] = row
        got = _lookup(tables, u)
        assert got.dtype == np.int64 and got.shape == u.shape
        for (offset, cdf, _), uk, gk in zip(tables, u, got):
            np.testing.assert_array_equal(
                gk, offset + np.searchsorted(cdf, uk, side="right"))

    @pytest.mark.parametrize("size", [200, 1000, 3000, 5000, MC_BLOCK + 808])
    def test_table_runs_over_several_chunks(self, size):
        # A run of table entries is looked up a chunk of rows of about
        # 2 * MC_BLOCK uniforms at a time (one row when a row is longer),
        # with the totals of one scalar call per entry on the same stream:
        # 5000 trials take chunks of 3, 3 and 1 of the 7 entries.
        model = StochasticModel(0.4)
        w = np.array([0.3, 1.0, 2.3, 0.0, 1.7, 0.5, 3.0])
        n = np.array([40, 12, 30, 7, 25, 60, 9])
        rows = max(1, 2 * MC_BLOCK // size)
        chunks = [np.arange(7)[entries].size for entries, _ in
                  sample_stream_sums(w, model, n, size, np.zeros(7, int),
                                     (stream(4, "chunks"),))]
        assert chunks == [min(rows, 7 - k) for k in range(0, 7, rows)]
        g, ref = stream(4, "chunks"), stream(4, "chunks")
        before = _sum_cdf.cache_info()
        got = sample_pulse_sums(w, model, g, n, size)
        assert _sum_cdf.cache_info() != before
        want = np.column_stack([sample_pulse_sums(wk, model, ref, nk, size)
                                for wk, nk in zip(w.tolist(), n.tolist())])
        np.testing.assert_array_equal(got, want)
        assert g.random() == ref.random()

    @pytest.mark.parametrize("w, p_bar, n_pulses", [
        (1.0, 0.2, 1000), (2.0, 0.4, 40), (3.0, 1.0, 7), (1.0, 0.0, 9),
        (0.5, 0.0, 12), (2.3, 0.4, 10), (0.25, 0.4, 2000),
    ])
    def test_table_spans_the_support(self, w, p_bar, n_pulses):
        # The table runs from the first total of non-zero probability to
        # the last.  An integer weight lists floor(w) + 2 at probability 0,
        # so N pulses span at most 2N + 1 totals, not 3N + 1; tails that
        # underflow to 0 are cut too.
        offset, cdf, _ = _sum_cdf(w, p_bar, n_pulses)
        assert cdf[0] > 0
        assert offset >= max(math.floor(w) - 1, 0) * n_pulses
        if w == int(w):
            assert offset + cdf.size - 1 <= (w + 1) * n_pulses
            assert cdf.size <= 2 * n_pulses + 1

    def test_no_table_longer_than_a_block(self):
        # 3001 pulses at w = 1 have 9004 possible totals, more than
        # MC_BLOCK: even a longer batch keeps the multinomial, so a cached
        # table never exceeds MC_BLOCK entries.
        model = StochasticModel(0.4)
        assert table_length(1.0, model, 3001) > MC_BLOCK
        before = _sum_cdf.cache_info()
        sums = sample_pulse_sums(1.0, model, stream(0, "long"), 3001,
                                 2 * MC_BLOCK)
        assert sums.shape == (2 * MC_BLOCK,)
        assert _sum_cdf.cache_info() == before

    def test_cache_holds_a_quantised_layer(self):
        # Stochastic inference on a 64 x 16 layer at 15 states with inputs
        # of up to 40 pulses draws one law per (non-zero level, pulse
        # count), about 560 of them.  All fit, so a second pass over them
        # builds no table.
        model = StochasticModel(0.4)
        layer = quantize(stream(1, "layer").uniform(-1, 1, (64, 16)))
        levels = np.unique(np.concatenate([layer.w_pos, layer.w_neg]))
        laws = [(w, n) for w in levels[levels > 0] for n in range(1, 41)]
        assert len(laws) >= 500
        _sum_cdf.cache_clear()
        for _ in range(2):
            for w, n in laws:
                sample_pulse_sums(w, model, stream(0, "ws"), n, 1000)
        info = _sum_cdf.cache_info()
        assert info.misses == info.currsize == len(laws)


class Uniforms:
    """Stand-in generator whose ``random`` hands out the given uniforms in
    order, so a kernel can be fed chosen values."""

    def __init__(self, u):
        self.u, self.at = np.asarray(u, dtype=float), 0

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.reshape(-1)[:] = self.u[self.at:self.at + out.size]
        self.at += out.size
        return out


def one_pulse_table(w, p_bar, u):
    """Outcome of each uniform ``u`` on the one-pulse table."""
    return _lookup([_sum_cdf(w, p_bar, 1)], np.asarray(u)[None])[0]


def one_pulse_edges(w, p_bar):
    """Every cdf value a one-pulse draw is compared with, below 1."""
    _, cdf, _ = _sum_cdf(w, p_bar, 1)
    _, probs = pulse_distribution(w, StochasticModel(p_bar))
    edges = np.concatenate([cdf, np.cumsum(probs) / probs.sum()])
    return np.unique(edges[edges < 1.0])


class TestPerPulseKernel:
    """One total of at most MC_BLOCK pulses: one uniform per pulse, each
    placed on the one-pulse law, the outcomes summed."""

    @settings(deadline=None)
    @given(w=st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                       st.floats(0.0, 4.0)),
           p_bar=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           split=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    @example(w=0.0, p_bar=0.4, split=0, seed=0)
    @example(w=2.0, p_bar=1.0, split=3, seed=1)
    @example(w=0.5, p_bar=0.0, split=1, seed=2)
    @example(w=1.0, p_bar=0.4, split=8, seed=3)
    def test_places_uniforms_as_the_one_pulse_table(self, w, p_bar, split,
                                                    seed):
        # Each uniform lands where the one-pulse table puts it, including
        # 0, the largest double below 1, every cdf value and the double
        # just below it; an entry of several pulses sums its uniforms'
        # outcomes, and an entry of no pulses is 0.
        edges = one_pulse_edges(w, p_bar)
        u = np.concatenate([[0.0, 1 - 2**-53], edges,
                            np.nextafter(edges, 0),
                            np.random.default_rng(seed).random(16)])
        u = u[u >= 0.0]
        model = StochasticModel(p_bar)
        placed = one_pulse_table(w, p_bar, u)
        got = sample_pulse_sums(np.full(u.size, w), model, Uniforms(u),
                                np.ones(u.size, int), 1)
        np.testing.assert_array_equal(got[0], placed)
        # An entry of no pulses takes the table: one uniform, total 0.
        n = np.array([split, 0, u.size - split])
        fed = np.concatenate([u[:split], [0.5], u[split:]])
        if not split:
            fed = np.concatenate([[0.5], fed])
        got = sample_pulse_sums(np.full(3, w), model, Uniforms(fed), n, 1)
        np.testing.assert_array_equal(
            got[0], [placed[:split].sum(), 0, placed[split:].sum()])

    @pytest.mark.parametrize("w", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("p_bar", [0.4, 1.0])
    def test_integer_weight_never_yields_two_more(self, w, p_bar):
        # pulse_distribution lists floor(w) + 2 with probability 0: no
        # uniform below 1 reaches it, in the transform or in a draw.
        model = StochasticModel(p_bar)
        u = np.concatenate([[1 - 2**-53], np.nextafter(one_pulse_edges(
            w, p_bar), 1), stream(0, "int", w, p_bar).random(5000)])
        counts = sample_pulse_sums(np.full(u.size, w), model, Uniforms(u),
                                   np.ones(u.size, dtype=np.int64), 1)
        np.testing.assert_array_equal(counts[0],
                                      one_pulse_table(w, p_bar, u))
        assert counts.max() == w + 1
        draws = sample_pulse_sums(np.full(5000, w), model,
                                  stream(1, "int", w, p_bar),
                                  np.ones(5000, dtype=np.int64), 1)
        assert draws.max() == w + 1

    @pytest.mark.parametrize("w", [0.25, 1.0, 2.3])
    @pytest.mark.parametrize("n_pulses", [1, 40])
    def test_size_one_draws_follow_the_law(self, w, n_pulses):
        # LAW_DRAWS entries of one total each, as a crossbar's windows
        # are drawn: no table is built, and the totals follow the exact
        # law of the n-pulse sum.
        model = StochasticModel(0.4)
        g = stream(0, "per-pulse", repr((w, n_pulses)))
        before = _sum_cdf.cache_info()
        sums = sample_pulse_sums(np.full(LAW_DRAWS, w), model, g,
                                 np.full(LAW_DRAWS, n_pulses), 1)
        assert _sum_cdf.cache_info() == before
        assert sums.shape == (1, LAW_DRAWS)
        assert_follows(sums[0], sum_pmf(w, model, n_pulses))

    def test_blocks_equal_scalar_loop_in_bounded_memory(self):
        # 100 entries of MC_BLOCK pulses: 819 200 uniforms, drawn and
        # placed a block at a time, give the totals of one scalar call per
        # entry on the same stream.  A point mass (table) comes first and
        # an entry over the cap (multinomial) splits the per-pulse runs.
        model = StochasticModel(0.4)
        w = np.resize([0.3, 1.0, 2.3], 100)
        w[0] = 0.0
        n = np.full(100, MC_BLOCK)
        n[50] += 1
        assert n.sum() > 8 * PULSE_BLOCK
        tracemalloc.start()
        try:
            got = sample_pulse_sums(w, model, stream(0, "blocks"), n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        ref = stream(0, "blocks")
        np.testing.assert_array_equal(got[0], [
            sample_pulse_sums(wk, model, ref, nk, 1)[0]
            for wk, nk in zip(w, n)])

    @settings(deadline=None)
    @given(w=st.one_of(st.sampled_from([1.0, 2.0]),
                       st.floats(0.0, 4.0, exclude_min=True)),
           p_bar=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           n_pulses=st.one_of(st.integers(1, 200),
                              st.sampled_from([MC_BLOCK])),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_total_equals_the_transform(self, w, p_bar, n_pulses,
                                               seed):
        # A scalar call of one total at a non-zero weight (zero is a point
        # mass, drawn from its one-entry table) sums its uniforms' outcomes
        # without the array layout, with the shape and dtype of the array
        # kernel.
        model = StochasticModel(p_bar)
        g, ref = stream(seed, "scalar"), stream(seed, "scalar")
        got = sample_pulse_sums(w, model, g, n_pulses, 1)
        want = one_pulse_table(w, p_bar, ref.random(n_pulses)).sum(
            keepdims=True)
        assert got.shape == (1,) and got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert g.random() == ref.random()

    def test_draws_one_uniform_per_pulse(self):
        # The kernel reads exactly n uniforms, so a scalar draw and a
        # transform of the same stream agree, and the stream moves on by n.
        model = StochasticModel(0.4)
        g, ref = stream(0, "pp"), stream(0, "pp")
        got = sample_pulse_sums(2.3, model, g, 40, 1)
        want = one_pulse_table(2.3, 0.4, ref.random(40)).sum(keepdims=True)
        np.testing.assert_array_equal(got, want)
        assert g.random() == ref.random()


class TestArrayForm:
    """K (weight, pulse count) entries in one call: one column per entry."""

    @settings(deadline=None)
    @given(entries=st.lists(st.tuples(st.floats(0.0, 4.0),
                                      st.integers(0, 60)), max_size=8),
           p_bar=st.floats(0.0, 1.0), size=st.integers(0, 200),
           seed=st.integers(0, 2**32 - 1))
    @example(entries=[(1.0, 40), (0.5, 30), (2.3, 50)], p_bar=0.4, size=10,
             seed=0)
    @example(entries=[(0.5, 40), (1.5, 40), (0.0, 40), (2.0, 0), (0.3, 40)],
             p_bar=0.4, size=100, seed=1)
    def test_equals_scalar_loop(self, entries, p_bar, size, seed):
        # The same totals as one scalar call per entry on the same stream,
        # and the stream is left in the same state.
        model = StochasticModel(p_bar)
        w = np.array([e[0] for e in entries], dtype=float)
        n = np.array([e[1] for e in entries], dtype=np.int64)
        g, ref = stream(seed, "array"), stream(seed, "array")
        got = sample_pulse_sums(w, model, g, n, size)
        want = np.empty((size, len(entries)), dtype=np.int64)
        for k, (wk, nk) in enumerate(entries):
            want[:, k] = sample_pulse_sums(wk, model, ref, nk, size)
        assert got.shape == (size, len(entries))
        np.testing.assert_array_equal(got, want)
        assert g.random() == ref.random()

    def test_laws_of_an_array_of_weights(self):
        model = StochasticModel(0.4)
        w = np.array([0.0, 0.25, 1.0, 2.3])
        values, probs = pulse_distribution(w, model)
        assert values.shape == probs.shape == (4, 4)
        for k, wk in enumerate(w):
            v, p = pulse_distribution(wk, model)
            np.testing.assert_array_equal(values[k], v)
            np.testing.assert_array_equal(probs[k], p)

    @pytest.mark.parametrize("w", [np.nan, np.inf, [1.0, np.nan]])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            pulse_distribution(w, StochasticModel(0.4))

    def test_weight_whose_outcomes_overflow_rejected(self):
        # floor(w) + 2 must fit an int64: the largest double below 2**63
        # does, with room to spare, and 2**63 does not.
        below = np.nextafter(2.0**63, 0.0)
        values, _ = pulse_distribution(below, StochasticModel(0.4))
        assert values.tolist() == [2**63 - 1025, 2**63 - 1024,
                                   2**63 - 1023, 2**63 - 1022]
        for w in (2.0**63, [1.0, 1.0e+19]):
            with pytest.raises(ValueError, match=r"below 2\*\*63"):
                pulse_distribution(w, StochasticModel(0.4))

    @pytest.mark.parametrize("n_pulses, size", [(-1, 10), (-5, 1),
                                                ([3, -2], 4)])
    def test_negative_pulse_count_rejected(self, n_pulses, size):
        # A negative count used to take the table branch and never return.
        w = np.ones(np.shape(n_pulses))
        g = stream(0, "neg")
        with pytest.raises(ValueError, match="n_pulses"):
            sample_pulse_sums(w if w.ndim else 1.0, StochasticModel(0.4), g,
                              n_pulses, size)
        assert g.random() == stream(0, "neg").random()


WEIGHTS = st.one_of(st.sampled_from([0.0, 0.3, 1.0, 2.3]), st.floats(0.0, 4.0))
PULSES = st.one_of(st.sampled_from([0, 1, 7, 40, 300, MC_BLOCK, MC_BLOCK + 3]),
                   st.integers(0, 60))


class TestStreamSums:
    """Entries of many generators in one call, each generator's drawn as
    one ``sample_pulse_sums`` call on it would draw them."""

    @settings(deadline=None, max_examples=60)
    @given(entries=st.lists(st.tuples(st.integers(0, 4), WEIGHTS, PULSES),
                            max_size=14),
           p_bar=st.one_of(st.just(0.4), st.floats(0.0, 1.0)),
           size=st.one_of(st.sampled_from([1, 1, 2, 1000, MC_BLOCK + 1]),
                          st.integers(1, 300)),
           seed=st.integers(0, 2**32 - 1))
    # All three kernels in one group and across groups, with empty groups,
    # zero pulses and zero weights.
    @example(entries=[(0, 1.0, 40), (0, 0.0, 40), (0, 2.3, MC_BLOCK + 3),
                      (0, 0.3, 0), (2, 2.3, MC_BLOCK + 3), (2, 1.0, 7),
                      (4, 0.3, 300)], p_bar=0.4, size=1, seed=0)
    # Per-pulse uniforms of several blocks held across groups.
    @example(entries=[(g, 1.0 + 0.1 * g, MC_BLOCK) for g in range(5)
                      for _ in range(3)], p_bar=0.4, size=1, seed=1)
    # Table rows in chunks across groups, between multinomial runs.
    @example(entries=[(0, 0.3, 40), (0, 1.0, 40), (0, 2.3, 300),
                      (1, 0.3, 7), (3, 1.0, 1), (3, 0.0, 60), (3, 2.3, 0)],
             p_bar=0.4, size=1000, seed=2)
    @example(entries=[(0, 1.0, 7), (1, 2.3, 60), (1, 0.0, 0)], p_bar=0.4,
             size=MC_BLOCK + 1, seed=3)
    # A run of equal weights across group boundaries, one law for all.
    @example(entries=[(0, 1.3, 7), (0, 1.3, 40), (1, 1.3, 2), (2, 1.3, 9),
                      (2, 1.3, 300), (2, 0.7, 5), (4, 0.7, 1)], p_bar=0.4,
             size=1, seed=4)
    # Zero weights inside a run of equal weights, and a run of them.
    @example(entries=[(0, 1.3, 7), (0, 0.0, 5), (0, 0.0, 3), (0, 1.3, 9),
                      (1, 0.0, 4), (1, 1.3, 2)], p_bar=0.4, size=1, seed=5)
    # A PULSE_BLOCK boundary inside a run of equal weights of one group.
    @example(entries=[(0, 1.6, MC_BLOCK - 1)] * 10 + [(1, 1.6, 5)],
             p_bar=0.4, size=1, seed=6)
    def test_equals_one_call_per_group(self, entries, p_bar, size, seed):
        entries = sorted(entries, key=lambda e: e[0])
        group = np.array([e[0] for e in entries], dtype=np.int64)
        w = np.array([e[1] for e in entries], dtype=float)
        n = np.array([e[2] for e in entries], dtype=np.int64)
        model = StochasticModel(p_bar)
        got = np.full((len(entries), size), -1, dtype=np.int64)
        seen = np.zeros(len(entries), dtype=int)
        for k, totals in sample_stream_sums(w, model, n, size, group,
                                            streams(seed, ("sss",), 0, 6)):
            assert totals.dtype == np.int64
            assert totals.shape == (seen[k].size, size)
            seen[k] += 1
            got[k] = totals
        assert (seen == 1).all()
        for g in range(6):
            mine = group == g
            np.testing.assert_array_equal(
                got[mine].T, sample_pulse_sums(w[mine], model,
                                               stream(seed, "sss", g),
                                               n[mine], size))

    def test_group_must_not_decrease(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            list(sample_stream_sums([1.0, 1.0], StochasticModel(0.4),
                                    [3, 3], 1, [1, 0],
                                    streams(0, ("x",), 0, 2)))


class TestSigma:
    def test_analytic_values(self):
        assert analytic_sigma(StochasticModel(0.0), 50) == 0.0
        assert analytic_sigma(StochasticModel(0.4), 100) == pytest.approx(
            math.sqrt(0.4 / 100), rel=1e-12)
        assert analytic_sigma(StochasticModel(0.4), 100) == pytest.approx(
            0.0632, abs=1e-4)
        assert analytic_sigma(StochasticModel(0.4), 10) == pytest.approx(
            0.2, rel=1e-12)

    def test_analytic_requires_pulses(self):
        with pytest.raises(ValueError):
            analytic_sigma(StochasticModel(0.4), 0)

    def test_monte_carlo_deterministic_limit(self):
        assert monte_carlo_sigma(StochasticModel(0.0), 50, 10_000, seed=0) == 0.0

    def test_monte_carlo_matches_analytic(self):
        got = monte_carlo_sigma(StochasticModel(0.4), 100, 100_000, seed=7)
        assert got == pytest.approx(0.0632, abs=1e-3)

    def test_monte_carlo_all_deviation(self):
        got = monte_carlo_sigma(StochasticModel(1.0), 4, 100_000, seed=8)
        assert got == pytest.approx(0.5, abs=0.01)

    def test_monte_carlo_reproducible(self):
        a = monte_carlo_sigma(StochasticModel(0.3), 20, 5000, seed=11)
        b = monte_carlo_sigma(StochasticModel(0.3), 20, 5000, seed=11)
        assert a == b

    def test_monte_carlo_needs_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_sigma(StochasticModel(0.3), 20, 500, seed=0)

    def test_memory_bounded(self):
        # 1e5 trials x 1000 pulses on one crossing: per-pulse arrays would
        # take gigabytes; sum sampling keeps the peak in megabytes.
        cal = paper2024()
        model = StochasticModel(0.4)
        config = build_crossbar(cal, [[1.0]], capacity=UNBOUNDED)
        inputs = InputVector(
            (PulseTrain(1000, cal.current_ref, cal.duration_ref),))
        tracemalloc.start()
        try:
            monte_carlo_column_counts(config, inputs, model, 100_000, seed=0)
            _, column_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            monte_carlo_sigma(model, 1000, 100_000, seed=0)
            _, sigma_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert column_peak < 64e6
        assert sigma_peak < 64e6


class TestPbarEstimator:
    def test_clean_trace(self):
        assert estimate_pbar_from_trace([1] * 10) == 0.0

    def test_documented_trace(self):
        counts = [0, 1, 2, 1, 1, 1, 2, 0, 1, 1]
        assert estimate_pbar_from_trace(counts) == pytest.approx(0.4)

    def test_accepts_events(self):
        events = iter(np.array([0, 1, 2, 1, 1, 1, 2, 0, 1, 1]))
        assert estimate_pbar_from_trace(events) == pytest.approx(0.4)

    def test_round_trip(self):
        model = StochasticModel(0.4)
        counts = sample_pulse_sums(1.0, model, stream(9, "rt"), 1, 10_000)
        assert estimate_pbar_from_trace(counts) == pytest.approx(0.4, abs=0.01)

    def test_too_few_events(self):
        with pytest.raises(InsufficientData):
            estimate_pbar_from_trace([1, 1, 1, 1])
        with pytest.raises(InsufficientData):
            estimate_pbar_from_trace([])


class TestFitWeight:
    def test_exact_line(self):
        fit = fit_weight([(0, 0), (10, 10), (20, 20)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_std == pytest.approx(0.0, abs=1e-12)

    def test_noise_free_cumulative_recovers_weight(self):
        w = 3.42
        cum = expected_cumulative(w, 20)
        pts = list(zip(range(21), cum))
        fit = fit_weight(pts)
        assert fit.slope == pytest.approx(w, abs=1e-9)
        # consistent with tens of skyrmions in 20 pulses at the floor field
        assert cum[-1] == pytest.approx(68.4) and cum[-1] > 50

    def test_stochastic_slope_within_sigma_bound(self):
        model = StochasticModel(0.4)
        cum = simulate_cumulative(1.0, model, 20, stream(12, "fit"))
        fit = fit_weight(list(zip(range(21), cum)))
        assert abs(fit.slope - 1.0) <= math.sqrt(0.4 / 20) + 3 * fit.slope_std

    def test_needs_three_points(self):
        with pytest.raises(InsufficientData):
            fit_weight([(0, 0), (20, 68)])

    def test_singular(self):
        with pytest.raises(SingularFit):
            fit_weight([(5, 1), (5, 2), (5, 3)])

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            fit_weight([(0, 0), (2, 2), (1, 1)])

    def test_stack_equals_single_fits(self):
        # A (2, 3, n, 2) stack gives (2, 3) arrays, each entry bit-equal to
        # the float fit of its own point set.
        rng = np.random.default_rng(5)
        x = np.cumsum(rng.uniform(0.5, 2.0, size=(2, 3, 8)), axis=-1)
        y = np.cumsum(rng.integers(0, 3, size=(2, 3, 8)), axis=-1)
        stack = np.stack([x, y], axis=-1)
        fits = fit_weight(stack)
        for part in fits:
            assert isinstance(part, np.ndarray) and part.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = fit_weight(stack[idx])
            assert all(type(v) is float for v in single)
            assert single == tuple(part[idx] for part in fits)

    def test_stack_checks_every_fit(self):
        good = [(0, 0), (1, 1), (2, 2)]
        with pytest.raises(SingularFit):
            fit_weight([good, [(5, 1), (5, 2), (5, 3)]])
        with pytest.raises(ValueError, match="increasing"):
            fit_weight([good, [(0, 0), (2, 2), (1, 1)]])
        with pytest.raises(InsufficientData):
            fit_weight([[(0, 0), (1, 1)]])
