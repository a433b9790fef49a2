"""Stochastic per-pulse skyrmion generation and its fluctuation law.

A pulse at weight ``w`` nominally creates ``floor(w)`` skyrmions plus one
more with probability ``frac(w)``.  Thermal stochasticity then perturbs the
count by +/-1 with total probability ``p_bar`` (split evenly), and the
result clamps at zero.  At the unit operating point this reproduces the
observed outcome set {0, 1, 2} and the relative deviation of the
accumulated count follows ``sigma = sqrt(p_bar / n_pulse)``.

A pulse's count therefore takes at most four values, so the total over N
independent pulses is exactly multinomial over them, or equivalently the
N-fold convolution of the one-pulse law.  ``pulse_distribution`` is the
only definition of that law, and ``sample_pulse_sums`` the only sampler:
it draws totals with no per-pulse array, a batch by inverse CDF from a
cached table, placed by a guided lookup mostly in one comparison, a
single total of up to MC_BLOCK pulses from one uniform per pulse, and any
other total from one multinomial.  A pulse-by-pulse record is a batch of
one-pulse totals.  Both take arrays too: ``pulse_distribution`` gives the
laws of an array of weights, and ``sample_pulse_sums`` draws the totals of
K (weight, pulse count) entries in one call, entry after entry on the
stream, so one call draws exactly what K scalar calls would.
``sample_stream_sums`` draws entries from many generators, each as one
``sample_pulse_sums`` call on it would, and transforms the uniforms of
all of them together: the crossbar's tracks each draw from their own
stream through it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InsufficientData, SingularFit
from .rng import streams

#: Trials per derived stream in blocked Monte Carlo loops.  Trial t lives in
#: block t // MC_BLOCK, so any parallel split at block boundaries reproduces
#: the sequential result bit for bit.
MC_BLOCK = 8192

#: Uniforms per block of per-pulse draws.  Per-pulse entries, of one
#: generator or many, are transformed a block at a time, which keeps their
#: working memory near 2 MB however many entries or generators there are.
PULSE_BLOCK = 8 * MC_BLOCK


@dataclass(frozen=True)
class StochasticModel:
    """Per-pulse count fluctuation model.

    p_bar  probability that a pulse's count deviates from its nominal value
    """

    p_bar: float

    def __post_init__(self):
        if not 0.0 <= self.p_bar <= 1.0:
            raise ValueError("p_bar must lie in [0, 1]")

    def deviation_probabilities(self) -> tuple[float, float]:
        """(p(-1), p(+1)) for one pulse; the even split is what makes the
        sqrt(p_bar/N) law exact."""
        return self.p_bar / 2.0, self.p_bar / 2.0


def pulse_distribution(w, model: StochasticModel
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of one pulse's count as (values, probabilities), each of
    shape ``(..., 4)`` for a weight or an array of weights ``w``.

    The outcomes are ``max(floor(w) - 1 + k, 0)`` for k = 0..3: nominal
    count ``floor(w)`` or ``floor(w) + 1`` (probability ``frac(w)``), then
    a -1/0/+1 deviation, clamped at zero per pulse.  Values may repeat
    where the clamp folds -1 onto 0.  At exactly zero weight every outcome
    is 0: the device is at its cutoff field and there is no attempt for
    the thermal fluctuation to act on.  A weight must be finite, >= 0
    and below 2**63, so that its largest outcome ``floor(w) + 2`` fits an
    int64: the largest double below 2**63 is 2**63 - 1024.
    """
    w = np.asarray(w, dtype=float)
    lowest = w.min(initial=np.inf)
    if not (lowest >= 0 and w.max(initial=0.0) < 2.0**63):
        raise ValueError("weight must be finite, >= 0 and below 2**63")
    p_minus, p_plus = model.deviation_probabilities()
    p_stay = 1.0 - p_minus - p_plus
    base = np.floor(w)
    frac = w - base
    # An outcome at a time, then viewed with the outcome axis last: numpy
    # pays its loop overhead per weight on a last axis of 4, or to
    # broadcast one.  Outcome k has probability (1 - frac) * (p_minus,
    # p_stay, p_plus, 0)[k] + frac * (0, p_minus, p_stay, p_plus)[k]; a
    # zero term adds +0.0 to a non-negative product, so it is left out.
    low = 1.0 - frac
    probs = np.empty((4,) + w.shape)
    np.multiply(low, p_minus, out=probs[0, ...])
    np.multiply(low, p_stay, out=probs[1, ...])
    probs[1] += frac * p_minus
    np.multiply(low, p_plus, out=probs[2, ...])
    probs[2] += frac * p_stay
    np.multiply(frac, p_plus, out=probs[3, ...])
    values = np.empty((4,) + w.shape, dtype=np.int64)
    values[1] = base
    np.subtract(values[1], 1, out=values[0, ...])
    np.maximum(values[0], 0, out=values[0, ...])
    np.add(values[1], 1, out=values[2, ...])
    np.add(values[1], 2, out=values[3, ...])
    if lowest == 0:
        zero = w == 0
        values[:, zero] = 0
        probs[:, zero] = ((1.0,), (0.0,), (0.0,), (0.0,))
    return _outcomes_last(values), _outcomes_last(probs)


def _outcomes_last(a: np.ndarray) -> np.ndarray:
    """View of an outcome-major array ``(4, ...)`` as ``(..., 4)``."""
    return a.transpose(*range(1, a.ndim), 0)


@functools.lru_cache(maxsize=1024)
def _pulse_law(w: float, p_bar: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``pulse_distribution`` of one weight and its ``_pulse_cdf``,
    for scalar draws."""
    values, probs = pulse_distribution(w, StochasticModel(p_bar))
    law = values, probs, _pulse_cdf(probs)
    for a in law:
        a.flags.writeable = False
    return law


#: Kernels of ``sample_pulse_sums``, chosen per entry by ``_kernel``.
TABLE, PULSES, MULTINOMIAL = range(3)


def _kernel(span, n, size: int):
    """Kernel that draws ``size`` totals of ``n`` pulses whose one-pulse
    outcomes span ``span`` (last value minus first): TABLE for a batch as
    long as the support, of at most MC_BLOCK totals; else PULSES for one
    total of at most MC_BLOCK pulses; else MULTINOMIAL.  Written as
    arithmetic on the codes, which costs a scalar call far less than
    ``np.where``."""
    off_table = span * n >= min(size, MC_BLOCK)
    return off_table * (MULTINOMIAL - ((size == 1) & (n <= MC_BLOCK)))


def _pulse_cdf(probs: np.ndarray) -> np.ndarray:
    """P(count <= outcome k) of one pulse for outcomes (..., 4), computed as
    ``_sum_cdf`` computes the one-pulse table, so the two agree bit for
    bit: the outcomes are added in order, an outcome at a time as
    ``pulse_distribution`` builds them."""
    cdf = probs.transpose(-1, *range(probs.ndim - 1)).copy()
    for k in range(1, 4):
        cdf[k] += cdf[k - 1]
    cdf /= cdf[-1]
    return _outcomes_last(cdf)


def _place(values: np.ndarray, cdf: np.ndarray, n_pulses, u: np.ndarray
           ) -> np.ndarray:
    """Totals of K entries from one uniform per pulse: entry k sums the
    outcomes ``values[k]`` (K, 4) of its ``n_pulses[k]`` uniforms, which
    follow those of the entries before it in ``u``.

    Each uniform starts at outcome 0 and steps past each outcome whose
    ``cdf`` (K, 4) is <= u, so it lands exactly where
    ``_lookup([_sum_cdf(w, p_bar, 1)], u)`` does; the last outcome is never
    tested, and one of probability 0 (floor(w) + 2 at an integer weight)
    has cdf 1 before it, out of reach of u < 1.  The cdf never decreases,
    so the steps are the count of its first three entries that are <= u,
    taken a column at a time on the column repeated per pulse.
    """
    step = (np.repeat(cdf[:, 0], n_pulses) <= u).view(np.uint8)
    for k in (1, 2):
        step += (np.repeat(cdf[:, k], n_pulses) <= u).view(np.uint8)
    idx = np.repeat(np.arange(0, cdf.size, 4), n_pulses)
    idx += step
    counts = np.bincount(idx, minlength=cdf.size).reshape(-1, 4)
    return np.einsum("kv,kv->k", counts, values.reshape(-1, 4))


@functools.lru_cache(maxsize=1024)
def _sum_cdf(w: float, p_bar: float, n_pulses: int
             ) -> tuple[int, np.ndarray, np.ndarray]:
    """(offset, cdf, guide) of the total of ``n_pulses`` pulses, from the
    n-fold convolution of ``pulse_distribution`` by repeated squaring.
    Entry k of ``cdf`` is P(total <= offset + k); the table spans the
    totals from the first to the last of non-zero probability, and its
    last entry is ``inf``, so every uniform in [0, 1) lands in the
    support.  Entry g of ``guide`` is ``searchsorted(cdf, g / B, "right")``
    for B >= 2 * cdf.size buckets, a power of two so ``u * B`` is exact;
    at one byte up to 256 totals and two up to MC_BLOCK, it never
    outweighs the cdf.  Both are read-only.  The cache holds the ~560
    laws of a 15-state layer at up to 40 pulses.
    """
    values, probs = pulse_distribution(w, StochasticModel(p_bar))
    power = np.bincount(values - values[0], weights=probs)
    pmf = np.ones(1)
    n = n_pulses
    while n:
        if n & 1:
            pmf = np.convolve(pmf, power)
        n >>= 1
        if n:
            power = np.convolve(power, power)
    # Trimmed after the convolution, not before: a shorter input sums the
    # same products in another order and can move a cdf entry by an ulp.
    # The totals cut off hold cdf 0 or 1, which no uniform in [0, 1)
    # reaches: floor(w) + 2 at an integer weight and underflowed tails.
    support = np.flatnonzero(pmf)
    cdf = np.cumsum(pmf[support[0]:support[-1] + 1])
    cdf /= cdf[-1]
    cdf[-1] = np.inf
    buckets = 2 << (cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets) / buckets, side="right")
    guide = guide.astype(np.min_scalar_type(cdf.size - 1))
    cdf.flags.writeable = guide.flags.writeable = False
    return int(values[0]) * n_pulses + int(support[0]), cdf, guide


def _lookup(tables: Sequence[tuple], u: np.ndarray) -> np.ndarray:
    """Totals of R rows of uniforms ``u`` (R, S): row r is
    ``offset + searchsorted(cdf, u[r], side="right")`` bit for bit for the
    ``_sum_cdf`` table (offset, cdf, guide) ``tables[r]``.

    The search is indexed (Chen & Asau, 1974): a uniform in bucket g of its
    row's guide lands at or after ``guide[g]``, and one test there settles
    most.  One table's misses take one searchsorted, which costs little
    in a single cdf.  Over several tables each step is one call over every
    row: the rows' cdfs are joined end to end and their guides joined as
    ``intp``, each shifted by its row's start in the joined cdf, so a
    uniform costs one guide ``take``.  A miss (``cdf[guide[g]] <= u``, 7 %
    of the uniforms of a 15-state layer's laws) steps one entry forward,
    always inside its row's cdf, which ends in ``inf``, and a second test
    there settles most of the rest.  The few left (1 %) search the keys
    ``row + 1j * cdf``: numpy orders complex numbers by real part, then
    imaginary part, so a uniform keyed ``row + 1j * u`` lands in its own
    row.
    """
    if len(tables) == 1:   # one table is searched without joining
        (offset, cdf, guide), = tables
        flat = u.reshape(-1)
        idx = guide.take((flat * guide.size).astype(np.intp))
        miss = np.flatnonzero(cdf.take(idx) <= flat)
        idx[miss] = cdf.searchsorted(flat[miss], side="right")
        return np.add(idx, offset, dtype=np.intp).reshape(u.shape)
    offsets, cdfs, guides = zip(*tables)
    rows = len(tables)
    lengths = np.fromiter(map(len, cdfs), np.intp, rows)
    buckets = np.fromiter(map(len, guides), np.intp, rows)
    starts = np.cumsum(lengths) - lengths
    cdf = np.concatenate(cdfs)
    guide = np.concatenate(guides, dtype=np.intp)
    guide += np.repeat(starts, buckets)
    # Bucket, then entry of the joined cdf, then total.
    idx = np.empty(u.shape, dtype=np.intp)
    np.multiply(u, buckets[:, None], out=idx, casting="unsafe")
    idx += (np.cumsum(buckets) - buckets)[:, None]
    idx = guide.take(idx)
    miss = np.flatnonzero(cdf.take(idx) <= u)
    if miss.size:
        flat, missed = idx.reshape(-1), u.reshape(-1)[miss]
        near = flat[miss]
        near += 1
        left = np.flatnonzero(cdf.take(near) <= missed)
        if left.size:
            keys = _complex(np.repeat(np.arange(rows), lengths), cdf)
            near[left] = keys.searchsorted(
                _complex(miss[left] // u.shape[1], missed[left]),
                side="right")
        flat[miss] = near
    idx += np.subtract(offsets, starts)[:, None]
    return idx


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """``real + 1j * imag`` with both parts exact: the product ``1j * inf``
    would give a nan real part."""
    out = np.empty(imag.size, dtype=complex)
    out.real, out.imag = real, imag
    return out


def sample_pulse_sums(w, model: StochasticModel, rng: np.random.Generator,
                      n_pulses, size: int) -> np.ndarray:
    """Total count of ``n_pulses`` independent pulses at weight ``w``,
    ``size`` times: shape ``(size,)``.  Given 1-D arrays ``w`` and
    ``n_pulses`` of K entries, entry k totals ``n_pulses[k]`` pulses at
    ``w[k]`` and the result has shape ``(size, K)``.

    The totals follow the exact law of the sum, drawn by one of three
    kernels, chosen per entry by ``_kernel`` from the arguments alone, so
    the random stream does not depend on any cache:

    - TABLE: a batch at least as long as its law's support, for a support
      of at most MC_BLOCK values, draws each total with one uniform placed
      by ``_lookup`` in the cached ``_sum_cdf`` table, mostly in one test.
      The cap bounds a table's memory and its one-off build time,
      quadratic in its length.
    - PULSES: a single total of at most MC_BLOCK pulses, such as a window
      of the kinematic crossbar, draws one uniform per pulse and sums
      their outcomes by ``_place``.
    - MULTINOMIAL: any other entry takes the number of pulses landing on
      each outcome of ``pulse_distribution`` from a multinomial.

    Entries consume the stream one after another, so the array form draws
    exactly what a loop of scalar calls over its entries would; it is
    ``sample_stream_sums`` on one generator.  A scalar call reads its law
    from a cache and skips the array bookkeeping.
    """
    weights = np.asarray(w, dtype=float)
    n = np.asarray(n_pulses, dtype=np.int64)
    p_bar = float(model.p_bar)
    if (n < 0).any():
        raise ValueError("n_pulses must be >= 0")
    if weights.ndim == n.ndim == 0:
        w, n = float(weights), int(n)
        values, probs, cdf = _pulse_law(w, p_bar)
        kernel = _kernel(values[-1] - values[0], n, size)
        if kernel == TABLE:
            return _lookup([_sum_cdf(w, p_bar, n)], rng.random((1, size)))[0]
        if kernel == PULSES:
            # What ``_place`` does for one entry: the cdf is monotone, so
            # the steps past outcomes 0..2 are one searchsorted.
            steps = cdf[:3].searchsorted(rng.random(n), side="right")
            return values.take(steps).sum(keepdims=True)
        return rng.multinomial(n, probs, size=size) @ values
    totals = np.empty((n.size, size), dtype=np.int64)
    for entries, block in sample_stream_sums(weights, model, n, size,
                                             np.zeros_like(n), (rng,)):
        totals[entries] = block
    return totals.T


def _boundaries(change: np.ndarray) -> np.ndarray:
    """Start of each run of K entries and then K, given ``change``, which
    says for each entry after the first whether a run starts there."""
    edges = np.ones(change.size + 2, dtype=bool)
    edges[1:-1] = change
    return np.flatnonzero(edges)


def sample_stream_sums(w, model: StochasticModel, n_pulses, size: int,
                       group, rngs) -> Iterator[tuple]:
    """Totals of K (weight, pulse count) entries, 1-D ``w`` and
    ``n_pulses``, ``size`` times each, entry k drawn from generator
    ``group[k]`` of the iterable ``rngs``.  ``group`` is non-decreasing,
    so a generator is done with before the next is asked for, and each
    generator's entries are drawn exactly as one ``sample_pulse_sums``
    call on them would draw them.

    Yields ``(entries, totals)`` blocks holding each entry once:
    ``entries`` indexes the K entries (a slice or an integer array) and
    ``totals`` is their ``(len, size)`` int64 array.  A run of multinomial
    entries is yielded as it is drawn.  Table and per-pulse uniforms are
    held across generators and transformed together, by one ``_lookup``
    once a chunk of ``2 * MC_BLOCK // size`` whole rows of table uniforms
    (or one longer row) is waiting and one ``_place`` once PULSE_BLOCK
    per-pulse uniforms are, so no temporary outgrows about a chunk or a
    block however many entries or generators there are.  The chunk length
    changes only how the uniforms are grouped, never which are drawn: two
    blocks per lookup halve its fixed cost per uniform, while a chunk's
    uniforms, indices and cdf values stay within 128 kB each.

    All but the draws is laid out first: the law, evaluated once per run
    of equal consecutive weights (a crossbar site's windows share one) and
    read by each entry through its run's index; each entry's kernel; and
    the runs of one generator and kernel, each with its count of uniforms.
    A run then costs one re-key and one ``random`` call, and one more call
    for each block it fills.
    """
    weights = np.asarray(w, dtype=float).reshape(-1)
    n = np.asarray(n_pulses, dtype=np.int64).reshape(-1)
    group = np.asarray(group, dtype=np.int64).reshape(-1)
    if (n < 0).any():
        raise ValueError("n_pulses must be >= 0")
    if not n.size:
        return
    p_bar = float(model.p_bar)
    # One law per run of equal consecutive weights, and each entry's run.
    runs = _boundaries(weights[1:] != weights[:-1])
    law = np.repeat(np.arange(runs.size - 1), runs[1:] - runs[:-1])
    values, probs = pulse_distribution(weights[runs[:-1]], model)
    cdf = _pulse_cdf(probs)
    kernel = _kernel((values[:, -1] - values[:, 0]).take(law), n, size)
    # Runs of one generator and kernel, keyed 3 * group + kernel, and the
    # uniforms each run draws.
    key = 3 * group + kernel
    edges = _boundaries(key[1:] != key[:-1])
    starts = edges[:-1]
    kinds = kernel.take(starts)
    uniforms = np.add.reduceat(np.where(kernel == PULSES, n, size), starts)

    def transform(kind, start, stop, count, fill):
        entries = (slice(start, stop) if stop - start == count
                   else start + np.flatnonzero(kernel[start:stop] == kind))
        u = buffers[kind][:fill]
        if kind == PULSES:
            laws = law[entries]
            return entries, _place(values.take(laws, axis=0),
                                   cdf.take(laws, axis=0), n[entries], u
                                   )[:, None]
        tables = [_sum_cdf(wk, p_bar, nk) for wk, nk
                  in zip(weights[entries].tolist(), n[entries].tolist())]
        return entries, _lookup(tables, u.reshape(count, size))

    # Per kind: a block is transformed once it holds ``full`` uniforms (a
    # table block ``rows`` rows of ``size``, a per-pulse block PULSE_BLOCK),
    # and a run that would take it past ``room`` is cut at the last entry
    # that fits; per-pulse entries hold at most MC_BLOCK uniforms.  Each
    # kind's buffer holds a block, or all there is; ``held`` the open
    # block's first entry, entries and uniforms.
    rows = max(1, 2 * MC_BLOCK // max(size, 1))
    full = rows * size, PULSE_BLOCK
    room = rows * size, PULSE_BLOCK + MC_BLOCK
    total = np.bincount(kinds, weights=uniforms, minlength=3)
    buffers = [np.empty(min(r, int(t))) for r, t in zip(room, total)]
    held = [[0, 0, 0], [0, 0, 0]]
    generators, at = iter(rngs), -1
    for start, stop, g, kind, m in zip(starts.tolist(), edges[1:].tolist(),
                                       group.take(starts).tolist(),
                                       kinds.tolist(), uniforms.tolist()):
        if g < at:
            raise ValueError("group must be non-decreasing")
        while at < g:
            rng, at = next(generators), at + 1
        if kind == MULTINOMIAL:
            run = slice(start, stop)
            draws = rng.multinomial(n[run, None],
                                    probs.take(law[run], axis=0)[:, None],
                                    size=(stop - start, size))
            yield run, np.einsum("ksv,kv->ks", draws,
                                 values.take(law[run], axis=0))
            continue
        block, buffer = held[kind], buffers[kind]
        while start < stop:
            _, count, fill = block
            cut, take = stop, m
            free = room[kind] - fill
            if m > free and kind == TABLE:   # the entries that fit
                cut = start + free // size
                take = (cut - start) * size
            elif m > free:
                ends = np.cumsum(n[start:stop])
                cut = start + int(ends.searchsorted(free, side="right"))
                take = int(ends[cut - start - 1]) if cut > start else 0
            rng.random(out=buffer[fill:fill + take])
            if not count:
                block[0] = start
            block[1:] = count + cut - start, fill + take
            start, m = cut, m - take
            if fill + take >= full[kind] or start < stop:
                yield transform(kind, block[0], cut, *block[1:])
                block[1:] = 0, 0
    for kind, (start, count, fill) in enumerate(held):
        if count:
            yield transform(kind, start, n.size, count, fill)


def simulate_cumulative(w: float, model: StochasticModel, n_pulses: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Cumulative skyrmion count after 0..n_pulses pulses (length n+1)."""
    counts = sample_pulse_sums(w, model, rng, 1, n_pulses)
    out = np.zeros(n_pulses + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def expected_cumulative(w: float, n_pulses: int) -> np.ndarray:
    """Noise-free expected accumulation: k * w for k = 0..n_pulses."""
    return np.arange(n_pulses + 1, dtype=float) * w


def analytic_sigma(model: StochasticModel, n_pulse: int) -> float:
    """Relative standard deviation of N_sk / N_pulse: sqrt(p_bar / N)."""
    if n_pulse < 1:
        raise ValueError("n_pulse must be >= 1")
    return math.sqrt(model.p_bar / n_pulse)


def monte_carlo_sigma(model: StochasticModel, n_pulse: int, trials: int,
                      seed: int, w: float = 1.0, path: tuple = ()) -> float:
    """Empirical std of (sum of counts)/n_pulse over independent trials.

    Each trial's sum is drawn exactly by ``sample_pulse_sums``.  Trials
    come from Philox streams derived per block of MC_BLOCK trials, block
    k from ``(seed, "mc-sigma", *path, k)``, all in one key pass, so
    memory stays bounded, reruns with the same seed are bit-identical and
    blocks can be distributed across workers.  ``path`` decorrelates
    repeated calls that share a seed (e.g. points of a parameter sweep).
    """
    if trials < 1000:
        raise ValueError("trials must be >= 1000 for a stable estimate")
    if n_pulse < 1:
        raise ValueError("n_pulse must be >= 1")
    means = np.empty(trials)
    blocks = -(-trials // MC_BLOCK)
    for done, g in zip(range(0, trials, MC_BLOCK),
                       streams(seed, ("mc-sigma", *path), 0, blocks)):
        nb = min(MC_BLOCK, trials - done)
        means[done:done + nb] = sample_pulse_sums(w, model, g, n_pulse,
                                                  nb) / n_pulse
    return float(means.std(ddof=1))


def estimate_pbar_from_trace(events: Iterable) -> float:
    """Fraction of pulses whose count (``events``: per-pulse skyrmion
    counts) deviated from the nominal value.

    Unbiased for p_bar in the unit-weight regime, which is the only regime
    the estimator is defined for: the nominal count is 1.
    """
    counts = np.asarray([int(e) for e in events], dtype=np.int64)
    if counts.size < 10:
        raise InsufficientData(
            f"need at least 10 events, got {counts.size}")
    return float(np.mean(counts != 1))


class WeightFit(NamedTuple):
    slope: float
    intercept: float
    slope_std: float


def fit_weight(cumulative: Sequence[tuple[float, float]]) -> WeightFit:
    """Ordinary least-squares line through (n_pulses, n_sk) points.

    The slope is the empirical synaptic weight dN_sk/dN_pulses;
    ``slope_std`` is the standard OLS slope uncertainty from the residuals.
    An ``(n, 2)`` array of points gives floats; a stack ``(..., n, 2)`` is
    fitted point set by point set and gives arrays of shape ``(...)``.
    """
    pts = np.asarray(cumulative, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError("expected a sequence of (n_pulses, n_sk) pairs")
    if pts.shape[-2] < 3:
        raise InsufficientData("need at least 3 points to fit")
    x, y = pts[..., 0], pts[..., 1]
    if np.any(np.diff(x, axis=-1) <= 0):
        if np.any(np.all(x == x[..., :1], axis=-1)):
            raise SingularFit("all n_pulses identical; slope undefined")
        raise ValueError("n_pulses must be strictly increasing")
    x_mean, y_mean = x.mean(axis=-1), y.mean(axis=-1)
    dx = x - x_mean[..., None]
    sxx = np.sum(dx ** 2, axis=-1)
    if np.any(sxx == 0.0):
        raise SingularFit("no spread in n_pulses")
    slope = np.sum(dx * (y - y_mean[..., None]), axis=-1) / sxx
    intercept = y_mean - slope * x_mean
    resid = y - (slope[..., None] * x + intercept[..., None])
    dof = x.shape[-1] - 2
    s2 = (resid[..., None, :] @ resid[..., :, None])[..., 0, 0] / dof
    fit = WeightFit(slope, intercept, np.sqrt(np.maximum(s2, 0.0) / sxx))
    return WeightFit(*map(float, fit)) if pts.ndim == 2 else fit
