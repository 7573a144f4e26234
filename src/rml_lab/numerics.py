"""Deterministic numerical kernel: softmax primitives, the loss floor,
weighted sampling, and reproducible counter-based random streams.

Everything here is pure given its inputs.  Random functions take an explicit
RngStream, numpy's Philox keyed by (seed, stream_id) or by `child(i)` of one:
a key replays the same sequence bit for bit, across runs and machines, and
rows read in order give the same values however they are chunked.  The noise
injectors draw per-index children in bulk: `child_words` runs
Philox4x64-10 in place in numpy, one pass of at most _PHILOX_LANES blocks
at a time, and yields each child's own words; `unit_doubles` turns them
into numpy's doubles.
"""

from __future__ import annotations

import numpy as np

# Additive floor inside log() so losses stay finite; keeps exp(-loss*(loss+eps))
# strictly positive downstream.
LOSS_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# Philox4x64-10 multipliers (each with its low and high 32-bit halves) and key
# increments, as numpy's Philox uses them (Salmon et al., SC 2011).
_PHILOX_M = tuple((m, m & _MASK32, m >> _SHIFT32)
                  for m in (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)))
_PHILOX_W = (int(_GOLDEN), 0xBB67AE8584CAA73B)
# Philox blocks per pass of child_words; sets the injectors' peak.
_PHILOX_LANES = 2048
# Elements per array of one pass over rows, 128 KB of float64: a refresh
# chunk holds 40 rows of a 400-sample class, 2 of a 6 000 one; verify's
# prop1 and prop2 chunk their trials by it, and feature statistics, blob
# noise and the instance-dependent injector work in row blocks of it.  Every
# user reads its streams in row order, so the size moves no byte and only
# caps memory.
BUDGET = 1 << 14


def even_blocks(rows: int, most: int) -> list[slice]:
    """The fewest blocks of at most `most` (floored at 1) rows that cover
    `rows` rows, all of one size but the last, which is short by fewer rows
    than there are blocks: no block is a small tail that could take another
    GEMM kernel."""
    count = -(-rows // max(1, most))
    size = max(1, -(-rows // max(1, count)))
    return [slice(start, start + size) for start in range(0, rows, size)]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One round of the splitmix64 mixer (avalanches all 64 bits), per uint64
    entry, wrapping modulo 2**64."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _child_id(stream_id: int, index) -> np.ndarray:
    """Stream ids of children `index` (an int array or a range, taken modulo
    2**64) of stream `stream_id`."""
    if isinstance(index, range):
        index = np.arange(index.start, index.stop, index.step)
    index = np.asarray(index).astype(np.uint64)
    return _splitmix64(np.uint64(stream_id) ^ _splitmix64(index))


def _philox4x64(key0: int, key1: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 of the blocks (1..blocks, 0, 0, 0) under keys (key0, k)
    for each k of key1, one lane per block, in place: the (key1.size *
    blocks, 4) words numpy's Philox buffers, `blocks` rows per key."""
    c0, c1, c2, c3, hi0, hi1, k1, t0, t1 = np.zeros((9, key1.size * blocks), dtype=np.uint64)
    c0.reshape(-1, blocks)[...] = np.arange(1, blocks + 1, dtype=np.uint64)
    k1.reshape(-1, blocks)[...] = key1[:, None]
    for r in range(10):
        # Round r's key is the key bumped r times, modulo 2**64.
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) & _MASK64)
        for (m, m_lo, m_hi), x, hi, c, k in zip(_PHILOX_M, (c0, c2), (hi0, hi1), (c3, c1),
                                                (k1, k0)):
            np.multiply(np.bitwise_and(x, _MASK32, out=t0), m_lo, out=t1)
            t1 >>= _SHIFT32
            t0 *= m_hi
            t0 += t1                                   # low cross
            np.bitwise_and(t0, _MASK32, out=hi)
            t0 >>= _SHIFT32
            hi += np.multiply(np.right_shift(x, _SHIFT32, out=t1), m_lo, out=t1)
            hi >>= _SHIFT32                       # high cross, shifted
            hi += t0
            hi += np.multiply(np.right_shift(x, _SHIFT32, out=t1), m_hi, out=t1)
            hi ^= c
            hi ^= k
            x *= m                                     # the low word
        k1 += np.uint64(_PHILOX_W[1])
        # The round's words are (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0).
        c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
    return np.stack([c0, c1, c2, c3], axis=1)


def child_words(stream: "RngStream", indices, count: int):
    """Yield (block, words) per Philox pass: `block` is a slice of
    `indices` (an int array or a range), and row r of words holds the first
    `count` 64-bit words of stream.child(indices[block][r]).

    numpy's Philox steps its counter before it generates, so a fresh stream's
    word j sits in the block at counter j // 4 + 1.  Every block is computed
    on its own, so passes of at most _PHILOX_LANES blocks, even as
    `even_blocks` cuts them, give the bytes a whole-array pass would.  The
    words are the caller's alone: a loop body that drops them before its own
    work keeps them out of its peak.
    """
    blocks = -(-count // 4)
    for block in even_blocks(len(indices), _PHILOX_LANES // blocks):
        yield block, _philox4x64(stream.seed, _child_id(stream.stream_id, indices[block]),
                                 blocks).reshape(-1, blocks * 4)[:, :count]


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's doubles (w >> 11) * 2**-53 of 64-bit words w, as
    Generator.random() makes them."""
    return (words >> np.uint64(11)) * 2.0 ** -53


def lemire_integers(words: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Generator.integers(0, high), 1 <= high < 2**32, per row of
    `words`: Lemire's multiply-and-reject over their 32-bit halves, low half
    first.  A half is rejected when the low word of half * high falls below
    2**32 % high.  Returns (values, drawn); drawn is False on a row whose
    halves were all rejected."""
    if not 1 <= high < 1 << 32:
        raise ValueError(f"lemire_integers: high must be in [1, 2**32), got {high}")
    rows, width = words.shape
    halves = np.stack([words & _MASK32, words >> _SHIFT32], axis=2).reshape(rows, 2 * width)
    product = halves * np.uint64(high)
    accepted = (product & _MASK32) >= np.uint64((1 << 32) % high)
    first = accepted.argmax(axis=1)
    values = product[np.arange(rows), first] >> _SHIFT32
    return values.astype(np.int64), accepted.any(axis=1)


class RngStream:
    """Counter-based random stream: Philox keyed by (seed, stream_id).

    Distinct stream_ids under one seed give statistically independent
    sequences, so one logical sampling site gets one stream and never
    perturbs another.  `child(i)` derives a new stream deterministically;
    it is how per-epoch / per-sample keying is done everywhere in this
    package.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream keyed by `index`."""
        return RngStream(self.seed, int(_child_id(self.stream_id, [index & _MASK64])[0]))

    # Thin draws over the wrapped generator.
    def random(self, size=None):
        return self.generator.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; safe for entries up to +-1e3 and beyond."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax: logits must be finite")
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(softmax(z)) and log(sum(exp(z))) along the last axis from one exp
    pass, the first written over z (a float64 array the caller owns)."""
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax_lse: entries must be finite")
    m = np.max(z, axis=-1, keepdims=True)
    z -= m
    log_sum = np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    z -= log_sum
    return z, (m + log_sum)[..., 0]


# Smallest weight whose race key -log(u)/w is finite for every nonzero draw
# of Generator.random (u >= 2**-53): 53 ln 2 / DBL_MAX, ~2.04e-307.
RACE_MIN_WEIGHT = float(-np.log(2.0 ** -53) / np.finfo(np.float64).max)


def _race_draw(u: np.ndarray, w: np.ndarray, count: int) -> np.ndarray:
    """Per row, draw `count` distinct columns with probability proportional
    to w, from the caller's uniforms u (Efraimidis & Spirakis, IPL 2006).

    Exponential-race keys, equivalent to successive draws with
    renormalization: column j gets key -log(u_j)/w_j and the row's smallest
    `count` keys win, in key order.  Trusts its inputs: u is (rows, m), w is
    (rows, m) or (1, m) for all rows, finite and >= 0, and each row has at
    least `count` columns with u > 0 and w >= RACE_MIN_WEIGHT, whose keys are
    finite.  A zero u or a smaller w, zero included, gives an infinite key.
    """
    with np.errstate(divide="ignore", over="ignore"):
        keys = -np.log(u) / w
    # Gathers by flat index: row r's entries sit at r * m + column.
    m = keys.shape[1]
    row_offsets = np.arange(0, keys.size, m)[:, None]
    part = np.argpartition(keys, count - 1, axis=1)
    order = np.argsort(keys.ravel()[part[:, :count] + row_offsets], axis=1, kind="stable")
    return part.ravel()[order + row_offsets]
