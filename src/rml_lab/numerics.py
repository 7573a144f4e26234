"""Deterministic numerical kernel: softmax primitives, the loss floor,
weighted sampling, and reproducible counter-based random streams.

Everything here is pure given its inputs.  Random functions take an explicit
RngStream, numpy's Philox keyed by (seed, stream_id) or by `child(i)` of one:
a key replays the same sequence bit for bit, across runs and machines, and
rows read in order give the same values however they are chunked.  The noise
injectors draw per-index children in bulk: `child_random` and
`child_integers` run Philox4x64-10 in numpy, in passes of at most
_PHILOX_LANES blocks, and give each child's own bytes.
"""

from __future__ import annotations

import numpy as np

# Additive floor inside log() so losses stay finite; keeps exp(-loss*(loss+eps))
# strictly positive downstream.
LOSS_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# Philox4x64-10 multipliers and key increments (Salmon et al., "Parallel
# random numbers: as easy as 1, 2, 3", SC 2011), as numpy's Philox uses them.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (int(_GOLDEN), 0xBB67AE8584CAA73B)
# Philox blocks computed per pass of the bulk kernel; bounds its temporaries.
_PHILOX_LANES = 8192


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One round of the splitmix64 mixer (avalanches all 64 bits), per uint64
    entry, wrapping modulo 2**64."""
    z = x + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _child_id(stream_id: int, index) -> np.ndarray:
    """Stream ids of children `index` (an int array, taken modulo 2**64) of
    stream `stream_id`."""
    index = np.asarray(index).astype(np.uint64)
    return _splitmix64(np.uint64(stream_id) ^ _splitmix64(index))


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products m * x, the high word
    assembled from 32-bit halves (no partial sum below overflows)."""
    m_lo, m_hi = m & _MASK32, m >> np.uint64(32)
    x_lo, x_hi = x & _MASK32, x >> np.uint64(32)
    low_cross = m_hi * x_lo + ((m_lo * x_lo) >> np.uint64(32))
    high_cross = m_lo * x_hi + (low_cross & _MASK32)
    high = m_hi * x_hi + (low_cross >> np.uint64(32)) + (high_cross >> np.uint64(32))
    return m * x, high


def _philox4x64(counter: np.ndarray, key0: int, key1: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the blocks at counters (counter, 0, 0, 0) under keys
    (key0, key1), one lane per entry: the (lanes, 4) words numpy's Philox
    buffers for them."""
    zero = np.zeros_like(counter)
    c0, c1, c2, c3 = counter, zero, zero, zero
    for r in range(10):
        # Round r's key is the key bumped r times, modulo 2**64.
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) & _MASK64)
        k1 = key1 + np.uint64((r * _PHILOX_W[1]) & _MASK64)
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _child_passes(stream: "RngStream", indices, count: int):
    """Yield (start, words) per pass: row r of words holds the first `count`
    64-bit words of stream.child(indices[start + r]).

    numpy's Philox steps its counter before it generates, so a fresh stream's
    word j sits in the block at counter j // 4 + 1.  Every block is computed
    on its own, so a pass of at most _PHILOX_LANES blocks, child ids
    included, gives the bytes a whole-array pass would.
    """
    indices = np.asarray(indices)
    blocks = -(-count // 4)
    rows = max(1, _PHILOX_LANES // blocks)
    counter = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), min(rows, indices.size))
    for start in range(0, indices.size, rows):
        key1 = np.repeat(_child_id(stream.stream_id, indices[start:start + rows]), blocks)
        words = _philox4x64(counter[:key1.size], stream.seed, key1)
        yield start, words.reshape(-1, blocks * 4)[:, :count]


def _child_words(stream: "RngStream", indices, count: int) -> np.ndarray:
    """Row r holds the first `count` 64-bit words of stream.child(indices[r])."""
    out = np.empty((np.size(indices), count), dtype=np.uint64)
    for start, words in _child_passes(stream, indices, count):
        out[start:start + len(words)] = words
    return out


def child_random(stream: "RngStream", indices, count: int) -> np.ndarray:
    """Row r is stream.child(indices[r]).random(count), bit for bit: numpy's
    doubles (w >> 11) * 2**-53 of each child's words, one pass at a time."""
    out = np.empty((np.size(indices), count))
    for start, words in _child_passes(stream, indices, count):
        block = out[start:start + len(words)]
        block[...] = words >> np.uint64(11)
        block *= 2.0 ** -53
    return out


def _lemire(words: np.ndarray, high: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Generator.integers(0, high), 2 <= high < 2**32, per row of
    `words`: Lemire's multiply-and-reject over their 32-bit halves, low half
    first.  A half is rejected when the low word of half * high falls below
    2**32 % high.  Returns (values, drawn); drawn is False on a row whose
    halves were all rejected."""
    halves = np.stack([words & _MASK32, words >> np.uint64(32)], axis=2).reshape(len(words), -1)
    product = halves * np.uint64(high)
    accepted = (product & _MASK32) >= np.uint64((1 << 32) % high)
    first = accepted.argmax(axis=1)
    values = product[np.arange(len(product)), first] >> np.uint64(32)
    return values.astype(np.int64), accepted.any(axis=1)


def child_integers(stream: "RngStream", indices, high: int, skip: int) -> np.ndarray:
    """Entry r is what stream.child(indices[r]).integers(0, high) gives after
    `skip` words were drawn from that child (one per random() value);
    1 <= high < 2**32.  Runs one pass of at most _PHILOX_LANES rows at a time.

    The draw reads the three words after the skipped ones; a row whose six
    halves are all rejected (p < 1e-38 for high <= 1000) reads on, one more
    block at a time.
    """
    if not 1 <= high < 1 << 32:
        raise ValueError(f"child_integers: high must be in [1, 2**32), got {high}")
    indices = np.asarray(indices)
    values = np.zeros(indices.size, dtype=np.int64)
    if high == 1:
        return values   # numpy returns low without drawing
    for start in range(0, indices.size, _PHILOX_LANES):
        todo = np.arange(start, min(start + _PHILOX_LANES, indices.size))
        count = skip + 3
        while todo.size:
            drawn_values, drawn = _lemire(_child_words(stream, indices[todo], count)[:, skip:],
                                          high)
            values[todo[drawn]] = drawn_values[drawn]
            todo = todo[~drawn]
            count += 4
    return values


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


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    """log(softmax(logits)) computed without leaving log space."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax: logits must be finite")
    z = z - np.max(z, axis=axis, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))


def logsumexp(values, axis: int = -1):
    """log(sum(exp(values))) along `axis`, max-shifted."""
    v = np.asarray(values, dtype=np.float64)
    m = np.max(v, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(v - m), axis=axis))


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
