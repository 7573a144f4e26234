"""Deterministic numerical kernel: softmax primitives, the loss floor,
weighted sampling, and reproducible counter-based random streams.

Everything here is pure given its inputs.  Random functions take an explicit
RngStream; two streams built from the same (seed, stream_id) replay the same
sequence bit for bit, across runs and machines.
"""

from __future__ import annotations

import numpy as np

# Additive floor inside log() so losses stay finite; keeps exp(-loss*(loss+eps))
# strictly positive downstream.
LOSS_FLOOR = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (avalanches all 64 bits)."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _child_id(stream_id: int, index: int) -> int:
    """Stream id of child `index` of stream `stream_id`."""
    return _splitmix64((stream_id ^ _splitmix64(index & _MASK64)) & _MASK64)


def _philox_state(seed: int, stream_id: int) -> dict:
    """A fresh Philox state keyed by [seed, stream_id], at counter 0.

    Assigning it to `Philox.state` is bit-identical to
    Philox(key=[seed, stream_id]) and much cheaper: the keyed constructor
    still gathers OS entropy for a SeedSequence it never uses, which
    dominates the cost of creating many small per-sample streams.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, stream_id], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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
            bg = np.random.Philox(seed=0)
            bg.state = _philox_state(self.seed, self.stream_id)
            self._gen = np.random.Generator(bg)
        return self._gen

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream keyed by `index`."""
        return RngStream(self.seed, _child_id(self.stream_id, index))

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


def child_generator_pool(stream: RngStream):
    """Sequential fast path over `stream.child(i).generator`.

    Returns `fetch(index) -> Generator` that re-keys one shared Philox
    instead of constructing a fresh object per child; draws are
    bit-identical to the plain child route.  Finish drawing from one index
    before fetching the next: the generator object is reused.
    """
    bg = np.random.Philox(seed=0)
    gen = np.random.Generator(bg)
    # This pool's own state: only the child id in its key changes per fetch.
    state = _philox_state(stream.seed, 0)
    key = state["state"]["key"]

    def fetch(index: int) -> np.random.Generator:
        key[1] = _child_id(stream.stream_id, index)
        bg.state = state
        return gen

    return fetch


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
    picked = np.argpartition(keys, count - 1, axis=1)[:, :count]
    order = np.argsort(np.take_along_axis(keys, picked, axis=1), axis=1, kind="stable")
    return np.take_along_axis(picked, order, axis=1)
