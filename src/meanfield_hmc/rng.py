"""Deterministic, splittable random streams.

Streams are built on the counter-based Philox generator keyed by a
(seed, stream_id) pair, so distinct stream ids give statistically
independent sequences with no shared mutable state and no counter
overlap.  Every uniform or normal variate consumes exactly one 64-bit
draw; normals are produced by the inverse-CDF transform, never by
rejection, so the stream position is a pure function of how many
variates have been requested.

Uniforms are served from a buffer: raw draws are taken in blocks of
``BLOCK`` values, converted to floats once, and handed out in slices.
Because every variate is one draw and the conversion is elementwise, the
values a stream hands out do not depend on how the requests are sized:
any sequence of calls returns the same numbers as one unbuffered draw of
their total length.  ``counter`` counts the variates handed out, never
the ones still waiting in the buffer.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Raw draws per buffer refill; requests of at least this size bypass the buffer.
BLOCK = 4096
_EMPTY = np.empty(0)


def _splitmix64(x: int) -> int:
    """One splitmix64 avalanche round on a 64-bit integer."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_stream_id(seed: int, chain_index: int) -> int:
    """Stable 64-bit stream id for worker/chain ``chain_index`` under ``seed``."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ _splitmix64((chain_index + 1) & _MASK64))


class RngStream:
    """A single deterministic random stream.

    Identical ``(seed, stream_id)`` pairs reproduce identical sequences
    across runs and platforms.  A stream is meant to be owned by exactly
    one worker; use :meth:`substream` to derive independent streams for
    parallel chains or replicas.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed = int(seed)
        stream_id = int(stream_id)
        if not 0 <= seed < 2**64 or not 0 <= stream_id < 2**64:
            raise ValueError("seed and stream_id must be 64-bit unsigned integers")
        self.seed = seed
        self.stream_id = stream_id
        self.counter = 0
        key = np.array([seed, stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # uniforms drawn but not yet handed out are self._buf[self._pos:]
        self._buf = _EMPTY
        self._pos = 0

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def _draw(self, n: int) -> np.ndarray:
        """``n`` fresh uniforms straight from the generator."""
        k = (self._gen.integers(0, 1 << 64, size=n, dtype=np.uint64)
             >> np.uint64(12)).astype(np.float64)
        return (k + 0.5) * 2.0**-52

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` independent uniforms in (0, 1), one 64-bit draw each.

        Values are of the form (k + 1/2) * 2**-52 with k the top 52 bits of
        the raw draw, so 0.0 and 1.0 are never produced and the map from raw
        bits to floats is exact.  The result may be a view of the stream's
        buffer; no later call hands out or overwrites the same values.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        n = int(n)
        self.counter += n
        pos = self._pos
        end = pos + n
        if end <= self._buf.size:
            self._pos = end
            return self._buf[pos:end]
        head = self._buf[pos:]
        need = end - self._buf.size
        if need >= BLOCK:
            tail = self._draw(need)
            self._buf, self._pos = _EMPTY, 0
        else:
            self._buf = self._draw(BLOCK)
            self._pos = need
            tail = self._buf[:need]
        return np.concatenate((head, tail)) if head.size else tail

    def uniform(self) -> float:
        """One uniform variate in (0, 1)."""
        return float(self.uniforms(1)[0])

    def normal_vector(self, n: int) -> np.ndarray:
        """``n`` independent standard normal variates."""
        if n < 1:
            raise ValueError("n must be positive")
        return ndtri(self.uniforms(n))

    def substream(self, index: int) -> "RngStream":
        """Independent stream for chain/replica ``index``.

        Derived ids never collide with the parent or with other indices, so
        parallel workers need no coordination.
        """
        mixed = _splitmix64(self.seed) ^ _splitmix64(self.stream_id)
        return RngStream(self.seed, derive_stream_id(mixed, index))
