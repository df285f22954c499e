"""Deterministic, splittable random streams.

Streams are built on the counter-based Philox generator keyed by a
(seed, stream_id) pair, so distinct stream ids give statistically
independent sequences with no shared mutable state and no counter
overlap.  Every uniform or normal variate consumes exactly one 64-bit
draw; normals are produced by the inverse-CDF transform, never by
rejection, so the stream position is a pure function of how many
variates have been requested.  Because the generator is counter-based,
any split of the requests into calls returns the same numbers as one
draw of their total length.

Both compiled pieces load through :func:`_load_bare`, which skips the
``__init__`` of their parent packages (``-X importtime`` figures, Python
3.11, numpy 2.4, scipy 1.17, 2-core x86 VM):

- ``Philox`` is numpy's, taken from ``numpy.random._philox`` without
  ``numpy.random``'s ``__init__``.  That ``__init__`` loads ``mtrand``,
  ``_generator``, ``_bounded_integers``, ``_mt19937``, ``_pcg64``,
  ``_sfc64`` and ``_pickle`` and seeds a global legacy ``RandomState``,
  about 5-7 ms and 1.4-1.8 MB of peak memory that no run uses.  What
  stays is ``_philox``, ``bit_generator`` and ``_common``.
  ``bit_generator`` takes one name from ``secrets``, ``randbits``, which
  the standard library defines as ``_sysrand.getrandbits`` with
  ``_sysrand = random.SystemRandom()``.  The load lends it that same
  method of its own ``SystemRandom``, from the ``random`` module that
  ``import numpy`` has loaded already, through a shim module in place of
  ``secrets``; every read of OS entropy stays as it was.  The real
  ``secrets`` loads ``hmac``, ``hashlib``, ``_hashlib`` with OpenSSL's
  ``libcrypto``, ``_blake2`` and ``base64``: about 3.9-5.9 ms and 3.7 MB
  of peak memory that no run uses.  A later ``import secrets`` still
  gets the real module.  Each ``RngStream`` still reads 128 bits of OS
  entropy, about 0.7-1.2 us of its 12-14 us construction, for a
  ``SeedSequence`` that ``Philox(key=...)`` seeds and then discards.
- ``ndtri`` is scipy's own ufunc, taken from ``scipy.special._ufuncs``
  without the ``__init__`` of ``scipy``, ``scipy._lib`` or
  ``scipy.special``.  ``scipy.special``'s costs about 0.23 s (its
  array-API shim loads ``numpy.f2py`` and ``numpy.testing``); those of
  ``scipy`` and ``scipy._lib`` about 14 ms (they load
  ``scipy._lib._testutils``, ``subprocess``, ``_pep440`` and scipy's
  config modules).  ``_ufuncs`` with the extensions it needs takes about
  10-18 ms.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
import types

import numpy as np


def _load_bare(module, attr, also=(), shims=None):
    """``getattr(module, attr)`` for a compiled ``module``, loaded without
    the ``__init__`` of its parent packages.

    While ``module`` loads, each of its parent packages and of the packages
    in ``also`` (those whose submodules it imports) that is not yet in
    ``sys.modules`` is a bare stub whose ``__path__`` is the package's
    directory, found by ``find_spec`` without running anything; where all
    of them are imported already (numpy 1.x imports ``numpy.random`` in
    ``import numpy``) this is the plain import.  The stubs go again in the
    ``finally``; a later import of the real package reuses the cached
    extensions and so returns this same object.  The real package then
    lacks the attributes of the submodules loaded here (``numpy.random``
    those of ``bit_generator`` and ``_philox``, ``scipy.special`` that of
    ``_ufuncs_cxx``, ...), which stay in ``sys.modules``: ``from
    numpy.random import bit_generator``, ``import
    numpy.random.bit_generator`` and every public name still work, but
    ``numpy.random.bit_generator`` as an attribute does not.  Where the
    private layout differs, the attribute of the parent package, the
    public import, is taken instead.

    ``shims`` maps a plain module name to the attributes the load sees
    under that name.  Each one not yet in ``sys.modules`` is a module of
    just those attributes while ``module`` loads, and goes with the stubs;
    if the load asks it for any other name, the ``ImportError`` takes the
    public import, which imports the real module.
    """
    parent = module.rpartition(".")[0]
    spec = importlib.util.find_spec(module.partition(".")[0])
    if spec is not None and spec.submodule_search_locations:
        root = spec.submodule_search_locations[0]
        parents = [module.rsplit(".", k)[0] for k in range(module.count("."), 0, -1)]
        stubs = [name for name in (*parents, *also) if name not in sys.modules]
        for name in stubs:
            stub = types.ModuleType(name)
            stub.__path__ = [os.path.join(root, *name.split(".")[1:])]
            sys.modules[name] = stub
        for name, attrs in (shims or {}).items():
            if name not in sys.modules:
                shim = types.ModuleType(name)
                vars(shim).update(attrs)
                sys.modules[name] = shim
                stubs.append(name)
        try:
            return getattr(__import__(module, fromlist=[attr]), attr)
        except (ImportError, AttributeError):
            pass  # a private layout that differs: the public import below
        finally:
            for name in stubs:
                del sys.modules[name]
    return getattr(__import__(parent, fromlist=[attr]), attr)


# stdlib secrets.randbits is exactly this: secrets._sysrand.getrandbits
Philox = _load_bare("numpy.random._philox", "Philox",
                    shims={"secrets": {"randbits": random.SystemRandom().getrandbits}})
ndtri = _load_bare("scipy.special._ufuncs", "ndtri", also=("scipy._lib",))

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the bits of 1.0: sign 0, biased exponent 1023, zero mantissa
_ONE_BITS = 0x3FF0000000000000


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
        self._philox = Philox(key=key)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"

    def uniforms(self, shape) -> np.ndarray:
        """Independent uniforms in (0, 1) filling ``shape`` (an int is a
        1-d shape) in C order, one 64-bit draw each.

        Values are of the form (k + 1/2) * 2**-52 with k the top 52 bits of
        the raw draw, so 0.0 and 1.0 are never produced and the map from raw
        bits to floats is exact.  The map works in place on the draw: k
        under the exponent bits of 1.0 is the float x = 1 + k * 2**-52 in
        [1, 2), and y = 1 - 2**-53 satisfies y/2 <= x <= 2y, so x - y is
        exact (Sterbenz's lemma) and equals (k + 1/2) * 2**-52.  A negative
        size raises numpy's ValueError.
        """
        k = self._philox.random_raw(shape)
        self.counter += k.size
        k >>= 12
        k |= _ONE_BITS
        u = k.view(np.float64)
        u -= 1.0 - 2.0**-53
        return u

    def normal_vector(self, shape) -> np.ndarray:
        """Independent standard normal variates filling ``shape``, as for
        :meth:`uniforms`; a zero size is an empty draw."""
        return ndtri(self.uniforms(shape))

    def substream(self, index: int) -> "RngStream":
        """Independent stream for chain/replica ``index``.

        Derived ids never collide with the parent or with other indices, so
        parallel workers need no coordination.
        """
        mixed = _splitmix64(self.seed) ^ _splitmix64(self.stream_id)
        return RngStream(self.seed, derive_stream_id(mixed, index))
