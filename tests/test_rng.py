import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import kstest

import meanfield_hmc
from meanfield_hmc import RngStream, derive_stream_id


def test_same_key_reproduces_sequence():
    a = RngStream(123, 45)
    b = RngStream(123, 45)
    assert np.array_equal(a.normal_vector(1000), b.normal_vector(1000))
    assert np.array_equal(a.uniforms(1000), b.uniforms(1000))


def test_distinct_streams_differ():
    a = RngStream(123, 0).normal_vector(64)
    b = RngStream(123, 1).normal_vector(64)
    assert not np.array_equal(a, b)


def test_counter_tracks_consumption():
    s = RngStream(0)
    s.uniforms(10)
    s.normal_vector(5)
    s.uniforms(1)
    assert s.counter == 16
    assert repr(s) == "RngStream(seed=0, stream_id=0, counter=16)"


def test_normal_moments():
    draws = RngStream(2024).normal_vector(1_000_000)
    assert abs(draws.mean()) < 4e-3
    assert abs(draws.var() - 1.0) < 1e-2


def test_uniform_range_and_mean():
    u = RngStream(7).uniforms(1_000_000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 2e-3


def test_uniform_bit_map_matches_the_float_expression():
    # k in the top 52 bits of the raw draw, the 12 discarded low bits set
    ks = np.array([0, 1, 2**51, 2**52 - 1], dtype=np.uint64)
    raw = (ks << np.uint64(12)) | np.uint64(0xFFF)
    s = RngStream(0)
    s._philox = SimpleNamespace(random_raw=lambda n: raw[:n].copy())
    expected = (ks.astype(np.float64) + 0.5) * 2.0**-52
    assert np.array_equal(s.uniforms(4), expected)
    assert expected[0] == 2.0**-53 and expected[-1] == 1.0 - 2.0**-53


def test_uniform_ks_statistic():
    # asymptotic critical value at the 1% level
    n = 100_000
    u = RngStream(42).uniforms(n)
    assert kstest(u, "uniform").statistic < 1.63 / np.sqrt(n)


def test_normals_have_no_infinities():
    # inverse-CDF transform of (0,1)-interior uniforms stays bounded
    draws = RngStream(1).normal_vector(200_000)
    assert np.isfinite(draws).all()
    assert np.abs(draws).max() < 9.0


def test_substreams_are_stable_and_distinct():
    base = RngStream(99)
    ids = {base.substream(i).stream_id for i in range(100)}
    assert len(ids) == 100
    again = RngStream(99).substream(7)
    assert again.stream_id == base.substream(7).stream_id
    assert derive_stream_id(99, 7) == derive_stream_id(99, 7)


def test_zero_uniforms_is_an_empty_draw():
    s = RngStream(5)
    s.uniforms(3)
    u = s.uniforms(0)
    assert u.dtype == np.float64 and u.shape == (0,)
    assert s.counter == 3
    assert np.array_equal(s.uniforms(2), RngStream(5).uniforms(5)[3:])


def test_zero_normals_is_an_empty_draw():
    s = RngStream(5)
    s.normal_vector(3)
    z = s.normal_vector(0)
    assert z.dtype == np.float64 and z.shape == (0,)
    assert s.counter == 3
    assert np.array_equal(s.normal_vector(2), RngStream(5).normal_vector(5)[3:])


def test_negative_uniform_count_raises():
    s = RngStream(5)
    with pytest.raises(ValueError):
        s.uniforms(-1)
    with pytest.raises(ValueError, match="negative dimensions are not allowed"):
        s.normal_vector(-1)
    assert s.counter == 0
    assert s.counter == 0


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)


def _reference_uniforms(seed, stream_id, n):
    """Reference: ``n`` uniforms from one ``Generator.integers`` draw on the
    stream's Philox key, the stream the package has always handed out."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))
    k = (gen.integers(0, 1 << 64, size=n, dtype=np.uint64) >> np.uint64(12)).astype(np.float64)
    return (k + 0.5) * 2.0**-52


_sizes = st.integers(min_value=0, max_value=12_295)
# a shape fills in C order, so its draw flattens to a draw of its size
_shapes = st.lists(st.integers(min_value=0, max_value=24), max_size=3).map(tuple)
_calls = st.one_of(
    st.tuples(st.just("uniforms"), _sizes),
    st.tuples(st.just("normal_vector"), _sizes.map(lambda n: max(n, 1))),
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.sampled_from(["uniforms", "normal_vector"]), _shapes),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1),
       calls=st.lists(_calls, max_size=12))
@example(seed=0, stream_id=0, calls=[("uniforms", 0), ("uniforms", 1),
                                     ("uniforms", 4095), ("uniforms", 0),
                                     ("uniforms", 4098), ("normal_vector", 1),
                                     ("uniform", None), ("uniforms", (2, 3)),
                                     ("normal_vector", ()), ("uniforms", ()),
                                     ("normal_vector", (4, 0, 2))])
def test_any_split_of_draws_equals_one_draw(seed, stream_id, calls):
    s = RngStream(seed, stream_id)
    outputs = []
    for name, arg in calls:
        if name == "uniform":
            out = np.array([s.uniforms(1)[0]])
        else:
            out = getattr(s, name)(arg)
            assert out.shape == (arg if isinstance(arg, tuple) else (arg,))
        outputs.append((name, out.copy(), out))
    total = sum(out.size for _, out, _ in outputs)
    assert s.counter == total
    ref = _reference_uniforms(seed, stream_id, total)
    pos = 0
    for name, first_seen, out in outputs:
        expected = ref[pos:pos + out.size]
        if name == "normal_vector":
            expected = ndtri(expected)
        assert np.array_equal(first_seen.reshape(-1), expected)
        # values handed out are never overwritten by later calls
        assert np.array_equal(out, first_seen)
        pos += out.size


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this package's source."""
    src = str(Path(meanfield_hmc.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_skips_scipy_special_init():
    # scipy.special's __init__ pulls in numpy.f2py and numpy.testing
    # through its array-API shim, scipy's and scipy._lib's load _testutils,
    # subprocess and the config modules, and the thread pool loads logging;
    # numpy.random's __init__ loads the other bit generators, Generator and
    # the legacy RandomState; secrets, which bit_generator takes randbits
    # from, loads hmac, hashlib, base64, _blake2 and _hashlib with
    # OpenSSL's libcrypto.  The package loads the ufunc, Philox, and a
    # one-thread run, without any of them.  Its value classes need no
    # dataclass code generation either
    out = _fresh("""
        import os
        import sys
        import meanfield_hmc.cli
        heavy = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing",
                 "scipy", "scipy._lib", "scipy._lib._testutils", "subprocess",
                 "concurrent.futures", "logging", "dataclasses",
                 "numpy.random", "numpy.random.mtrand", "numpy.random._generator",
                 "numpy.random._mt19937", "numpy.random._pcg64", "numpy.random._sfc64",
                 "numpy.random._bounded_integers", "numpy.random._pickle",
                 "secrets", "hmac", "hashlib", "_hashlib", "_blake2", "base64")
        print([name for name in heavy if name in sys.modules])
        print(sorted(name for name in sys.modules if name.startswith("numpy.random.")))
        maps = "/proc/self/maps"
        print(os.path.exists(maps) and "libcrypto" in open(maps).read())
    """)
    assert out == ("[]\n['numpy.random._common', 'numpy.random._philox', "
                   "'numpy.random.bit_generator']\nFalse\n")


def test_later_scipy_special_import_shares_the_ufunc():
    out = _fresh("""
        import meanfield_hmc.cli
        import meanfield_hmc.rng
        import scipy.special
        import scipy.stats
        print(meanfield_hmc.rng.ndtri is scipy.special.ndtri,
              scipy.special.expit(0.0), scipy.stats.norm.ppf(0.5))
    """)
    assert out == "True 0.5 0.0\n"


def test_earlier_scipy_import_still_skips_scipy_special_init():
    # only scipy.special is stubbed then: its array-API shim, which loads
    # numpy.f2py, still does not run
    out = _fresh("""
        import sys
        import scipy
        import meanfield_hmc.rng
        print("scipy.special" in sys.modules, "numpy.f2py" in sys.modules)
        import scipy.special
        print(meanfield_hmc.rng.ndtri is scipy.special.ndtri)
    """)
    assert out == "False False\nTrue\n"


def test_earlier_scipy_special_import_shares_the_ufunc():
    out = _fresh("""
        import scipy.special
        import meanfield_hmc.rng
        print(meanfield_hmc.rng.ndtri is scipy.special.ndtri)
    """)
    assert out == "True\n"


# each bare load's module: the attribute taken from it, and the packages
# stubbed and modules shimmed while it loads in a fresh interpreter
_BARE_LOADS = {
    "scipy.special._ufuncs": ("ndtri", ("scipy", "scipy._lib", "scipy.special")),
    "numpy.random._philox": ("Philox", ("numpy.random", "secrets")),
}


def _load_under(module: str, refusal: str, found: str = "") -> str:
    """stdout of a fresh ``import meanfield_hmc.rng`` while a finder runs
    ``refusal`` on finding ``found`` (default ``module``) under the stub
    parent of ``module``: whether each module the load stubs or shims is
    the real one right after the import (so the public import ran and no
    stub or shim stayed), then the loaded object's identity with the
    public one."""
    attr, stubbed = _BARE_LOADS[module]
    parent = module.rpartition(".")[0]
    return _fresh(f"""
        import sys

        class RefuseUnderStub:
            def find_spec(self, name, path=None, target=None):
                if name == {found or module!r} and not hasattr(sys.modules[{parent!r}], "__file__"):
                    {refusal}
                return None

        sys.meta_path.insert(0, RefuseUnderStub())
        import meanfield_hmc.rng
        print([hasattr(sys.modules.get(name), "__file__") for name in {stubbed!r}])
        import {parent}
        print(meanfield_hmc.rng.{attr} is {parent}.{attr})
    """)


@pytest.mark.parametrize("module", list(_BARE_LOADS))
def test_private_layout_failure_falls_back_to_the_public_import(module):
    # a layout whose compiled module cannot load under the stub parents:
    # the public import runs instead and none of the stubs stays behind
    out = _load_under(module, 'raise ImportError("refused under the stub")')
    assert out == f"{[True] * len(_BARE_LOADS[module][1])}\nTrue\n"


@pytest.mark.parametrize("module", list(_BARE_LOADS))
def test_attribute_of_the_real_package_falls_back_to_the_public_import(module):
    # an extension that reads an attribute the real parent package has and
    # the stub lacks
    out = _load_under(module, f"sys.modules[{module.rpartition('.')[0]!r}].__all__")
    assert out == f"{[True] * len(_BARE_LOADS[module][1])}\nTrue\n"


def test_a_name_the_secrets_shim_lacks_falls_back_to_the_public_import():
    # a numpy whose bit_generator imports another name from secrets: the
    # shim, here stripped of randbits, refuses it, and the public import
    # loads the real secrets
    out = _load_under("numpy.random._philox", 'del sys.modules["secrets"].randbits',
                      found="numpy.random.bit_generator")
    assert out == "[True, True]\nTrue\n"


_NUMPY_RANDOM_DRAWS = """
    import numpy as np
    print(np.random.default_rng(0).random(3), np.random.RandomState(0).rand(3),
          np.random.SeedSequence(1).generate_state(2))
"""


def _stubs_made(before: str = "", after: str = "") -> str:
    """stdout of a fresh interpreter that runs ``before``, imports
    ``meanfield_hmc.rng``, prints the names of the modules made by
    ``types.ModuleType`` meanwhile (the bare stubs) and whether its
    ``Philox`` is ``numpy.random.Philox``, then runs ``after``."""
    record = """
        import types
        made = []

        class Recording(types.ModuleType):
            def __init__(self, name, *args):
                made.append(name)
                super().__init__(name, *args)

        types.ModuleType = Recording
        import meanfield_hmc.rng
        types.ModuleType = Recording.__base__
        import numpy.random
        print(made, meanfield_hmc.rng.Philox is numpy.random.Philox)
    """
    return _fresh("\n".join(textwrap.dedent(code) for code in (before, record, after)))


def test_later_numpy_random_import_shares_philox_and_draws_as_without_the_package():
    made, draws = _stubs_made(after=_NUMPY_RANDOM_DRAWS).split("\n", 1)
    assert made == "['numpy.random', 'secrets', 'scipy', 'scipy.special', 'scipy._lib'] True"
    assert draws == _fresh(_NUMPY_RANDOM_DRAWS)


def test_earlier_numpy_random_import_installs_no_stub():
    out = _stubs_made(before="""
        import sys
        import numpy.random
        real = sys.modules["numpy.random"]
    """, after='print(sys.modules["numpy.random"] is real)')
    assert out == "['scipy', 'scipy.special', 'scipy._lib'] True\nTrue\n"


_HASHES = """
    import hashlib
    import hmac
    print(hashlib.sha256(b"abc").hexdigest(), hmac.new(b"k", b"m", "sha256").hexdigest())
"""


def test_later_secrets_import_is_the_real_module():
    # after the shim has gone, secrets, hashlib and hmac import as in an
    # interpreter without the package, and numpy's randbits is the
    # stdlib's method
    out = _fresh(textwrap.dedent("""
        import random
        import sys
        import meanfield_hmc.cli
        import numpy as np
        import secrets
        randbits = sys.modules["numpy.random.bit_generator"].randbits
        print(hasattr(secrets, "__file__"), len(secrets.token_hex(16)),
              isinstance(randbits.__self__, random.SystemRandom),
              randbits.__func__ is random.SystemRandom.getrandbits,
              np.random.SeedSequence().entropy < 2**128,
              0.0 <= np.random.default_rng().random() < 1.0)
    """) + textwrap.dedent(_HASHES))
    flags, hashes = out.split("\n", 1)
    assert flags == "True 32 True True True True"
    assert hashes == _fresh(_HASHES)


def test_earlier_secrets_import_installs_no_shim():
    out = _stubs_made(before="import secrets", after="""
        import sys
        randbits = sys.modules["numpy.random.bit_generator"].randbits
        print(randbits.__self__ is secrets._sysrand)
    """)
    assert out == "['numpy.random', 'scipy', 'scipy.special', 'scipy._lib'] True\nTrue\n"


def test_numpy_random_submodules_loaded_first_stay_importable():
    # the real numpy.random, imported after the package, lacks the
    # attributes of the submodules loaded under its stub; every import form
    # and public name still works
    out = _fresh("""
        import sys
        import meanfield_hmc.rng
        import numpy.random
        print(hasattr(numpy.random, "bit_generator"), hasattr(numpy.random, "_philox"))
        from numpy.random import bit_generator, _philox
        import numpy.random.bit_generator
        import numpy.random._philox as philox_module
        print(bit_generator is sys.modules["numpy.random.bit_generator"],
              _philox is philox_module is sys.modules["numpy.random._philox"],
              all(hasattr(numpy.random, name) for name in numpy.random.__all__),
              numpy.random.SeedSequence is bit_generator.SeedSequence,
              meanfield_hmc.rng.Philox is _philox.Philox)
    """)
    assert out == "False False\nTrue True True True True\n"


def test_a_run_imports_nothing(tmp_path):
    # at --threads 1 every import is paid at package load, none inside a run
    out = _fresh(f"""
        import sys
        from meanfield_hmc import cli
        before = set(sys.modules)
        code = cli.main(["sample", "--steps", "2", "--out", {str(tmp_path / "s.csv")!r}])
        print(code, sorted(set(sys.modules) - before))
    """)
    assert out == "0 []\n"


# the other subcommands at a tiny size; sample is test_a_run_imports_nothing's
_TINY_RUNS = {
    "bias-scan": ["bias-scan", "--k-max", "1", "--steps", "120"],
    "chaos-scan": ["chaos-scan", "--N-list", "4,8,16", "--steps", "3", "--replicas", "2"],
    "contraction": ["contraction", "--steps", "2", "--replicas", "4"],
    "order-check": ["order-check", "--h-list", "0.25,0.125,0.0625", "--N", "4",
                    "--replicas", "2"],
    "constants": ["constants"],
}


def _new_modules_of_run(argv, out_path) -> str:
    """The modules that ``cli.main(argv + --out out_path)``, the first call
    in a fresh interpreter, imports, as the printed sorted list after its
    exit code."""
    if argv[0] != "constants":
        argv = [*argv, "--out", str(out_path)]
    return _fresh(f"""
        import sys
        from meanfield_hmc import cli
        before = set(sys.modules)
        code = cli.main({argv!r})
        print(code, sorted(set(sys.modules) - before))
    """).splitlines()[-1]


@pytest.mark.parametrize("command", list(_TINY_RUNS))
def test_a_run_of_another_subcommand_imports_nothing(command, tmp_path):
    assert _new_modules_of_run(_TINY_RUNS[command], tmp_path / "o.csv") == "0 []"


def test_a_threaded_scan_imports_only_the_thread_pool(tmp_path):
    pool = _fresh("""
        import sys
        from meanfield_hmc import cli
        before = set(sys.modules)
        from concurrent.futures import ThreadPoolExecutor
        print(0, sorted(set(sys.modules) - before))
    """).splitlines()[-1]
    assert "'concurrent.futures'" in pool
    argv = [*_TINY_RUNS["chaos-scan"], "--threads", "2"]
    assert _new_modules_of_run(argv, tmp_path / "o.csv") == pool
