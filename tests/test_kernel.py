"""The compiled Thomas kernel: bitwise equality with the Python loops, and
the loader that builds it on first import."""

import ctypes
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layersolve
from layersolve import (TridiagonalSystem, ZeroPivot, derive_regime, lookup,
                        spatial_mesh_for, thomas_factor, thomas_solve)
from layersolve import solver
from layersolve.discretization import build_operator, sample_coefficients

HAVE_CC = shutil.which("cc") is not None
KERNELS = [solver._PYTHON_KERNEL] + ([solver._KERNEL] if solver.KERNEL == "c" else [])
SPECIAL = (np.nan, np.inf, -np.inf)


def scaled_system(rng, size, specials=(), zero_row=None):
    """A strictly diagonally dominant system with mixed-sign diagonals, its
    rows scaled by 10^-150..10^150; ``specials`` puts (band, row, value)
    entries in, and ``zero_row`` scales one row by 1e-310 so that its pivot
    falls below PIVOT_FLOOR."""
    sub = rng.uniform(-1.0, 1.0, size)
    sup = rng.uniform(-1.0, 1.0, size)
    sub[0] = sup[-1] = 0.0
    diag = (np.abs(sub) + np.abs(sup) + rng.uniform(0.5, 2.0, size)) \
        * rng.choice([-1.0, 1.0], size)
    bands = [sub, diag, sup, rng.uniform(-10.0, 10.0, size)]
    scale = 10.0 ** rng.uniform(-150.0, 150.0, size)
    if zero_row is not None:
        scale[zero_row] = 1e-310
    for band in bands:
        band *= scale
    for band, row, value in specials:
        bands[band][row] = value
    return TridiagonalSystem(*bands)


@st.composite
def systems(draw):
    size = draw(st.integers(3, 4097))
    rows = st.integers(0, size - 1)
    specials = draw(st.lists(st.tuples(st.integers(0, 3), rows, st.sampled_from(SPECIAL)),
                             max_size=2))
    zero_row = draw(st.none() | rows)
    seed = draw(st.integers(0, 2**32 - 1))
    return scaled_system(np.random.default_rng(seed), size, specials, zero_row)


def outcome(fn, sys):
    """The solution's bytes, or the row of the ZeroPivot it raised."""
    try:
        return fn(sys).tobytes()
    except ZeroPivot as exc:
        return exc.row


def factored(sys):
    return thomas_factor(sys).solve(sys.rhs)


class TestBitwiseEqualKernels:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(systems())
    @example(scaled_system(np.random.default_rng(0), 4097))
    @example(scaled_system(np.random.default_rng(1), 4097, zero_row=4096))
    def test_kernels_agree_bitwise_and_on_zero_pivots(self, sys):
        results = set()
        for kernel in KERNELS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "_KERNEL", kernel)
                results |= {outcome(thomas_solve, sys), outcome(factored, sys)}
        assert len(results) == 1

    def test_kernel_is_exported(self):
        assert layersolve.KERNEL == solver.KERNEL in ("c", "python")

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_contracted_build_is_not_bitwise_equal(self, tmp_path):
        """Negative control: with fused multiply-adds the kernel rounds
        differently, so the bitwise property above would catch a build that
        lost -ffp-contract=off."""
        try:
            with open("/proc/cpuinfo", encoding="ascii") as fh:
                has_fma = "fma" in fh.read().split()
        except OSError:
            has_fma = False
        if not has_fma:
            pytest.skip("the CPU has no FMA instructions")
        lib = tmp_path / "fma.so"
        subprocess.run(["cc", "-O2", "-mfma", "-ffp-contract=fast", "-shared", "-fPIC",
                        "-o", str(lib), solver._SOURCE], check=True, capture_output=True)
        contracted = solver._c_kernel(ctypes.CDLL(str(lib)))
        rng = np.random.default_rng(7)
        differ = 0
        for _ in range(50):
            sys = scaled_system(rng, int(rng.integers(3, 600)))
            differ += (contracted.solve(sys)[0].tobytes()
                       != solver._PYTHON_KERNEL.solve(sys)[0].tobytes())
        assert differ == 50


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_step_operator_and_factors_are_read_only(monkeypatch, kernel):
    monkeypatch.setattr(solver, "_KERNEL", kernel)
    spec = lookup("example1", 1e-8, 1e-6)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, spec.d)
    op = build_operator(spec, mesh, 1.0 / 64,
                        sample_coefficients(spec, mesh, 0.5 / 64))
    # the operator's bands before .system() is called, then the factors
    for field in (op.sub, op.diag, op.sup, op.c4dt):
        with pytest.raises(ValueError):
            field[5] = 0.0
    factors = thomas_factor(op.system(np.zeros(mesh.n + 1)))
    for field in (factors.sub, factors.piv, factors.c):
        with pytest.raises((ValueError, TypeError)):
            field[5] = 0.0


class TestLoader:
    def test_without_cc_falls_back_and_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        assert solver._load_kernel(str(cache)) is solver._PYTHON_KERNEL
        assert list(cache.iterdir()) == []

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_failed_compile_leaves_no_file_and_no_output(self, tmp_path, monkeypatch,
                                                        capfd):
        broken = tmp_path / "broken.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(solver, "_SOURCE", str(broken))
        cache = tmp_path / "cache"
        assert solver._load_kernel(str(cache)) is solver._PYTHON_KERNEL
        assert list(cache.iterdir()) == []
        assert capfd.readouterr() == ("", "")

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_build_is_silent_and_second_load_reuses_it(self, tmp_path, monkeypatch,
                                                       capfd):
        cache = tmp_path / "cache"
        assert solver._load_kernel(str(cache)).name == "c"
        assert capfd.readouterr() == ("", "")
        built = list(cache.iterdir())
        assert [p.suffix for p in built] == [".so"]
        mtime = built[0].stat().st_mtime_ns

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"cc started again: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert solver._load_kernel(str(cache)).name == "c"
        assert list(cache.iterdir()) == built
        assert built[0].stat().st_mtime_ns == mtime
