"""The compiled Thomas kernel: bitwise equality with the Python loops, and
the loader that builds it on first import."""

import ctypes
import dataclasses
import shutil
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layersolve
from layersolve import (CheckPolicy, CheckWarning, NonFiniteValue, PiecewiseField,
                        ResidualViolation, TridiagonalSystem, ZeroPivot,
                        derive_regime, lookup, march, spatial_mesh_for,
                        thomas_solve, uniform_time_grid)
from layersolve import solver
from layersolve.discretization import StepOperator, build_operator, sample_coefficients

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
                results.add(outcome(thomas_solve, sys))
        assert len(results) == 1

    def test_kernel_is_exported(self):
        assert layersolve.KERNEL == solver.KERNEL in ("c", "python")

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_contracted_build_is_not_bitwise_equal(self, tmp_path):
        """Negative control: with fused multiply-adds the kernel rounds
        differently, in the fused solve and in ``advance``, which runs every
        step of a march, so the bitwise properties here would catch a build
        that lost -ffp-contract=off."""
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
        differ = advance_differ = 0
        for _ in range(50):
            sys = scaled_system(rng, int(rng.integers(3, 600)))
            differ += (contracted.solve(sys)[0].tobytes()
                       != solver._PYTHON_KERNEL.solve(sys)[0].tobytes())
            op = StepOperator(sub=sys.sub, diag=sys.diag, sup=sys.sup,
                              c4dt=rng.uniform(0.0, 10.0, sys.size))
            f = rng.uniform(-5.0, 5.0, (3, sys.size - 2))
            ends = rng.uniform(-1.0, 1.0, (3, 2))
            runs = set()
            for kernel in (contracted, solver._PYTHON_KERNEL):
                u = np.zeros((4, sys.size))
                u[0] = sys.rhs
                norms, bad = kernel.advance(op, f, ends, u, True)
                runs.add((bad, norms.tobytes(), u.tobytes()))
            advance_differ += len(runs) - 1
        assert (differ, advance_differ) == (50, 50)


@pytest.mark.parametrize("nan_step,audit", [(None, True), (4, True), (None, False),
                                            (4, False)],
                         ids=["None", "4", "None-off", "4-off"])
def test_advance_agrees_bitwise(monkeypatch, nan_step, audit):
    """Values, per-step norms (zeros without audit) and the first non-finite
    step of one segment: a fused solve, then five re-solves."""
    spec = lookup("example1", 1e-8, 1e-6)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, spec.d)
    op = build_operator(spec, mesh, 1.0 / 64, sample_coefficients(spec, mesh, 0.5 / 64))
    rng = np.random.default_rng(3)
    start = rng.uniform(-1.0, 1.0, 65)
    f = rng.uniform(-5.0, 5.0, (6, 63))
    ends = rng.uniform(-1.0, 1.0, (6, 2))
    if nan_step is not None:
        f[nan_step, 10] = np.nan
    results = set()
    for kernel in KERNELS:
        monkeypatch.setattr(solver, "_KERNEL", kernel)
        u = np.zeros((7, 65))
        u[0] = start
        norms, bad = kernel.advance(op, f, ends, u, audit)
        done = 6 if bad < 0 else bad  # steps after a non-finite one are not taken
        results.add((bad, norms[:, :done].tobytes(), u[:done + 1].tobytes()))
        if not audit:
            assert not norms[:, :done].any()
    assert [bad for bad, _, _ in results] == [-1 if nan_step is None else nan_step]


@pytest.mark.parametrize("row", [0, 17, 32, 64])
def test_advance_raises_zero_pivot_at_the_same_row(row):
    """A row scaled by 1e-310 puts its pivot below PIVOT_FLOOR; both kernels
    stop at the first step's elimination and name that row."""
    spec = lookup("example1", 1e-8, 1e-6)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, spec.d)
    op = build_operator(spec, mesh, 1.0 / 64, sample_coefficients(spec, mesh, 0.5 / 64))
    bands = [band.copy() for band in (op.sub, op.diag, op.sup)]
    for band in bands:
        band[row] *= 1e-310
    op = StepOperator(*bands, c4dt=op.c4dt)
    rng = np.random.default_rng(4)
    f = rng.uniform(-5.0, 5.0, (3, 63))
    ends = rng.uniform(-1.0, 1.0, (3, 2))
    rows = []
    for kernel in KERNELS:
        with pytest.raises(ZeroPivot) as err:
            kernel.advance(op, f, ends, np.zeros((4, 65)), True)
        rows.append(err.value.row)
    assert rows == [row] * len(KERNELS)


@pytest.mark.skipif(solver.KERNEL != "c", reason="the C kernel is not loaded")
@pytest.mark.parametrize("case", ["short-band", "f-rows", "read-only-u"])
def test_compiled_advance_checks_shapes_before_the_call(case):
    n = 9
    bands = [np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)]
    f, u = np.zeros((2, n - 2)), np.zeros((3, n))
    if case == "short-band":
        bands[2] = np.zeros(n - 1)
    elif case == "f-rows":
        f = np.zeros((2, n))
    else:
        u.setflags(write=False)
    with pytest.raises(ValueError, match="advance got shapes"):
        solver._KERNEL.advance(StepOperator(*bands), f, np.zeros((2, 2)), u, True)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_step_operator_and_factors_are_read_only(monkeypatch, kernel):
    monkeypatch.setattr(solver, "_KERNEL", kernel)
    spec = lookup("example1", 1e-8, 1e-6)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, spec.d)
    op = build_operator(spec, mesh, 1.0 / 64,
                        sample_coefficients(spec, mesh, 0.5 / 64))
    # the operator's bands before .system() is called
    for field in (op.sub, op.diag, op.sup, op.c4dt):
        with pytest.raises(ValueError):
            field[5] = 0.0


def example1_with_f(f_of):
    """example1 at N = 32, M = 8 (one matrix: step 0 builds it, steps 1-7
    re-solve it in one run), its source branches passed through f_of(t, f)."""
    base = lookup("example1", 1e-8, 1e-6)
    spec = dataclasses.replace(base, f=PiecewiseField(
        left=lambda x, t: f_of(t, base.f.left(x, t)),
        right=lambda x, t: f_of(t, base.f.right(x, t)), d=base.d))
    mesh = spatial_mesh_for(derive_regime(base), base.params, 32, base.d)
    return spec, mesh, uniform_time_grid(1.0, 8)


def audit_stream(monkeypatch, kernel, checks, spec, mesh, grid):
    """The error a march raises (type and message) and the CheckWarning
    messages it emits, in order, under ``kernel``."""
    monkeypatch.setattr(solver, "_KERNEL", kernel)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            march(spec, mesh, grid, checks)
            error = None
        except (NonFiniteValue, ResidualViolation) as exc:
            error = (type(exc), str(exc))
    return error, [str(w.message) for w in caught if w.category is CheckWarning]


class TestAuditStream:
    """Both kernels raise and warn alike when a run of re-solves fails."""

    @pytest.mark.parametrize("checks", [CheckPolicy(), CheckPolicy.strict_policy()],
                             ids=["warn", "strict"])
    def test_nan_in_a_run_names_its_step(self, monkeypatch, checks):
        grid = uniform_time_grid(1.0, 8)
        t_bad = grid.times[6] - 0.5 * grid.dt  # t_mid of step j = 5, inside the run
        spec, mesh, grid = example1_with_f(lambda t, f: np.where(t == t_bad, np.nan, f))
        streams = [audit_stream(monkeypatch, kernel, checks, spec, mesh, grid)
                   for kernel in KERNELS]
        assert streams[0] == ((NonFiniteValue, "non-finite value at step j=5 "
                                               "(N=32, M=8)"), [])
        assert all(stream == streams[0] for stream in streams)

    @pytest.mark.parametrize("checks", [CheckPolicy(), CheckPolicy.strict_policy()],
                             ids=["warn", "strict"])
    def test_failing_residuals_in_a_run(self, monkeypatch, checks):
        # zero tolerance; f = 0 before t = 1/2 leaves steps 0-3 at U = 0
        # with a zero residual, so the first failure is step 4, in the run
        monkeypatch.setattr(solver, "RESIDUAL_RTOL", 0.0)
        monkeypatch.setattr(solver, "_MATRIX_RTOL", 0.0)
        spec, mesh, grid = example1_with_f(lambda t, f: np.where(t < 0.5, 0.0, f))
        streams = [audit_stream(monkeypatch, kernel, checks, spec, mesh, grid)
                   for kernel in KERNELS]
        error, messages = streams[0]
        if checks.strict:
            assert error[0] is ResidualViolation and "at step j=4 (" in error[1]
            assert messages == []
        else:
            assert error is None
            assert messages and "at step j=4 (" in messages[0]
        assert all(stream == streams[0] for stream in streams)


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
