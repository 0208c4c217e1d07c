"""The compiled Thomas kernel: bitwise equality with the Python loops, and
the loader that builds it on first import."""

import contextlib
import ctypes
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import layersolve
from layersolve import (CheckPolicy, CheckWarning, MMatrixViolation, NonFiniteValue,
                        PiecewiseField, ResidualViolation, ZeroPivot,
                        assemble, derive_regime, lookup, march, spatial_mesh_for,
                        thomas_solve, uniform_time_grid)
from layersolve import solver
from layersolve.discretization import _bands, sample_coefficients, stencil_weights

HAVE_CC = shutil.which("cc") is not None
KERNELS = [solver._PYTHON_KERNEL] + ([solver._KERNEL] if solver.KERNEL == "c" else [])
SPECIAL = (np.nan, np.inf, -np.inf)


def scaled_system(rng, size, specials=(), zero_row=None):
    """A strictly diagonally dominant system with mixed-sign diagonals, its
    rows scaled by 10^-150..10^150, as its (3, size) bands and its right
    side; ``specials`` puts (band, row, value) entries in (band 3 is the
    right side), and ``zero_row`` scales one row by 1e-310 so that its pivot
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
    return np.array(bands[:3]), bands[3]


@st.composite
def systems(draw):
    size = draw(st.integers(3, 4097))
    rows = st.integers(0, size - 1)
    specials = draw(st.lists(st.tuples(st.integers(0, 3), rows, st.sampled_from(SPECIAL)),
                             max_size=2))
    zero_row = draw(st.none() | rows)
    seed = draw(st.integers(0, 2**32 - 1))
    return scaled_system(np.random.default_rng(seed), size, specials, zero_row)


def random_advance(rng, n, steps):
    """Inputs of ``advance`` that are not outputs, over n unknowns and
    ``steps`` steps: a random stencil (diagonally dominant weights, identity
    rows 0, (n-1)/2 and n-1), mu, dt, positive a, b and c of two matrices
    (the second from step 2 on), f and the boundary values."""
    w = np.zeros((4, n))
    w[0], w[2], w[3] = rng.uniform(0.5, 1.0, (3, n))
    w[1] = -(w[0] + w[2]) - rng.uniform(0.0, 1.0, n)
    w[:3, [0, (n - 1) // 2, n - 1]] = [[0.0], [1.0], [0.0]]
    coefs = rng.uniform(0.5, 2.0, (3, 2, n - 2))[:, (np.arange(steps) >= 2).astype(int)]
    return (w, 1e-3, 0.1, list(coefs), rng.uniform(-5.0, 5.0, (steps, n - 2)),
            rng.uniform(-1.0, 1.0, (steps, 2)))


def strided_advance(rng, n, steps):
    """:func:`random_advance`'s inputs with the samples as a march may pass
    them, and the a, b and c of the step before the chunk: a and f reversed
    in x (a negative column stride), b one row broadcast over the steps, c
    one value broadcast over steps and rows, and the step before equal to
    step 0, so only step 2 has a new matrix."""
    w, mu, dt, (a, b, _), f, ends = random_advance(rng, n, steps)
    a, f = (np.ascontiguousarray(x[:, ::-1])[:, ::-1] for x in (a, f))
    b, c = np.broadcast_to(b[0], b.shape), np.broadcast_to(1.25, b.shape)
    return (w, mu, dt, [a, b, c], f, ends), np.array([a[0], b[0], c[0]])


def run_advance(kernel, w, mu, dt, coefs, f, ends, start, audit=True, last=None):
    """``kernel.advance`` from u[0] = start into zeroed outputs, a band slot
    per step, step 0 compared with ``last`` where one is given: the first
    non-finite step (or -1), the norms, u, the bands, is_new and the kernel's
    copy of the last step's a, b and c."""
    steps, n = len(f), w.shape[1]
    u = np.zeros((steps + 1, n))
    u[0] = start
    bands, norms, is_new = np.zeros((steps, 4, n)), np.zeros((steps, 3)), np.zeros(steps, bool)
    kept = np.zeros((3, n - 2)) if last is None else np.array(last)
    bad = kernel.advance(w, mu, dt, coefs, is_new, f, ends, u, audit, bands, norms, kept,
                         last is not None)
    return bad, norms, u, bands, is_new, kept


def through_failed_step(u, bad):
    """The bytes of the levels of u that a run ending with ``bad`` (-1 or
    the first non-finite step) writes, every NaN made the same NaN."""
    done = u[:len(u) if bad < 0 else bad + 2]
    return np.where(np.isnan(done), np.nan, done).tobytes()


def advance_outcome(kernel, bands, rhs):
    """``kernel.advance`` over one step whose matrix and right side are
    ``bands`` and ``rhs``.  a = b = c = 0 make each built row the row of w,
    which holds the bands as _bands stores them (negated on the PDE rows).
    With u[0] = 0 and f = -rhs/2 the step's right side is rhs where the
    bands are finite, but 0 on the transmission row (n - 1)/2.  Returns the
    first non-finite step (-1 for none) or the ZeroPivot's (row, step), and
    the bytes of the norms of the step if it is taken, of u through the step
    unless its pivot vanished (every NaN the same NaN) and of the built
    bands."""
    n = len(rhs)
    fixed = [0, (n - 1) // 2, n - 1]
    w = np.ones((4, n))
    w[:3] = -bands
    w[:3, fixed] = bands[:, fixed]
    u, slots, norms = np.zeros((2, n)), np.zeros((1, 4, n)), np.zeros((1, 3))
    try:
        bad = kernel.advance(w, 1.0, 1.0, np.zeros((3, 1, n - 2)), np.zeros(1, bool),
                             -0.5 * rhs[None, 1:-1], rhs[None, [0, -1]], u,
                             True, slots, norms, np.zeros((3, n - 2)), False)
        levels = through_failed_step(u, bad)
    except ZeroPivot as exc:
        bad, levels = (exc.row, exc.step), u[:1].tobytes()
    return bad, norms[:int(bad == -1)].tobytes(), levels, slots.tobytes()


class TestBitwiseEqualKernels:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(systems())
    @example(scaled_system(np.random.default_rng(0), 4097))
    @example(scaled_system(np.random.default_rng(1), 4097, zero_row=4096))
    def test_kernels_agree_bitwise_and_on_zero_pivots(self, system):
        """Both kernels' ``advance`` solve the system alike: the same u, norms
        and bands, or the same ZeroPivot row (step 0) or non-finite step.  A
        finite solve is thomas_solve's, its ends pinned."""
        bands, rhs = system
        results = {advance_outcome(kernel, bands, rhs) for kernel in KERNELS}
        assert len(results) == 1
        (bad, _, u, _), = results
        if bad == -1 and np.all(np.isfinite(rhs)):
            rhs = rhs.copy()
            rhs[(len(rhs) - 1) // 2] = 0.0
            x = thomas_solve(bands, rhs)
            x[[0, -1]] = rhs[[0, -1]]
            assert np.frombuffer(u)[-len(rhs):].tobytes() == x.tobytes()

    def test_kernel_is_exported(self):
        assert layersolve.KERNEL == solver.KERNEL in ("c", "python")

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_contracted_build_is_not_bitwise_equal(self, tmp_path):
        """Negative control: with fused multiply-adds ``advance``, which runs
        every step of a march, rounds differently, so the bitwise properties
        here would catch a build that lost -ffp-contract=off."""
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
        advance_differ = 0
        for _ in range(50):
            n = int(rng.integers(3, 600))
            args = random_advance(rng, n, 3)
            start = rng.uniform(-1.0, 1.0, n)
            runs = [run_advance(kernel, *args, start)
                    for kernel in (contracted, solver._PYTHON_KERNEL)]
            advance_differ += len({(bad, norms.tobytes(), u.tobytes())
                                   for bad, norms, u, *_ in runs}) - 1
        assert advance_differ == 50

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_source_compiles_without_diagnostics(self, tmp_path):
        proc = subprocess.run(["cc", *solver._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
                               str(tmp_path / "strict.so"), solver._SOURCE],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def example1_chunk(steps, n=64):
    """example1's mesh at N = n, its weights and the a, b and c of its first
    ``steps`` steps at dt = 1/64, as writable arrays."""
    spec = lookup("example1", 1e-8, 1e-6)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, n, spec.d)
    t_mid = (np.arange(steps)[:, None] + 0.5) / 64
    coefs = [np.array(x) for x in sample_coefficients(spec, mesh, t_mid)[:3]]
    return spec, mesh, stencil_weights(spec, mesh), coefs


@pytest.mark.parametrize("nan_step,audit", [(None, True), (4, True), (None, False),
                                            (4, False)],
                         ids=["None", "4", "None-off", "4-off"])
def test_advance_agrees_bitwise(nan_step, audit):
    """Values through the first non-finite step, per-step norms (zeros
    without audit), the built bands and the new steps of one chunk of six
    steps whose b changes at step 3: a build and fused solve, two re-solves,
    then again."""
    spec, mesh, weights, coefs = example1_chunk(6)
    coefs[1][3:] *= 1.5
    rng = np.random.default_rng(3)
    start = rng.uniform(-1.0, 1.0, 65)
    f = rng.uniform(-5.0, 5.0, (6, 63))
    ends = rng.uniform(-1.0, 1.0, (6, 2))
    if nan_step is not None:
        f[nan_step, 10] = np.nan
    results = set()
    for kernel in KERNELS:
        bad, norms, u, bands, is_new, _ = run_advance(kernel, weights, spec.params.mu,
                                                      1.0 / 64, coefs, f, ends, start, audit)
        done = 6 if bad < 0 else bad  # steps after a non-finite one are not taken
        results.add((bad, norms[:done].tobytes(), through_failed_step(u, bad),
                     bands.tobytes(), is_new.tobytes()))
        if not audit:
            assert not norms[:done].any()
    assert [bad for bad, *_ in results] == [-1 if nan_step is None else nan_step]
    assert is_new.tolist() == [True, False, False, True, False, False]
    for slot, k in enumerate((0, 3)):  # the matrices of _bands
        expected = _bands(stencil_weights(spec, mesh), spec.params.mu, 1.0 / 64,
                          *[x[k] for x in coefs])
        assert bands[slot].tobytes() == expected.tobytes()


@pytest.mark.parametrize("audit", [True, False], ids=["audit", "off"])
def test_strided_samples_advance_as_contiguous_copies(audit):
    """Samples read through negative and zero strides, with step 0 tied to
    the step before the chunk, give both kernels bitwise the outputs of
    contiguous copies of the same samples."""
    rng = np.random.default_rng(11)
    (w, mu, dt, coefs, f, ends), last = strided_advance(rng, 65, 5)
    start = rng.uniform(-1.0, 1.0, 65)
    copies = [np.array(x) for x in coefs]
    assert [x.strides for x in coefs] == [(8 * 63, -8), (0, 8), (0, 0)]
    results = {tuple(np.asarray(x).tobytes() for x in run_advance(
        kernel, w, mu, dt, samples, np.array(f) if samples is copies else f, ends, start,
        audit, last)) for kernel in KERNELS for samples in (coefs, copies)}
    assert len(results) == 1
    (bad, _, _, _, is_new, kept), = results
    assert np.frombuffer(bad, np.int64).tolist() == [-1]
    assert np.frombuffer(is_new, bool).tolist() == [False, False, True, False, False]
    assert kept == np.array([x[-1] for x in coefs]).tobytes()


def audited_outcomes(kernels, n, steps, new_at, nan, seed):
    """The outcomes of an audited ``advance`` under each of ``kernels``:
    :func:`random_advance`'s inputs drawn from ``seed``, with rows 0, (n-1)/2
    and n-1 of the stencil random dominant rows rather than identity rows, so
    that the solved x differs from the level stored with its ends pinned, a
    new matrix at step 0 and at each step of ``new_at``, and f NaN at the
    (step, column) ``nan`` unless it is None.  The set of (first non-finite
    step, norms, u through that step, bands, is_new)."""
    rng = np.random.default_rng(seed)
    w, mu, dt, _, f, ends = random_advance(rng, n, steps)
    fixed = [0, (n - 1) // 2, n - 1]
    w[0, fixed], w[2, fixed] = rng.uniform(-0.5, 0.5, (2, 3))
    w[1, fixed] = rng.uniform(1.0, 2.0, 3)  # stored as it is: dominant
    matrix = np.cumsum(np.isin(np.arange(steps), list(new_at)))  # the matrix of each step
    coefs = list(rng.uniform(0.5, 2.0, (3, steps + 1, n - 2))[:, matrix])
    if nan is not None:
        f[nan] = np.nan
    start = rng.uniform(-1.0, 1.0, n)
    return {(bad, norms.tobytes(), through_failed_step(u, bad), bands.tobytes(),
             is_new.tobytes())
            for bad, norms, u, bands, is_new, _ in (run_advance(kernel, w, mu, dt, coefs, f,
                                                                ends, start)
                                                    for kernel in kernels)}


# audited_outcomes cases: the smallest system, a one-step chunk, a re-solve
# followed by a new matrix and a re-solve run that ends the chunk, a
# non-finite step right after a re-solve run, and one inside a fresh step
ADVANCE_EDGES = [(2, 3, {2}, None, 0), (9, 1, set(), None, 1), (9, 6, {2}, None, 2),
                 (9, 5, set(), (3, 2), 3), (9, 5, {3}, (3, 5), 4)]


@st.composite
def audited_chunks(draw):
    """The arguments of :func:`audited_outcomes` after ``kernels``: 2-8
    steps over 2-40 rows, new matrices at drawn steps, the last step drawn to
    re-solve or to build, and a NaN in f at a drawn step or none."""
    n, steps = draw(st.integers(2, 40)), draw(st.integers(2, 8))
    new_at = draw(st.sets(st.integers(1, steps - 2))) if steps > 2 else set()
    if draw(st.booleans()):
        new_at = new_at | {steps - 1}
    nan = draw(st.none() | st.tuples(st.integers(0, steps - 1), st.integers(0, n - 3))) \
        if n > 2 else None
    return n, steps, new_at, nan, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(audited_chunks())
@example(ADVANCE_EDGES[0])
@example(ADVANCE_EDGES[1])
@example(ADVANCE_EDGES[2])
@example(ADVANCE_EDGES[3])
@example(ADVANCE_EDGES[4])
def test_audited_chunks_agree_bitwise(drawn):
    """Audited chunks of re-solve runs and new matrices, whose stencils' end
    rows are not identity rows: both kernels give bitwise the same u through
    the first non-finite step, norms, bands and is_new, whichever step's
    product a norm is taken from."""
    n, steps, new_at, nan, _ = drawn
    outcomes = audited_outcomes(KERNELS, *drawn)
    assert len(outcomes) == 1
    (bad, _, _, _, is_new), = outcomes
    # with n = 2 there are no samples, so no later step is new
    assert np.frombuffer(is_new, bool).tolist() == [k == 0 or k in new_at and n > 2
                                                    for k in range(steps)]
    if nan is None:
        assert bad == -1


# pairs one bit apart: the signs of zero, two NaN payloads, 1 and its successor
BIT_PAIRS = np.array([0x0, 1 << 63, 0x7FF8000000000001, 0x7FF8000000000003,
                      0x3FF0000000000000, 0x3FF0000000000001], np.uint64).view(float)
SAMPLE_KINDS = ("full", "reversed", "over-steps", "over-rows", "scalar")


@st.composite
def sample_chunks(draw):
    """Chunks of a, b and c for a march over ``width`` rows, as lists of
    samples, each of a drawn kind: a full array, one reversed in x (a
    negative column stride), one row broadcast over the steps, one value
    per step broadcast over the rows, or one value for the chunk.  Each
    value of BIT_PAIRS is drawn after the row before it: equal to it, one
    entry flipped to its pair, or fresh."""
    width, chunks = draw(st.integers(1, 6)), []
    before = [None] * 3  # each sample's row before, in full
    for steps in draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)):
        chunk = []
        for v in range(3):
            kind = draw(st.sampled_from(SAMPLE_KINDS))
            rows = []
            for _ in range(1 if kind in ("over-steps", "scalar") else steps):
                wide = width if kind in ("full", "reversed", "over-steps") else 1
                row = [draw(st.integers(0, 5)) for _ in range(wide)]
                how = draw(st.sampled_from(["tie", "flip", "fresh"]))
                if before[v] is not None and how != "fresh":
                    row = before[v][:wide]
                    if how == "flip":
                        i = draw(st.integers(0, wide - 1))
                        row = row[:i] + [row[i] ^ 1] + row[i + 1:]
                before[v] = (row * width)[:width]
                rows.append(BIT_PAIRS[row])
            x = np.array(rows)
            if kind == "reversed":
                x = np.ascontiguousarray(x[:, ::-1])[:, ::-1]
            chunk.append(np.broadcast_to(x, (steps, width)) if kind != "full" else x)
        chunks.append(chunk)
    return width, chunks


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sample_chunks())
def test_new_steps_are_the_bitwise_changes(drawn):
    """Each kernel's is_new, over chunks whose step 0 is compared with the
    kernel's copy of the chunk before's last step, marks exactly the steps
    whose a, b and c differ in some bit from the step before (and the
    march's first step), and that copy is the last step's samples."""
    width, chunks = drawn
    n = width + 2
    w = random_advance(np.random.default_rng(0), n, 1)[0]
    rows = [[x[k].tobytes() for x in chunk] for chunk in chunks for k in range(len(chunk[0]))]
    expected = [k == 0 or rows[k] != rows[k - 1] for k in range(len(rows))]
    for kernel in KERNELS:
        last, got = np.zeros((3, width)), []
        for j, chunk in enumerate(chunks):
            steps = len(chunk[0])
            is_new = np.zeros(steps, bool)
            with contextlib.suppress(ZeroPivot):
                kernel.advance(w, 1e-3, 0.1, chunk, is_new, np.zeros((steps, width)),
                               np.zeros((steps, 2)), np.zeros((steps + 1, n)), True,
                               np.zeros((steps, 4, n)), np.zeros((steps, 3)), last, j > 0)
            got += is_new.tolist()
            assert last.tobytes() == b"".join(x[-1].tobytes() for x in chunk)
        assert got == expected


@pytest.mark.parametrize("row", [0, 1, 17, 32, 63, 64])
def test_advance_raises_zero_pivot_at_the_same_row(monkeypatch, row):
    """The weights of one row scaled by 1e-310, and a, b and c zero on it at
    step 2, put its pivot below PIVOT_FLOOR in the new matrix of step 2 of a
    chunk; rows 0, N/2 and N do not depend on t, so theirs fails at step 0.
    Both kernels name the row and the step and leave the same bands, and
    march names step j = j0 + 2 of its second chunk of three steps."""
    spec, mesh, weights, coefs = example1_chunk(3)
    weights[:3, row] *= 1e-310
    step = 0 if row in (0, 32, 64) else 2
    if step:
        for x in coefs:
            x[2, row - 1] = 0.0
    rng = np.random.default_rng(4)
    f = rng.uniform(-5.0, 5.0, (3, 63))
    ends = rng.uniform(-1.0, 1.0, (3, 2))
    caught = set()
    for kernel in KERNELS:
        bands = np.zeros((2, 4, 65))  # the failed step's matrix is built in full
        with pytest.raises(ZeroPivot) as err:
            kernel.advance(weights, spec.params.mu, 1.0 / 64, coefs, np.zeros(3, bool), f,
                           ends, np.zeros((4, 65)), True, bands, np.zeros((3, 3)),
                           np.zeros((3, 63)), False)
        caught.add((err.value.row, err.value.step, bands.tobytes()))
    assert [(got_row, got_step) for got_row, got_step, _ in caught] == [(row, step)]
    if not step:
        return
    grid = uniform_time_grid(1.0, 8)
    x_bad, t_bad = mesh.points[row], grid.times[6] - 0.5 * grid.dt  # step j = 5

    def vanishing(fn):
        return lambda x, t: np.where((x == x_bad) & (t == t_bad), 0.0, fn(x, t))

    spec = dataclasses.replace(spec, a=PiecewiseField(vanishing(spec.a.left),
                                                      vanishing(spec.a.right), spec.d),
                               b=vanishing(spec.b), c=vanishing(spec.c))
    monkeypatch.setattr(solver, "stencil_weights", lambda spec, mesh: weights)
    monkeypatch.setattr(solver, "_CHUNK_BYTES", 3 * 8 * 63)
    for kernel in KERNELS:
        monkeypatch.setattr(solver, "_KERNEL", kernel)
        with pytest.raises(ZeroPivot) as err:
            march(spec, mesh, grid, CheckPolicy.off())
        assert (err.value.row, str(err.value)) == (
            row, f"zero pivot at row {row}, step j=5 (N=64, M=8)")


@pytest.mark.skipif(solver.KERNEL != "c", reason="the C kernel is not loaded")
@pytest.mark.parametrize("case", ["short-band", "f-rows", "read-only-u"])
def test_compiled_advance_checks_shapes_before_the_call(case):
    """Outputs of the wrong shape or read-only raise ValueError before the
    call; a chunk with more new matrices than band slots raises it, under
    either kernel, before any step is taken."""
    n = 9
    coefs, bands, f, u = np.ones((3, 2, n - 2)), np.zeros((2, 4, n)), np.zeros((2, n - 2)), \
        np.zeros((3, n))
    kernels, match = [solver._KERNEL], "advance got shapes"
    if case == "short-band":  # two new matrices need two slots
        coefs[1, 1] = 2.0
        bands, kernels, match = np.zeros((1, 4, n)), KERNELS, "more matrices than its 1 band"
    elif case == "f-rows":
        f = np.zeros((2, n))
    else:
        u.setflags(write=False)
    for kernel in kernels:
        with pytest.raises(ValueError, match=match):
            kernel.advance(np.zeros((4, n)), 1.0, 1.0, coefs, np.zeros(2, bool), f,
                           np.zeros((2, 2)), u, True, bands, np.zeros((2, 3)),
                           np.zeros((3, n - 2)), False)
        assert not u.any() and not bands.any()


@pytest.mark.parametrize("checks", [CheckPolicy.off(), CheckPolicy.strict_policy()],
                         ids=["off", "strict"])
def test_samples_constant_in_x_march_as_assembled(monkeypatch, checks):
    """b and c that return scalars in x sample as stride-0 broadcasts over
    the rows of a chunk; both kernels march bitwise as assembling and solving
    every step afresh."""
    base = lookup("example1", 1e-8, 1e-6)
    spec = dataclasses.replace(base, b=lambda x, t: 2.0 + t, c=lambda x, t: 1.0 + 0.5 * t)
    mesh = spatial_mesh_for(derive_regime(base), base.params, 256, base.d)
    grid = uniform_time_grid(1.0, 16)
    expected = np.zeros((17, 257))
    for j in range(16):
        bands, rhs = assemble(spec, mesh, float(grid.times[j + 1]), grid.dt, expected[j])
        expected[j + 1] = thomas_solve(bands, rhs)
        expected[j + 1, [0, -1]] = rhs[[0, -1]]
    for kernel in KERNELS:
        monkeypatch.setattr(solver, "_KERNEL", kernel)
        assert march(spec, mesh, grid, checks).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_inf_coefficient_raises_without_runtime_warnings(monkeypatch, kernel):
    """b = inf from step j = 4 on, where U is still 0 (f = 0), so inf * 0 makes
    the step's right side NaN: NonFiniteValue, and no numpy RuntimeWarning."""
    base = lookup("example1", 1e-8, 1e-6)
    spec = dataclasses.replace(
        base, b=lambda x, t: np.where(t > 0.5, np.inf, 1.0 + np.exp(x)),
        f=PiecewiseField(left=lambda x, t: 0.0 * x, right=lambda x, t: 0.0 * x, d=base.d))
    mesh = spatial_mesh_for(derive_regime(base), base.params, 32, base.d)
    monkeypatch.setattr(solver, "_KERNEL", kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="step j=4 "):
            march(spec, mesh, uniform_time_grid(1.0, 8), CheckPolicy.off())


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
        except (MMatrixViolation, NonFiniteValue, ResidualViolation) as exc:
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

    @pytest.mark.parametrize("checks", [CheckPolicy(), CheckPolicy.strict_policy()],
                             ids=["warn", "strict"])
    def test_new_matrices_inside_one_chunk(self, monkeypatch, checks):
        """Four matrices in one chunk of eight steps, two of them no
        M-matrix (b = -50 on steps 2-3 and 6-7); f = 0 before t = 1/2 keeps
        U = 0, with zero residuals, through step 3.  Each new matrix is
        audited before the residuals of its steps."""
        monkeypatch.setattr(solver, "RESIDUAL_RTOL", 0.0)
        monkeypatch.setattr(solver, "_MATRIX_RTOL", 0.0)
        spec, mesh, grid = example1_with_f(lambda t, f: np.where(t < 0.5, 0.0, f))
        spec = dataclasses.replace(spec, b=lambda x, t: np.where(
            t < 0.25, 1.0 + np.exp(x),
            np.where((t >= 0.5) & (t < 0.75), 2.0 + np.exp(x), -50.0)))
        streams = [audit_stream(monkeypatch, kernel, checks, spec, mesh, grid)
                   for kernel in KERNELS]
        m_matrix = ("M-matrix check failed at step j={} (N=32, M=8): ((1, 'positive "
                    "off-diagonal'), (2, 'positive off-diagonal'), (3, 'positive "
                    "off-diagonal'))")
        residual = "solve residual {} exceeds 0.000e+00 at step j={} (N=32, M=8)"
        if checks.strict:
            assert streams[0] == ((MMatrixViolation, m_matrix.format(2)), [])
        else:
            assert streams[0] == (None, [
                m_matrix.format(2), residual.format("1.137e-13", 4),
                residual.format("1.137e-13", 5), m_matrix.format(6),
                residual.format("7.105e-15", 6), residual.format("9.095e-13", 7)])
        assert all(stream == streams[0] for stream in streams)


def powers_of_ten():
    """10^k and both its neighbours for k = -320..308."""
    for k in range(-320, 309):
        v = float(f"1e{k}")
        yield from (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))


def written(write_levels, j0, rows):
    """The blocks ``write_levels`` writes, each copied during its write."""
    blocks = []
    write_levels(j0, rows, lambda block: blocks.append(bytes(block)))
    return blocks


def format_level(kernel, lead, xs, row):
    """The text of one level through ``kernel.format_levels``."""
    return b"".join(written(kernel.format_levels([b""], [lead], xs), 0, [row]))


def decimal_ties():
    """For each decimal exponent x = -16..16 of '%.17g': the two doubles
    around a point halfway between two 17-digit decimals and, where one
    exists, two doubles exactly halfway, one rounding up and one down.  An
    exact tie is N 10^(x-17) for an odd 18-digit N that 5^(17-x) divides with
    a quotient below 2^53, which exists for x = -8..15 only."""
    for x in range(-16, 17):
        mid = (Fraction(12345678901234567) + Fraction(1, 2)) * Fraction(10) ** (x - 16)
        near = float(mid)
        yield from (near, math.nextafter(near, -math.inf if near > mid else math.inf))
        if -8 <= x <= 15:
            five = 5 ** (17 - x)
            odd = -(-10 ** 17 // five) | 1
            for m in (odd, odd + 2):
                assert m < 2 ** 53 and m * five < 10 ** 18
                tie = float(Fraction(m * five) * Fraction(10) ** (x - 17))
                assert Fraction(tie) == Fraction(m * five) * Fraction(10) ** (x - 17)
                yield tie


def notation_switches():
    """The doubles on either side of each power of ten in the compiled range,
    where '%.17g' may change notation (at 10^-4) or digit count, or round up
    to the power (the double below 10^-14)."""
    for k in range(-15, 17):
        v = float(f"1e{k}")
        yield from (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))
    yield from (math.nextafter(1e-16, 1.0), math.nextafter(1e17, 0.0))


FORMAT_CASES = {
    "ties-signs": [123456789012345.125, 123456789012345.375, -0.0, -np.nan],
    "powers-of-ten": list(powers_of_ten()),
    "notation-switches": [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e17, 0.0), 1e17],
}


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
class TestFormatLevel:
    """format_levels writes lead, piece and u as '%.17g' does, byte for byte."""

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_every_float(self, kernel, v):
        assert format_level(kernel, b"", [b""], [v]) == ("%.17g\n" % v).encode()

    @pytest.mark.parametrize("values", FORMAT_CASES.values(), ids=FORMAT_CASES.keys())
    def test_cases(self, kernel, values):
        xs = [f"{i} ".encode() for i in range(len(values))]
        expected = "".join(f"t,{i} " + "%.17g\n" % v for i, v in enumerate(values))
        assert format_level(kernel, b"t,", xs, values) == expected.encode()

    def test_ties_round_to_even(self, kernel):
        assert format_level(kernel, b"", [b"", b""], [123456789012345.125, 123456789012345.375]
                            ) == b"123456789012345.12\n123456789012345.38\n"

    def test_row_out_of_range_falls_back_whole(self, kernel, monkeypatch):
        """1e-300 and 1e20 are outside the compiled formatter's exact range:
        the level goes to the Python formatter whole, once, under either
        kernel."""
        calls, format_py = [], solver._format_py
        monkeypatch.setattr(solver, "_format_py", lambda *a: calls.append(a) or format_py(*a))
        values = [0.5, 1e-300, -2.75, 1e20]
        text = format_level(kernel, b"", [b"x,"] * 4, np.array(values))
        assert text == "".join("x,%.17g\n" % v for v in values).encode()
        assert len(calls) == 1


def compiled_level_text(values):
    """One level of ``values`` through the compiled kernel, with the Python
    formatter refusing every call, and the same level as '%.17g' writes it."""
    xs = [f"{i},".encode() for i in range(len(values))]
    expected = "".join(f"0.5,{i}," + "%.17g\n" % v for i, v in enumerate(values)).encode()

    def refuse(*args):
        raise AssertionError("a level went to the Python formatter")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_format_py", refuse)
        return format_level(solver._KERNEL, b"0.5,", xs, values), expected


IN_RANGE = st.builds(lambda sign, digits, x: sign * float(f"{digits}e{x}"),
                     st.sampled_from([1.0, -1.0]), st.integers(1, 10 ** 17 - 1),
                     st.integers(-32, 0)).filter(lambda v: 1e-16 < abs(v) < 1e17)


@pytest.mark.skipif(solver.KERNEL != "c", reason="the C kernel is not loaded")
class TestCompiledRange:
    """The compiled kernel formats every value of 1e-16 < |v| < 1e17 itself."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(IN_RANGE | st.floats(-1e17, 1e17, exclude_min=True, exclude_max=True)
                    .filter(lambda v: abs(v) > 1e-16 or v == 0.0), min_size=1, max_size=300))
    def test_levels_of_mixed_signs_and_exponents(self, values):
        got, expected = compiled_level_text(values)
        assert got == expected

    def test_ties_and_notation_switches_in_one_level(self):
        values = [*decimal_ties(), *notation_switches()]
        got, expected = compiled_level_text(values + [-v for v in values])
        assert got == expected

    def test_texts_longer_than_one_fixed_copy(self):
        """Heads, leads and pieces over 32 bytes are copied at their length."""
        heads, leads, xs = [b"#" * 40 + b"\n", b""], [b"L" * 33, b"t,"], [b"x" * 35, b"y,"]
        rows = [[0.5, -0.25], [1.5, 2e-5]]
        expected = b"".join(head + b"".join(lead + x + b"%.17g\n" % v for x, v in zip(xs, row))
                            for head, lead, row in zip(heads, leads, rows))
        assert b"".join(written(solver._KERNEL.format_levels(heads, leads, xs), 0, rows)) \
            == expected


SANITIZED_RUN = """
import ctypes, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
import pytest
import test_kernel as t
from layersolve import solver
try:
    kernel = solver._c_kernel(ctypes.CDLL(sys.argv[3]))
except OSError:
    sys.exit(77)
cases = t.TestFormatLevel()
cases.test_every_float(kernel)
for values in t.FORMAT_CASES.values():
    cases.test_cases(kernel, values)
cases.test_ties_round_to_even(kernel)
with pytest.MonkeyPatch.context() as patch:
    cases.test_row_out_of_range_falls_back_whole(kernel, patch)
    patch.setattr(solver, "_KERNEL", kernel)
    t.TestCompiledRange().test_ties_and_notation_switches_in_one_level()
    t.TestCompiledRange().test_levels_of_mixed_signs_and_exponents()
rng = np.random.default_rng(5)
args = t.random_advance(rng, 1025, 6)
start = rng.uniform(-1.0, 1.0, 1025)
runs = [t.run_advance(k, *args, start) for k in (kernel, solver._PYTHON_KERNEL)]
strided, last = t.strided_advance(rng, 1025, 6)
runs += [t.run_advance(k, *strided, start, last=last) for k in (kernel, solver._PYTHON_KERNEL)]
assert len({tuple(x.tobytes() for x in run[1:]) for run in runs[:2]}) == 1
assert len({tuple(x.tobytes() for x in run[1:]) for run in runs[2:]}) == 1
assert [run[0] for run in runs] == [-1] * 4
t.KERNELS[:] = [kernel, solver._PYTHON_KERNEL]  # the kernels the tests below compare
for edge in t.ADVANCE_EDGES:
    assert len(t.audited_outcomes(t.KERNELS, *edge)) == 1
with pytest.MonkeyPatch.context() as patch:
    t.test_advance_raises_zero_pivot_at_the_same_row(patch, 17)
t.test_compiled_advance_checks_shapes_before_the_call("short-band")
"""


def run_sanitized(tmp_path, flags, env=None):
    """SANITIZED_RUN in a child process, with ``env``, against _thomas.c
    built with ``flags`` added; skips when cc cannot build it or the built
    library does not load, and asserts a clean exit with nothing on
    stderr."""
    lib = tmp_path / "sanitized.so"
    build = subprocess.run(["cc", *solver._CFLAGS, *flags, "-o", str(lib), solver._SOURCE],
                           capture_output=True)
    if build.returncode:
        pytest.skip(f"cc cannot build with {flags[0]}")
    tests = os.path.dirname(os.path.abspath(__file__))
    run = subprocess.run([sys.executable, "-c", SANITIZED_RUN,
                          os.path.join(os.path.dirname(tests), "src"), tests, str(lib)],
                         capture_output=True, text=True, cwd=tmp_path, env=env)
    if run.returncode == 77:
        pytest.skip("the sanitized library does not load")
    assert (run.returncode, run.stderr) == (0, "")


@pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
def test_undefined_behaviour_sanitizer(tmp_path):
    """The formatter's shifts and the kernel's loops under
    -fsanitize=undefined, which aborts on the first undefined operation (a
    shift by the width of its type or more, a signed overflow, an
    out-of-bounds index into a table), for a bug that -O2 output would hide:
    SANITIZED_RUN's TestFormatLevel cases, compiled-range levels and
    ``advance`` cases, in a child process."""
    run_sanitized(tmp_path, ["-fsanitize=undefined", "-fno-sanitize-recover=all"])


@pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
def test_address_sanitizer(tmp_path):
    """SANITIZED_RUN under -fsanitize=address, which aborts on a read or
    write past a heap block, such as a numpy array or the kernel's scratch:
    among its ``advance`` cases, samples read through zero and negative
    strides, the copy into ``last``, the smallest system, a one-step chunk,
    re-solve runs that end the chunk or meet a new matrix, a zero pivot
    mid-chunk, a non-finite step after a re-solve run and the slot-capacity
    refusal.  The ASan runtime is preloaded into the child Python, whose
    objects PYTHONMALLOC=malloc makes heap blocks that ASan sees."""
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("cc has no libasan.so")
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONMALLOC="malloc")
    run_sanitized(tmp_path, ["-fsanitize=address", "-fno-omit-frame-pointer"], env)


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

    @pytest.mark.skipif(not HAVE_CC, reason="no cc on PATH")
    def test_build_removes_stale_builds(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        for name in ("_thomas-00000000.so", "_thomas-0badbeef.so", "_thomas-1234.tmp",
                     "other.so"):
            (cache / name).write_bytes(b"stale")
        assert solver._load_kernel(str(cache)).name == "c"
        # the new build stays, and so does every file that is not a build
        built = [p.name for p in cache.glob("_thomas-*.so")]
        assert len(built) == 1
        assert {p.name for p in cache.iterdir()} == {*built, "_thomas-1234.tmp", "other.so"}
