"""Command-line interface: config validation, file outputs, determinism."""

import dataclasses
import hashlib
import re
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layersolve import (CheckPolicy, DiscreteSolution, PiecewiseField, UnknownExample, cli,
                        derive_regime, march, parse_report_csv, registry, solver,
                        spatial_mesh_for, uniform_time_grid)
from layersolve.cli import _atomic_write, main
from layersolve.registry import lookup

# a finite number as '%.17g' writes it
G17 = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]{2,3})?")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# quick converge settings: layers fit at N=16 for eps=1e-5
CONVERGE_ARGS = ["converge", "--example", "example1", "--epsilon", "1e-5",
                 "--mu", "1e-4", "--N", "16", "--levels", "2"]
# the same settings for --mu-list runs, which exclude --mu
SWEEP_ARGS = [arg for arg in CONVERGE_ARGS if arg not in ("--mu", "1e-4")]


class TestConfigValidation:
    def test_n_not_divisible_by_8(self, capsys, tmp_path):
        code, _, err = run_cli(["solve", "--N", "60",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith("error: config:")

    def test_unknown_example(self, capsys, tmp_path):
        code, _, err = run_cli(["solve", "--example", "example9",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert "example9" in err

    def test_registry_raises_for_unknown_key(self):
        with pytest.raises(UnknownExample):
            lookup("example9", 1e-8, 1e-6)

    def test_custom_is_rejected_with_pointer_to_host_code(self, capsys):
        code, _, err = run_cli(["solve", "--example", "custom"], capsys)
        assert code == 2
        assert "host code" in err

    def test_levels_floor(self, capsys):
        code, _, err = run_cli(CONVERGE_ARGS[:-1] + ["1"], capsys)
        assert code == 2

    def test_epsilon_range(self, capsys):
        code, _, err = run_cli(["solve", "--epsilon", "2.0"], capsys)
        assert code == 2

    def test_unknown_example_lists_registry_keys(self, capsys):
        code, _, err = run_cli(["solve", "--example", "example9"], capsys)
        assert code == 2
        assert "available: example1, example2" in err

    def test_m_floor(self, capsys, tmp_path):
        code, _, err = run_cli(["solve", "--M", "0",
                                "--out", str(tmp_path / "s.csv")], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert list(tmp_path.iterdir()) == []

    def test_mu_list_range_names_the_value(self, capsys, tmp_path):
        code, _, err = run_cli(SWEEP_ARGS + ["--mu-list", "1e-4,2.0",
                                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert "2.0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["solve", "dump-mesh", "temporal"])
    def test_mu_list_outside_converge_is_rejected(self, capsys, tmp_path, command):
        code, _, err = run_cli([command, "--mu-list", "1e-7,1e-8",
                                "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert "--mu-list" in err
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["dump-mesh", "--plot-data", "--levels", "9"],
        ["temporal", "--theta-variant", "section2", "--example", "example2"],
    ])
    def test_flags_the_command_does_not_read(self, capsys, tmp_path, argv):
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mu_list,first,second", [
        ("1e-4,1.0000001e-4", "0.0001", "0.00010000001"),
        ("1e-4,1e-4", "0.0001", "0.0001"),
    ])
    def test_mu_list_values_sharing_a_report_file(self, capsys, tmp_path,
                                                  mu_list, first, second):
        code, _, err = run_cli(SWEEP_ARGS + ["--mu-list", mu_list,
                                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert "\n" not in err.strip()
        assert f"{first} and {second}" in err
        assert "report_eps1e-05_mu0.0001.csv" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        SWEEP_ARGS + ["--mu", "0.9", "--mu-list", "1e-4"],
        SWEEP_ARGS + ["--mu", "5", "--mu-list", "1e-4"],
        ["temporal", "--M", "0"],
        ["converge", "--M", "0"],
        ["converge", "--N", "20"],
        ["converge", "--epsilon", "0"],
        ["converge", "--example", "custom"],
        ["solve", "--mu=-1e-4"],
        ["dump-mesh", "--N", "8"],
        ["solve", "--checks", "loose"],
        ["dump-mesh", "--theta-variant", "section3"],
        ["solve", "--theta-variant", "case2-experimental"],
        ["temporal", "--M", "3"],
        ["temporal", "--M", "6"],
        ["converge", "--mu-list", ""],
        ["converge", "--mu-list", ","],
    ])
    def test_bad_input_is_one_config_line(self, capsys, tmp_path, argv):
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err.startswith("error: config:")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--mu", "-1e-4"], "mu=-0.0001 must be in (0, 1]"),
        (["solve", "--epsilon", "-1e-8"], "epsilon=-1e-08 must be in (0, 1]"),
        (["converge", "--mu-list", "-1e-4,1e-5"], "mu=-0.0001 must be in (0, 1]"),
    ])
    def test_negative_scientific_value_reaches_range_check(self, capsys, tmp_path,
                                                           argv, message):
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err == f"error: config: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_computation_error_is_exit_one(self, capsys, tmp_path):
        # eps=0.5 at N=16 makes the transition widths overlap
        code, _, err = run_cli(["dump-mesh", "--epsilon", "0.5", "--mu", "1e-4",
                                "--N", "16", "--out", str(tmp_path / "m.txt")],
                               capsys)
        assert code == 1
        assert err.startswith("error: LayersOverlap:")
        assert "\n" not in err.strip()

    def test_case_ii_regime_is_one_error_line(self, capsys, tmp_path):
        # sqrt(alpha)*mu > sqrt(rho*eps): case (ii), which no variant supports
        out = tmp_path / "u.csv"
        code, _, err = run_cli(["solve", "--N", "16", "--M", "4", "--epsilon", "1e-8",
                                "--mu", "1e-2", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: UnsupportedRegime:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestOutputFailures:
    MESH_ARGS = ["dump-mesh", "--epsilon", "1e-5", "--mu", "1e-4", "--N", "16"]

    def test_missing_directory_is_one_error_line(self, capsys, tmp_path):
        out = tmp_path / "missing" / "mesh.txt"
        code, _, err = run_cli(self.MESH_ARGS + ["--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_removes_temp_file(self, capsys, tmp_path):
        # the temp file is written next to the target, then os.replace
        # fails because the target is a directory
        out = tmp_path / "taken"
        out.mkdir()
        code, _, err = run_cli(self.MESH_ARGS + ["--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: IsADirectoryError:")
        assert "\n" not in err.strip()
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    def test_memory_error_is_one_error_line(self, capsys, tmp_path, monkeypatch):
        # stands in for march's np.empty on a huge N x M; the real allocation
        # can succeed where the kernel overcommits memory
        def march(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 TiB")

        monkeypatch.setattr(cli, "march", march)
        code, out, err = run_cli(["solve", "--epsilon", "1e-5", "--mu", "1e-4",
                                  "--N", "16", "--out", str(tmp_path / "s.csv")],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err == "error: MemoryError: Unable to allocate 32.0 TiB\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("plot", [False, True], ids=["csv", "plot-data"])
    @pytest.mark.parametrize("kernel", ["python", "loaded"])
    def test_failed_streamed_solve_keeps_old_target(self, capsys, tmp_path, monkeypatch,
                                                    kernel, plot):
        """f turns NaN in the march's second chunk of 3 steps, after the first
        chunk's text went into the temp file: one error line, the old file
        kept and no temp file left."""
        base = registry.lookup

        def lookup_nan(*args):
            spec = base(*args)
            f = lambda fn: lambda x, t: fn(x, t) + np.where(np.asarray(t) > 0.5, np.nan, 0.0)
            return dataclasses.replace(spec, f=PiecewiseField(
                left=f(spec.f.left), right=f(spec.f.right), d=spec.d))

        monkeypatch.setattr(registry, "lookup", lookup_nan)
        monkeypatch.setattr(solver, "_CHUNK_BYTES", 3 * 8 * 15)
        if kernel == "python":
            monkeypatch.setattr(solver, "_KERNEL", solver._PYTHON_KERNEL)
        out = tmp_path / "sol.csv"
        out.write_bytes(b"old\n")
        code, stdout, err = run_cli(["solve", "--epsilon", "1e-5", "--mu", "1e-4", "--N", "16",
                                     "--M", "8", "--out", str(out)] + ["--plot-data"] * plot,
                                    capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: NonFiniteValue: non-finite value at step j=4 (N=16, M=8)\n"
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"old\n"

    def test_failed_stream_keeps_old_target(self, tmp_path):
        out = tmp_path / "sol.csv"
        out.write_bytes(b"old\n")

        def chunks():
            yield b"t,x,u\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(str(out), chunks())
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"old\n"


class TestOutputBytes:
    """Byte-exact outputs; a writer that drifts by one byte fails here."""

    ARGS = ["--example", "example1", "--epsilon", "1e-5", "--mu", "1e-4",
            "--N", "16"]
    # sha256 of the text the per-node f-string writers produced
    SHA256 = {
        ("solve", "--M", "4"):
            "fa0ae9e012a2146f4cf4ea041442ef80a0c7f28f2a9109673ee22acec1333bcd",
        ("solve", "--M", "4", "--plot-data"):
            "458571ba2302c0baf238c0e7b8916f2052d5e0833ad446a797c5b20136cc55aa",
        ("dump-mesh",): "1f083bd10e8beaf8a8e316d6217f06dafbd7bb85dd98694f3c9bec77830d0f09",
    }

    @pytest.mark.parametrize("command", sorted(SHA256))
    def test_output_sha256(self, command, capsys, tmp_path):
        out = tmp_path / "out.txt"
        argv = [command[0], *self.ARGS, *command[1:], "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[command]

    @pytest.mark.parametrize("command", [c for c in sorted(SHA256) if c[0] == "solve"])
    def test_python_kernel_output_sha256(self, command, capsys, tmp_path, monkeypatch):
        """The solve pins again under the Python kernel; the test above runs
        the loaded one, the compiled kernel where cc is available."""
        monkeypatch.setattr(solver, "_KERNEL", solver._PYTHON_KERNEL)
        self.test_output_sha256(command, capsys, tmp_path)

    def test_temporal_output_sha256(self, capsys, tmp_path):
        # pinned apart from SHA256: temporal rejects the problem flags of ARGS
        out = tmp_path / "out.txt"
        argv = ["temporal", "--N", "64", "--M", "16", "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "75fdf5a91d0485c2fe794d25a20d5a9f6dfbdfc5b19bfe43fe71f3cb36379d38")

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_percent_format_matches_fstring(self, v):
        assert "%.17g" % v == f"{v:.17g}"

    def test_solution_csv_round_trips_every_value(self, capsys, tmp_path):
        """Every line is t,x,u, and every u parses back to its double, bit for bit."""
        out = tmp_path / "sol.csv"
        argv = ["solve", "--example", "example1", "--epsilon", "1e-5", "--mu", "1e-4",
                "--N", "64", "--M", "64", "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0
        spec = lookup("example1", 1e-5, 1e-4)
        mesh = spatial_mesh_for(derive_regime(spec), spec.params, 64, spec.d)
        sol = march(spec, mesh, uniform_time_grid(spec.t_final, 64), CheckPolicy())
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,u" and len(lines) == 1 + 65 * 65
        fields = [line.split(",") for line in lines[1:]]
        assert all(len(f) == 3 and all(G17.fullmatch(x) for x in f) for f in fields)
        t, x, u = np.array([[float(v) for v in f] for f in fields]).T.reshape(3, 65, 65)
        assert t.tobytes() == np.repeat(sol.grid.times, 65).tobytes()
        assert x.tobytes() == np.tile(sol.mesh.points, 65).tobytes()
        assert u.tobytes() == sol.values.tobytes()

    @pytest.mark.skipif(solver.KERNEL != "c", reason="the C kernel is not loaded")
    def test_compiled_kernel_formats_every_level(self, capsys, tmp_path, monkeypatch):
        """No level of a solve falls back to the Python formatter; a range
        check that always refused would pass every byte pin above."""
        calls = []
        monkeypatch.setattr(solver, "_format_py",
                            lambda *args: calls.append(args) or b"")
        argv = ["solve", *self.ARGS, "--M", "16", "--out", str(tmp_path / "s.csv")]
        assert run_cli(argv, capsys)[0] == 0
        assert calls == []


def level_texts(sol, plot):
    """Each level's text as the writer that ``plot`` selects writes it."""
    for j, (t, row) in enumerate(zip(sol.grid.times, sol.values)):
        if plot:
            head = ("\n" if j else "") + f"# t={t:.17g}\n"
            yield (head + "".join(f"{x:.17g} {u:.17g}\n"
                                  for x, u in zip(sol.mesh.points, row))).encode()
        else:
            yield "".join(f"{t:.17g},{x:.17g},{u:.17g}\n"
                          for x, u in zip(sol.mesh.points, row)).encode()


@pytest.mark.skipif(solver.KERNEL != "c", reason="the C kernel is not loaded")
@pytest.mark.parametrize("plot", [False, True], ids=["csv", "plot-data"])
def test_out_of_range_level_goes_to_python_alone(monkeypatch, plot):
    """Ten levels (M = 9) in blocks of three; level 4 holds 1e-300, out of
    the compiled formatter's range, so the block of levels 3-5 stops before
    it, level 4 alone goes to _format_py, and the blocks after it are levels
    5-7 and 8-9.  Each chunk is whole levels, and the text is the per-level
    text."""
    spec = lookup("example1", 1e-5, 1e-4)
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 16, spec.d)
    values = np.random.default_rng(2).uniform(-1.0, 1.0, (10, 17))
    values[4, 3] = 1e-300
    sol = DiscreteSolution(mesh=mesh, grid=uniform_time_grid(1.0, 9), values=values)
    # a level's bound: the longest head and, per node, the longest lead, its
    # x piece and 24 bytes
    heads = [len(f"\n# t={t:.17g}\n") - (j == 0) if plot else 0
             for j, t in enumerate(sol.grid.times)]
    leads = [0 if plot else len(f"{t:.17g},") for t in sol.grid.times]
    most = max(heads) + 17 * (max(leads) + 24) + sum(len(f"{x:.17g},") for x in mesh.points)
    calls, format_py = [], solver._format_py
    monkeypatch.setattr(solver, "_format_py", lambda *a: calls.append(a[2]) or format_py(*a))
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 4 * most - 1)
    chunks = []
    out = types.SimpleNamespace(write=lambda block: chunks.append(bytes(block)))
    (cli._plot_data if plot else cli._solution_csv)(out, mesh, sol.grid)(0, values)
    texts = list(level_texts(sol, plot))
    expected = [b"".join(texts[j:k]) for j, k in ((0, 3), (3, 4), (4, 5), (5, 8), (8, 10))]
    assert chunks[plot ^ 1:] == expected
    assert [row.tobytes() for row in calls] == [values[4].tobytes()]


class TestDumpMesh:
    def test_body_lines_and_landmarks(self, capsys, tmp_path):
        out = tmp_path / "mesh.txt"
        code, _, _ = run_cli(["dump-mesh", "--N", "64", "--epsilon", "1e-8",
                              "--mu", "1e-6", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# N=64 theta1=")
        body = lines[1:]
        assert len(body) == 65
        # landmark rows: index tau-derived positions and segment labels
        toks = [ln.split() for ln in body]
        assert toks[0][:2] == ["0", "0"]
        assert toks[32][1] == "0.5"
        assert toks[64][1] == "1"
        assert toks[8][3] == "L1"
        assert toks[24][3] == "U1"
        assert toks[32][3] == "L2"
        assert toks[40][3] == "L3"
        assert toks[56][3] == "U2"
        # h column matches successive x differences
        xs = np.array([float(t[1]) for t in toks])
        hs = np.array([float(t[2]) for t in toks])
        np.testing.assert_allclose(hs[1:], np.diff(xs), rtol=1e-12, atol=0)


class TestSolveAndDumpSolution:
    def test_solution_csv_shape(self, capsys, tmp_path):
        out = tmp_path / "sol.csv"
        code, _, _ = run_cli(["solve", "--example", "example1",
                              "--epsilon", "1e-5", "--mu", "1e-4",
                              "--N", "16", "--M", "8", "--out", str(out)],
                             capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) == 1 + 9 * 17  # (M+1)(N+1) rows
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_plot_data_blocks(self, capsys, tmp_path):
        out = tmp_path / "plot.txt"
        code, _, _ = run_cli(["solve", "--example", "example1",
                              "--epsilon", "1e-5", "--mu", "1e-4",
                              "--N", "16", "--M", "4", "--plot-data",
                              "--out", str(out)], capsys)
        assert code == 0
        blocks = out.read_text().strip().split("\n\n")
        assert len(blocks) == 5  # M+1 time slices
        for block in blocks:
            lines = block.splitlines()
            assert lines[0].startswith("# t=")
            assert len(lines) == 1 + 17
            assert all(len(ln.split()) == 2 for ln in lines[1:])


class TestConverge:
    def test_writes_csv_and_prints_table(self, capsys, tmp_path):
        code, out_text, _ = run_cli(CONVERGE_ARGS + ["--out", str(tmp_path)],
                                    capsys)
        assert code == 0
        path = tmp_path / "report_eps1e-05_mu0.0001.csv"
        assert path.exists()
        report = parse_report_csv(path.read_text())
        assert [rec.n for rec in report.levels] == [16, 32]
        assert "N=16" in out_text and "N=32" in out_text

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        run_cli(CONVERGE_ARGS + ["--out", str(tmp_path)], capsys)
        path = next(tmp_path.glob("*.csv"))
        first = path.read_bytes()
        run_cli(CONVERGE_ARGS + ["--out", str(tmp_path)], capsys)
        assert path.read_bytes() == first

    def test_mu_list_writes_one_file_per_mu(self, capsys, tmp_path):
        args = ["converge", "--example", "example1", "--epsilon", "1e-5",
                "--mu-list", "1e-4,2e-4", "--N", "16", "--levels", "2",
                "--out", str(tmp_path)]
        code, out_text, _ = run_cli(args, capsys)
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("report_*.csv"))
        assert files == ["report_eps1e-05_mu0.0001.csv",
                         "report_eps1e-05_mu0.0002.csv"]
        assert out_text.count("\n") >= 5  # header + 2 mu rows x 2 lines


class TestVariantsAndPolicies:
    def test_section2_variant_doubles_theta1(self, capsys, tmp_path):
        a, b = tmp_path / "s4.txt", tmp_path / "s2.txt"
        base = ["dump-mesh", "--example", "example1", "--epsilon", "1e-8",
                "--mu", "1e-6", "--N", "64"]
        assert run_cli(base + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(base + ["--theta-variant", "section2",
                               "--out", str(b)], capsys)[0] == 0

        def thetas(path):
            head = path.read_text().splitlines()[0].split()
            vals = dict(tok.split("=") for tok in head[1:])
            return float(vals["theta1"]), float(vals["theta2"])

        t1_s4, t2_s4 = thetas(a)
        t1_s2, t2_s2 = thetas(b)
        assert t1_s4 == t2_s4
        assert t2_s2 == t2_s4
        assert t1_s2 == pytest.approx(2.0 * t1_s4, rel=1e-14)

    def test_strict_checks_complete_cleanly(self, capsys, tmp_path):
        code, _, _ = run_cli(CONVERGE_ARGS + ["--checks", "strict",
                                              "--out", str(tmp_path)], capsys)
        assert code == 0

    def test_bad_mu_list_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(["converge", "--mu-list", "1e-4,zap",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: config:")


class TestTemporal:
    def test_writes_order_csv(self, capsys, tmp_path):
        out = tmp_path / "orders.csv"
        code, _, _ = run_cli(["temporal", "--N", "64", "--M", "8",
                              "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "M,error,ratio,order"
        ms = [int(ln.split(",")[0]) for ln in lines[2:]]
        assert ms == [4, 8]
