"""Command-line interface: config validation, file outputs, determinism."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from layersolve import UnknownExample, parse_report_csv
from layersolve.cli import _atomic_write, main
from layersolve.registry import lookup


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

    def test_computation_error_is_exit_one(self, capsys, tmp_path):
        # eps=0.5 at N=16 makes the transition widths overlap
        code, _, err = run_cli(["dump-mesh", "--epsilon", "0.5", "--mu", "1e-4",
                                "--N", "16", "--out", str(tmp_path / "m.txt")],
                               capsys)
        assert code == 1
        assert err.startswith("error: LayersOverlap:")
        assert "\n" not in err.strip()


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

    def test_failed_stream_keeps_old_target(self, tmp_path):
        out = tmp_path / "sol.csv"
        out.write_bytes(b"old\n")

        def chunks():
            yield "t,x,u\n"
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

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_percent_format_matches_fstring(self, v):
        assert "%.17g" % v == f"{v:.17g}"


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
