"""Double-mesh estimation, convergence studies, temporal studies, CSV."""

import tracemalloc

import numpy as np
import pytest

from layersolve import (CheckPolicy, ConvergenceReport, LevelRecord,
                        ManufacturedMismatch, MeshMismatch, PerturbationParams,
                        PiecewiseField, ProblemSpec, RegimeCase,
                        RegimeConstants, bisect, convergence_study,
                        derive_regime, lookup, manufactured_sine, march,
                        parse_report_csv, render_report_csv,
                        render_text_table, spatial_mesh_for,
                        temporal_order_study, uniform_time_grid)
from layersolve.analysis import (double_mesh_error, orders_from_errors,
                                 render_temporal_csv, report_filename)
from layersolve.solver import DiscreteSolution

from manufactured import manufactured_steady


def quick_spec(epsilon=1e-5, mu=1e-4):
    # unit-ish layer widths so N=16 meshes build without overlap
    return lookup("example1", epsilon, mu)


def small_solution_pair():
    spec = quick_spec()
    mesh = spatial_mesh_for(derive_regime(spec), spec.params, 16, 0.5)
    fine_mesh = bisect(mesh)
    coarse = march(spec, mesh, uniform_time_grid(1.0, 4), CheckPolicy())
    fine = march(spec, fine_mesh, uniform_time_grid(1.0, 8), CheckPolicy())
    return coarse, fine


class TestDoubleMeshError:
    def test_injected_copy_gives_zero(self):
        coarse, fine = small_solution_pair()
        injected = np.full_like(fine.values, 123.456)
        injected[::2, ::2] = coarse.values
        fake_fine = DiscreteSolution(mesh=fine.mesh, grid=fine.grid,
                                     values=injected)
        assert double_mesh_error(coarse, fake_fine) == 0.0

    def test_rebuilt_meshes_are_rejected(self):
        # meshes rebuilt from the closed forms at 2N shift tau and share no
        # interior points, so nesting must be detected as broken
        spec = quick_spec()
        regime = derive_regime(spec)
        coarse_mesh = spatial_mesh_for(regime, spec.params, 16, 0.5)
        rebuilt = spatial_mesh_for(regime, spec.params, 32, 0.5)
        coarse = march(spec, coarse_mesh, uniform_time_grid(1.0, 4),
                       CheckPolicy())
        fine = march(spec, rebuilt, uniform_time_grid(1.0, 8), CheckPolicy())
        with pytest.raises(MeshMismatch):
            double_mesh_error(coarse, fine)

    def test_wrong_time_refinement_rejected(self):
        coarse, fine = small_solution_pair()
        wrong = march(quick_spec(), fine.mesh, uniform_time_grid(1.0, 12),
                      CheckPolicy())
        with pytest.raises(MeshMismatch):
            double_mesh_error(coarse, wrong)

    def test_unrefined_mesh_rejected(self):
        coarse, _ = small_solution_pair()
        with pytest.raises(MeshMismatch, match="N=16, expected 32"):
            double_mesh_error(coarse, coarse)

    def test_different_time_horizons_rejected(self):
        coarse, fine = small_solution_pair()
        longer = DiscreteSolution(mesh=fine.mesh, grid=uniform_time_grid(2.0, 8),
                                  values=fine.values.copy())
        with pytest.raises(MeshMismatch, match="time horizons differ"):
            double_mesh_error(coarse, longer)


class TestOrdersFromErrors:
    def test_exact_first_order_sequence(self):
        errors = [1.0 / n for n in (16, 32, 64, 128)]
        orders = orders_from_errors(errors)
        assert orders[-1] is None
        for r in orders[:-1]:
            assert r == pytest.approx(1.0, abs=1e-14)

    def test_zero_errors_give_none(self):
        assert orders_from_errors([0.0, 0.0, 0.0]) == [None, None, None]


class TestConvergenceStudy:
    def test_zero_data_problem(self):
        spec = ProblemSpec(
            a=PiecewiseField(left=lambda x, t: -(1.0 + x * (1.0 - x)),
                             right=lambda x, t: 1.0 + x * (1.0 - x), d=0.5),
            f=PiecewiseField(left=lambda x, t: 0.0 * x,
                             right=lambda x, t: 0.0 * x, d=0.5),
            b=lambda x, t: 1.0 + np.exp(x), c=lambda x, t: 1.0,
            p=lambda t: 0.0, r=lambda t: 0.0, q=lambda x: 0.0 * x,
            d=0.5, t_final=1.0, params=PerturbationParams(1e-5, 1e-4),
            alpha1=1.0, alpha2=1.0, beta=2.0, eta=1.0)
        report = convergence_study(spec, 16, 4, 2)
        for rec in report.levels:
            assert rec.e == 0.0
            assert rec.r is None
        table = render_text_table([report])
        assert "—" in table

    def test_levels_and_ladder_structure(self):
        report = convergence_study(quick_spec(), 16, 4, levels=3)
        assert [rec.n for rec in report.levels] == [16, 32, 64]
        assert [rec.m for rec in report.levels] == [4, 8, 16]
        assert all(rec.e > 0.0 for rec in report.levels)
        assert report.levels[-1].r is None
        assert all(rec.r is not None for rec in report.levels[:-1])

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            convergence_study(quick_spec(), 16, 4, levels=1)

    def test_six_level_ladder_holds_a_quarter_of_the_finest_level(self):
        """The study streams each march: its tracemalloc peak is the kept
        N = M = 2048 and 1024 levels (33.6 + 8.4 MB) and one chunk of the
        N = 4096 march, 44.3 MB measured (example1, eps = 1e-8, mu = 1e-6,
        base N = M = 64).  Holding every level measured 246.6 MB; the bound
        leaves 13% over the measurement."""
        spec = lookup("example1", 1e-8, 1e-6)
        tracemalloc.start()
        try:
            report = convergence_study(spec, 64, 64, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.levels[-1].n == 2048
        assert peak <= 50e6


class TestTemporalOrderStudy:
    def test_manufactured_mismatch_detected(self):
        from layersolve.registry import ManufacturedProblem
        man = manufactured_sine()
        broken = ManufacturedProblem(
            spec=man.spec, exact=man.exact, exact_x=man.exact_x,
            exact_xx=man.exact_xx,
            exact_t=lambda x, t: man.exact_t(x, t) + 1e-3)
        with pytest.raises(ManufacturedMismatch):
            temporal_order_study(broken, 64, (4, 8))

    def test_steady_solution_plateaus(self):
        # u independent of t: the error is the spatial floor, so ratios stay
        # near 1 for every M
        report = temporal_order_study(manufactured_steady(), 512, (4, 8, 16))
        errors = [rec.error for rec in report.levels]
        assert all(e > 0.0 for e in errors)
        for rec in report.levels[:-1]:
            assert 0.9 <= rec.ratio <= 1.1

    def test_uniform_fallback_engages(self):
        # eps = mu = 1 overlaps the transition widths; the study must fall
        # back to the uniform mesh rather than fail
        report = temporal_order_study(manufactured_sine(), 64, (4, 8))
        assert report.n == 64
        assert len(report.levels) == 2


class TestSerialization:
    def test_csv_round_trip_from_study(self):
        report = convergence_study(quick_spec(), 16, 4, levels=2)
        assert parse_report_csv(render_report_csv(report)) == report

    def test_csv_round_trip_handcrafted(self):
        report = ConvergenceReport(
            levels=(LevelRecord(n=64, m=64, e=0.039035999999999997, r=1.0035),
                    LevelRecord(n=128, m=128, e=1.9471e-2, r=None)),
            regime=RegimeConstants(rho=1.9145518803655759, alpha=1.0,
                                   case=RegimeCase.CASE_I),
            epsilon=1e-8, mu=1e-6)
        assert parse_report_csv(render_report_csv(report)) == report

    @pytest.mark.parametrize("key", ["epsilon", "mu", "rho", "alpha", "case"])
    def test_missing_metadata_line_names_its_key(self, key):
        report = ConvergenceReport(
            levels=(LevelRecord(n=64, m=64, e=0.04, r=None),),
            regime=RegimeConstants(rho=1.9, alpha=1.0, case=RegimeCase.CASE_I),
            epsilon=1e-8, mu=1e-6)
        text = "".join(line for line in
                       render_report_csv(report).splitlines(keepends=True)
                       if not line.startswith(f"# {key}="))
        with pytest.raises(ValueError, match=f"'# {key}=' line"):
            parse_report_csv(text)

    def test_unexpected_header_is_refused(self):
        with pytest.raises(ValueError, match="unexpected header 'N,M,E'"):
            parse_report_csv("# epsilon=1e-08\nN,M,E\n64,64,0.04\n")

    def test_text_table_needs_reports_on_one_ladder(self):
        regime = RegimeConstants(rho=1.9, alpha=1.0, case=RegimeCase.CASE_I)
        report, other = (ConvergenceReport(levels=(LevelRecord(n=n, m=n, e=0.04, r=None),),
                                           regime=regime, epsilon=1e-8, mu=1e-6)
                         for n in (64, 128))
        with pytest.raises(ValueError, match="no reports"):
            render_text_table([])
        with pytest.raises(ValueError, match="share the N ladder"):
            render_text_table([report, other])

    def test_csv_layout(self):
        report = convergence_study(quick_spec(), 16, 4, levels=2)
        text = render_report_csv(report)
        lines = text.strip().splitlines()
        assert "N,M,E,R" in lines
        data = [ln for ln in lines if not ln.startswith("#") and ln != "N,M,E,R"]
        assert len(data) == 2
        assert data[-1].endswith(",")  # R empty on the last row

    def test_text_table_formatting(self):
        report = convergence_study(quick_spec(), 16, 4, levels=2)
        table = render_text_table([report])
        assert "N=16" in table and "N=32" in table
        assert "—" in table  # sentinel for the undefined final order

    def test_report_filename_embeds_exponents(self):
        assert report_filename(1e-8, 1e-6) == "report_eps1e-08_mu1e-06.csv"
        assert report_filename(1e-12, 1e-8) == "report_eps1e-12_mu1e-08.csv"

    def test_temporal_csv_layout(self):
        report = temporal_order_study(manufactured_steady(), 64, (4, 8))
        text = render_temporal_csv(report)
        lines = text.strip().splitlines()
        assert lines[0] == "# N=64"
        assert lines[1] == "M,error,ratio,order"
        assert len(lines) == 4
