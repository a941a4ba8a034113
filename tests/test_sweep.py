import math

import pytest

from spinbus import dynamics, fisher
from spinbus.cli import main
from spinbus.dynamics import ModelKind, ModelSpec
from spinbus.fisher import Param, global_qfi_fd
from spinbus.states import DEFAULT_ANGLES, FAVORABLE_ANGLES
from spinbus.sweep import (
    FitDomainError,
    Regime,
    Row,
    SweepConfig,
    emit_csv,
    fit_scaling,
    parse_config,
    parse_csv,
    parse_number,
    run_sweep,
    validate,
)
from spinbus.zzzz_exact import global_qfi_closed


def _rows(values, quantity="q", regime="r"):
    return [Row(n, quantity, regime, v) for n, v in values]


def test_fit_scaling_exact_square_law():
    rows = _rows([(n, 7.0 * n ** 2) for n in (2, 4, 8, 16, 32)])
    exponent, stderr = fit_scaling(rows, "q", "r", (2, 32))
    assert exponent == pytest.approx(2.0, abs=1e-12)
    assert stderr < 1e-12


def test_fit_scaling_linear_law():
    rows = _rows([(n, 3.0 * n) for n in (3, 9, 27, 81)])
    exponent, _ = fit_scaling(rows, "q", "r", (3, 81))
    assert exponent == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_closed_form_heisenberg():
    spec = ModelSpec(ModelKind.ZZZZ)
    rows = _rows([(n, global_qfi_closed(spec, n, FAVORABLE_ANGLES, Param.X))
                  for n in (4, 8, 16, 32, 64)])
    exponent, _ = fit_scaling(rows, "q", "r", (4, 64))
    assert exponent == pytest.approx(2.0, abs=1e-12)


def test_fit_scaling_domain_errors():
    with pytest.raises(FitDomainError):
        fit_scaling(_rows([(2, 1.0), (4, -1.0), (8, 2.0)]), "q", "r", (2, 8))
    with pytest.raises(FitDomainError):
        fit_scaling(_rows([(2, 1.0), (4, 2.0)]), "q", "r", (2, 4))


def test_parse_number_pi_expressions():
    assert parse_number("pi") == pytest.approx(math.pi)
    assert parse_number("3pi/8") == pytest.approx(3 * math.pi / 8)
    assert parse_number("-pi/4") == pytest.approx(-math.pi / 4)
    assert parse_number("0.125") == 0.125


def test_parse_config_round_trip():
    cfg = parse_config("""
        # comment
        model = zzzz
        param = omega1
        regime = weak: delta=100, epsilon=1
        regime = strong: delta=0.001, epsilon=1
        nlist = 1 2 4 8
        alpha = pi/4
        quantities = global_qfi closed_form
        observable = x
        workers = 2
        seed = 77
    """)
    assert cfg.kind is ModelKind.ZZZZ
    assert cfg.param is Param.OMEGA1
    assert [r.name for r in cfg.regimes] == ["weak", "strong"]
    assert cfg.n_list == (1, 2, 4, 8)
    assert cfg.angles.alpha == pytest.approx(math.pi / 4)


def test_config_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_config("model = zzzz\nnlist = 4 2 8\n")
    with pytest.raises(ValueError):
        parse_config("model = zzzz\nquantities = bogus\n")


def test_empty_quantities_empty_result():
    cfg = SweepConfig(kind=ModelKind.ZZZZ, param=Param.X,
                      regimes=(Regime("r", 1.0, 1.0),), n_list=(1, 2, 4),
                      quantities=())
    result = run_sweep(cfg)
    assert result.rows == () and result.fits == ()


def test_sweep_per_point_failures_are_flagged():
    # closed forms only exist for the dephasing model: rows flag, no crash
    cfg = SweepConfig(kind=ModelKind.ZZXX, param=Param.X,
                      regimes=(Regime("r", 1.0, 1.0),), n_list=(1, 2, 4),
                      quantities=("closed_form",))
    result = run_sweep(cfg)
    assert all(r.flag.startswith("error:") for r in result.rows)
    assert all(math.isnan(r.value) for r in result.rows)


def test_fisher_quantities_share_one_solve_per_point(monkeypatch):
    # one exact solve plus two check propagations per (regime, N), however
    # many fisher quantities read from it
    calls = []
    eigensystem = dynamics.eigensystem

    def counting(h):
        calls.append(h.n_probes)
        return eigensystem(h)

    monkeypatch.setattr(dynamics, "eigensystem", counting)
    cfg = SweepConfig(kind=ModelKind.ZZXX, param=Param.X,
                      regimes=(Regime("r", 1.0, 0.5),), n_list=(2, 4, 8),
                      quantities=("global_qfi", "local_qfi", "first_moment"))
    result = run_sweep(cfg)
    assert len(result.rows) == 9 and not any(r.flag for r in result.rows)
    assert sorted(calls) == [2, 2, 2, 4, 4, 4, 8, 8, 8]


def test_failed_solve_flags_every_fisher_quantity_of_the_point(monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args[1])
        raise RuntimeError("no convergence")

    monkeypatch.setattr(fisher, "evolve_point", failing)
    cfg = SweepConfig(kind=ModelKind.ZZZZ, param=Param.X,
                      regimes=(Regime("r", 1.0, 1.0),), n_list=(1, 2),
                      quantities=("global_qfi", "local_qfi", "first_moment",
                                  "closed_form"))
    rows = run_sweep(cfg).rows
    assert calls == [1, 2]  # one attempt per point
    for r in rows:
        if r.quantity == "closed_form":
            assert r.flag == "" and r.value > 0.0
        else:
            assert r.flag == "error:RuntimeError" and math.isnan(r.value)


def test_failing_quantity_leaves_the_fisher_rows_alone():
    cfg = SweepConfig(kind=ModelKind.ZZXX, param=Param.X,
                      regimes=(Regime("r", 1.0, 1.0),), n_list=(1, 2, 4),
                      quantities=("global_qfi", "closed_form"))
    rows = run_sweep(cfg).rows
    assert all(r.flag.startswith("error:") for r in rows if r.quantity == "closed_form")
    spec = ModelSpec(ModelKind.ZZXX)
    for r in rows:
        if r.quantity == "global_qfi":
            assert r.flag == ""
            assert r.value == global_qfi_fd(spec, r.n, DEFAULT_ANGLES, Param.X).value


def test_sweep_deterministic_across_workers(tmp_path):
    text = """
        model = zzzz
        param = x
        regime = a: delta=1, epsilon=1
        regime = b: delta=1, epsilon=0.3
        nlist = 1 2 4 8 16
        quantities = global_qfi closed_form local_qfi first_moment
    """
    cfg = parse_config(text)
    serial = run_sweep(cfg)
    from dataclasses import replace
    parallel = run_sweep(replace(cfg, workers=2))
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    emit_csv(serial, str(p1))
    emit_csv(parallel, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "serial.csv.fits.csv").exists()


def test_emit_csv_round_trip(tmp_path):
    cfg = SweepConfig(kind=ModelKind.ZZZZ, param=Param.X,
                      regimes=(Regime("r", 1.0, 1.0),), n_list=(1, 3, 9, 27),
                      quantities=("closed_form",))
    result = run_sweep(cfg)
    path = tmp_path / "out.csv"
    emit_csv(result, str(path))
    back = parse_csv(str(path))
    assert tuple(back) == result.rows  # bit-identical float round-trip


def test_emit_csv_header_only_for_empty(tmp_path):
    from spinbus.sweep import ScanResult
    path = tmp_path / "empty.csv"
    emit_csv(ScanResult(rows=(), fits=()), str(path))
    assert path.read_text() == "N,quantity,regime,value,flag\n"


def test_validate_closed_form_suite():
    report = validate(suites="d", seed=1)
    assert report.passed
    assert {c.suite for c in report.checks} == {"d"}


def test_cli_exact_closed_form(capsys):
    code = main(["exact", "zzzz", "x", "--n", "7", "--alpha", "0",
                 "--beta", "pi/4", "--phi", "0", "--varphi", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "49" in out


def test_cli_exact_rejects_unknown_model(capsys):
    assert main(["exact", "zzxy", "x"]) == 1
    assert main(["exact", "zzxx", "x"]) == 1  # no closed form for this model


def test_cli_sweep_and_fig(tmp_path, capsys):
    config = tmp_path / "mini.cfg"
    config.write_text("""
        model = zzzz
        param = x
        regime = only: delta=1, epsilon=1
        nlist = 1 2 4 8
        quantities = closed_form
    """)
    out = tmp_path / "mini.csv"
    assert main(["sweep", str(config), "--out", str(out)]) == 0
    rows = parse_csv(str(out))
    assert len(rows) == 4

    fig_out = tmp_path / "fig6.csv"
    assert main(["fig", "6", "--out", str(fig_out), "--nmax", "30"]) == 0
    rows = parse_csv(str(fig_out))
    assert all(r.regime.startswith("alpha=") for r in rows)
    assert {r.quantity for r in rows} == {"local_qfi_closed"}


def test_cli_io_error_exit_code(tmp_path):
    config = tmp_path / "mini.cfg"
    config.write_text("""
        model = zzzz
        param = x
        regime = only: delta=1, epsilon=1
        nlist = 1 2
        quantities = closed_form
    """)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["sweep", str(config), "--out", str(missing_dir)]) == 2
    assert main(["sweep", str(tmp_path / "absent.cfg")]) == 2


def test_alpha_grid_expansion():
    cfg = parse_config("""
        model = zzzz
        param = x
        regime = grid: delta=1, epsilon=1
        alphas = linspace 0.1 0.7 4
        nlist = 1 2 4
        quantities = local_qfi_closed
    """)
    assert len(cfg.regimes) == 4
    assert cfg.regimes[0].alpha == pytest.approx(0.1)
    assert cfg.regimes[-1].alpha == pytest.approx(0.7)
    result = run_sweep(cfg)
    assert len(result.rows) == 12
    assert all(not r.flag for r in result.rows)
