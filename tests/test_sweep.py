import csv
import importlib.resources
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinbus
from spinbus import dynamics, fisher, perturb, states, sweep, zzzz_exact
from spinbus.cli import main
from spinbus.dynamics import ModelKind, ModelSpec
from spinbus.fisher import Param, global_qfi_fd
from spinbus.states import DEFAULT_ANGLES, FAVORABLE_ANGLES
from spinbus.sweep import (
    KNOWN_QUANTITIES,
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
)
from spinbus.validate import SUITES, validate
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
        regime = weak: delta=100, epsilon=1,
        regime = strong: delta=0.001, epsilon=1
        regime = plain
        nlist = 1 2 4 8
        alpha = pi/4
        quantities = global_qfi closed_form
        observable = x
    """)
    assert cfg.kind is ModelKind.ZZZZ
    assert cfg.param is Param.OMEGA1
    assert [r.name for r in cfg.regimes] == ["weak", "strong", "plain"]
    assert (cfg.regimes[0].delta, cfg.regimes[0].epsilon) == (100.0, 1.0)
    assert (cfg.regimes[2].delta, cfg.regimes[2].epsilon) == (1.0, 1.0)  # the defaults
    assert cfg.n_list == (1, 2, 4, 8)
    assert cfg.angles.alpha == pytest.approx(math.pi / 4)


def _bundled_config(fig: str) -> str:
    return importlib.resources.files("spinbus").joinpath("configs", f"fig{fig}.cfg").read_text()


def test_bundled_n_grids_unchanged():
    # each `nlist = log lo hi count`: the rounded logspace, deduplicated, ascending
    grids = {
        "2": (1, 2, 3, 5, 8, 12, 17, 26, 39, 59, 89, 133, 200),
        "3": (1, 2, 3, 4, 7, 11, 18, 28, 46, 74, 119, 192, 310, 500),
        "4": (1, 2, 3, 4, 7, 11, 18, 29, 47, 76, 124, 200),
        "5": (1, 2, 3, 5, 8, 13, 22, 36, 60, 100),
        "6": (1, 2, 3, 5, 7, 10, 14, 21, 31, 45, 65, 96, 140, 205, 299, 437, 640, 935,
              1368, 2000),
    }
    for fig, grid in grids.items():
        assert parse_config(_bundled_config(fig)).n_list == grid, fig


def test_parse_config_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma (~10 ms), which a log N grid
    # does not need; a fresh process shows whether parsing pulled it in
    _fresh_python("import sys\n"
                  "from spinbus.sweep import parse_config\n"
                  "parse_config(sys.stdin.read())\n"
                  "assert 'numpy.ma' not in sys.modules, 'parse_config imported numpy.ma'\n",
                  stdin=_bundled_config("2"))


def _fresh_python(script: str, stdin: str = ""):
    """Run `script` in a new interpreter that imports this checkout's spinbus."""
    src = str(Path(spinbus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], input=stdin,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_config_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_config("model = zzzz\nnlist = 4 2 8\n")
    with pytest.raises(ValueError):
        parse_config("model = zzzz\nquantities = bogus\n")


@pytest.mark.parametrize("text", [
    "param = bar",
    "nlist = log 1 100",
    "nlist = log 0 100 10",
    "nlist =",
    "alphas = linspace 0 1",
    "alphas =",
    "alphas = linspace inf 1 3",
    "alpha = pi/0",
    "measurements = 0",
    "workers = 1",
    "regime = a: delta=inf",
    "regime = : delta=1",
    "regime = we,ak: delta=1",
    "regime = strong: epsilon=100\nregime = strong: epsilon=10",
    "alphas = linspace 0.5 0.5 3",
    "seed = 77",
    "quantites = pt1",
    "nlsit = 4 8",
    "regime = weak: delta=1, epsilom=0.001",
    "regime = weak: delta",
    "model = zzxx\nquantites = pt1\nregime = weak: delta=1, epsilom=0.001\nnlsit = 4 8\n",
    "regime = weak: epsilon=0.001\nregime = strong: epsilon=100\nalphas = linspace 0.1 0.5 3",
])
def test_config_errors_are_value_errors(text):
    with pytest.raises(ValueError):
        parse_config(text)


def test_parse_config_raises_only_value_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    keys = ("model", "param", "regime", "alphas", "nlist", "alpha", "phi", "beta",
            "varphi", "omega0", "omega1", "x", "t", "quantities", "observable",
            "measurements", "out", "workers")
    tokens = ("log", "linspace", "pi", "-pi/4", "3pi/8", "pi/0", "-", ".", "nan",
              "inf", "1e400", "zzxx", "zzzz", "x", "omega1", "bar", "xz", "global_qfi",
              "weak:", "delta=1,", "epsilon=0.1", "alpha=inf", ":", "=", ",")
    # no digits in free text: counts stay small, so no grid is huge
    junk = st.text(st.sampled_from(" \t\r\u2028=:,#-./*eilnopxz"), max_size=6)
    value = st.lists(st.one_of(st.sampled_from(tokens), st.integers(-3, 40).map(str),
                               junk), max_size=5).map(" ".join)
    line = st.one_of(st.tuples(st.sampled_from(keys), value).map(" = ".join), junk)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.lists(line, max_size=8))
    def parse(lines):
        try:
            parse_config("\n".join(lines))
        except ValueError:
            pass

    parse()


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


# the parameters each sweep quantity is defined for
DEFINED_FOR = {
    "global_qfi": set(Param), "local_qfi": set(Param), "first_moment": set(Param),
    "closed_form": set(Param),
    "pt1": {Param.X, Param.OMEGA1}, "pt2": {Param.X, Param.OMEGA1},
    "appendix_fm": {Param.X, Param.OMEGA1},
    "hl_condition": {Param.X}, "local_qfi_closed": {Param.X},
}


@pytest.mark.parametrize("param", list(Param))
def test_quantities_answer_only_for_their_parameters(monkeypatch, param):
    # outside its parameters a quantity's row is nan, "unsupported", and its
    # reader is not called: x's closed forms must not answer for omega1 or omega0
    assert set(DEFINED_FOR) == set(KNOWN_QUANTITIES)

    def unreachable(*args):
        raise AssertionError(f"called under {param}")

    if param is not Param.X:
        monkeypatch.setattr(perturb, "hl_condition", unreachable)
        monkeypatch.setattr(zzzz_exact, "local_qfi_x_closed", unreachable)
    cfg = SweepConfig(kind=ModelKind.ZZZZ, param=param,
                      regimes=(Regime("r", 1.0, 0.5),), n_list=(1, 2, 4),
                      quantities=KNOWN_QUANTITIES)
    rows = run_sweep(cfg).rows
    assert len(rows) == 3 * len(KNOWN_QUANTITIES)
    for r in rows:
        if param in DEFINED_FOR[r.quantity]:
            assert r.flag != "unsupported", r
        else:
            assert math.isnan(r.value) and r.flag == "unsupported", r


def test_every_row_is_its_readers_reading():
    # each reader returns a fisher.Reading, and a row holds its value (bit for
    # bit, nan for nan) and flag; ZZXX's closed forms raise, and ZZZZ answers
    # every quantity under x
    read = set()
    for kind, param in [*((ModelKind.ZZXX, param) for param in Param), (ModelKind.ZZZZ, Param.X)]:
        config = SweepConfig(kind=kind, param=param, regimes=(Regime("r", 1.0, 0.5),),
                             n_list=(3,), quantities=KNOWN_QUANTITIES)
        rows = {row.quantity: row for row in run_sweep(config).rows}
        point = sweep._Point(config, 3, *sweep._settings(config)[0])
        for quantity, (params, reader) in sweep._READERS.items():
            row = rows[quantity]
            if param not in params:
                assert math.isnan(row.value) and row.flag == "unsupported", row
                continue
            try:
                reading = reader(point)
            except Exception as err:
                assert kind is ModelKind.ZZXX, (row, err)  # the closed forms are ZZZZ's
                assert quantity in ("closed_form", "local_qfi_closed"), (row, err)
                assert math.isnan(row.value) and row.flag == f"error:{type(err).__name__}"
                continue
            assert isinstance(reading, fisher.Reading), quantity
            assert (row.value == reading.value
                    or math.isnan(row.value) and math.isnan(reading.value)), (row, reading)
            assert row.flag == reading.flag, (row, reading)
            read.add(quantity)
    assert read == set(KNOWN_QUANTITIES)


def test_no_nonfinite_row_goes_unflagged():
    # at this subnormal-small t the derivative kernel overflows, so the
    # certified bounds come out nan; a nan bound flags its row
    config = parse_config("""
        model = zzxx
        param = x
        x = 0
        omega0 = 1.0962624999496122e-35
        omega1 = 0
        t = 1.4254921772595017e-278
        nlist = 2 3 4
        quantities = global_qfi local_qfi first_moment
    """)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_sweep(config).rows
    assert len(rows) == 9
    assert all(math.isfinite(row.value) or row.flag for row in rows), rows


def test_fisher_quantities_share_one_solve_per_point(monkeypatch):
    # one eigensolve per (regime, N), however many fisher quantities read
    # from it
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
    assert sorted(calls) == [2, 4, 8]


def test_bus_densities_are_reduced_once_per_point(monkeypatch):
    # local_qfi and first_moment read the same bus density
    calls = []
    reduce_to_bus = fisher.reduce_to_bus

    def counting(state):
        calls.append(state.n_probes)
        return reduce_to_bus(state)

    monkeypatch.setattr(fisher, "reduce_to_bus", counting)
    cfg = SweepConfig(kind=ModelKind.ZZXX, param=Param.X,
                      regimes=(Regime("r", 1.0, 0.5),), n_list=(2, 4, 8),
                      quantities=("local_qfi", "first_moment"))
    result = run_sweep(cfg)
    assert len(result.rows) == 6 and not any(r.flag for r in result.rows)
    assert sorted(calls) == [2, 4, 8]


@pytest.mark.parametrize("param, quantities", [("x", "pt1 hl_condition"),
                                               ("omega1", "pt1")])
def test_pt1_quadrature_runs_once_per_regime(monkeypatch, param, quantities):
    # the cache lives for the whole process, so earlier tests may have filled it
    perturb._pt1_integrals.cache_clear()
    calls = []
    nodes_on = perturb._nodes_on

    def counting(a, b, order):
        calls.append(order)
        return nodes_on(a, b, order)

    monkeypatch.setattr(perturb, "_nodes_on", counting)
    result = run_sweep(parse_config(f"""
        model = zzxx
        param = {param}
        regime = a: delta=1, epsilon=0.01
        regime = b: delta=0.01, epsilon=1
        nlist = 1 2 4 8 16
        quantities = {quantities}
    """))
    assert not any(r.flag for r in result.rows)
    assert calls == [perturb.QUADRATURE_ORDER] * 2


def test_appendix_integrates_once_per_regime(monkeypatch):
    perturb._appendix_coefficients.cache_clear()
    calls = []
    nodes_on = perturb._nodes_on

    def counting(a, b, order):
        calls.append(order)
        return nodes_on(a, b, order)

    monkeypatch.setattr(perturb, "_nodes_on", counting)
    result = run_sweep(parse_config("""
        model = zzxx
        param = x
        regime = a: delta=1, epsilon=0.01
        regime = b: delta=2, epsilon=0.05
        nlist = 1 2 4 8 16
        quantities = appendix_fm
    """))
    assert len(result.rows) == 10 and not any(r.flag for r in result.rows)
    assert calls == [perturb.QUADRATURE_ORDER] * 4  # t1 and u axes, per regime


def test_fixed_work_runs_once_per_shared_input(monkeypatch, dense):
    # one cold sweep of three regimes builds each (kind, N) layout and each
    # (N, angles) product state once, evaluates pt2's integrals once, and
    # checks each of a point's two operators for the mirror once
    for cache in (dynamics._layout, states._product_state, perturb._pt2_integrals):
        cache.cache_clear()  # the caches live for the whole process
    calls = {"_mirrored": 0, "_connected_integrals": 0}
    for module, name in ((dynamics, "_mirrored"), (perturb, "_connected_integrals")):
        def counting(*args, _name=name, _fn=getattr(module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    n_list = (1, 2, 3, 4, 8, 9)
    result = run_sweep(parse_config(f"""
        model = zzxx
        param = x
        regime = weak: delta=1, epsilon=0.001
        regime = medium: delta=1, epsilon=1
        regime = strong: delta=1, epsilon=100
        nlist = {" ".join(map(str, n_list))}
        quantities = global_qfi pt2
    """))
    points = 3 * len(n_list)
    assert len(result.rows) == 2 * points
    assert not any(r.flag.startswith("error:") for r in result.rows)
    layouts, product_states = (cache.cache_info() for cache in (dynamics._layout,
                                                                states._product_state))
    assert (layouts.misses, layouts.hits) == (len(n_list), 2 * points - len(n_list))
    assert (product_states.misses, product_states.hits) == (len(n_list), points - len(n_list))
    assert calls == {"_mirrored": 2 * points, "_connected_integrals": 1}


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


def test_pure_bus_sweep_has_no_error_rows():
    # at x = 0 the bus decouples and stays pure, and its derivative in omega1
    # is round-off; the tangency test reads that from the certified errors
    for model in ModelKind:
        cfg = parse_config(f"""
            model = {model}
            param = omega1
            x = 0
            regime = a: delta=1, epsilon=1
            regime = b: delta=2, epsilon=0.3
            nlist = 1 2 4 8 16
            quantities = local_qfi global_qfi first_moment
        """)
        flags = {row.flag for row in run_sweep(cfg).rows}
        assert not any(flag.startswith("error") for flag in flags), (model, flags)


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


def test_validate_closed_form_suite(dense):
    report = validate(suites="d", seed=1)
    assert report.passed
    assert {c.suite for c in report.checks} == {"d"}


def test_validate_fd_check_catches_a_wrong_package_qfi(monkeypatch):
    # suite b's finite-difference QFI comes from the oracle, so a fault in
    # the package's QFI formula shows instead of cancelling out of the check
    pure_qfi = fisher._pure_qfi
    monkeypatch.setattr(fisher, "_pure_qfi", lambda psi, dpsi: 2.0 * pure_qfi(psi, dpsi))
    assert not validate(suites="b").passed


def test_cli_validate_honours_seed_zero(capsys):
    assert main(["validate", "--suite", "d", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    seeded = validate(suites="d", seed=0).checks
    assert out == "".join(f"PASS [d] {c.name}: {c.details}\n" for c in seeded)
    assert seeded != validate(suites="d").checks  # seed 0 is not the default


def test_cli_validate_rejects_a_negative_seed(capsys):
    assert main(["validate", "--suite", "d", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n" and captured.out == ""


# `spinbus validate`'s output contract: each suite's check names in order, and
# the label of the number each details string carries; tools parse these
# lines and look a check's bound up by its name
VALIDATE_OUTPUT = {  # suite: (label of its checks' number, its check names)
    "a": ("slope", "cubic-residual-eps", "cubic-residual-delta"),
    "b": ("discrepancy", "fd-two-step-agreement"),
    "c": ("deviation", "full-hilbert-states", "full-hilbert-bus-density", "full-hilbert-qfi",
          "full-hilbert-bus-qfi", "full-hilbert-first-moment"),
    "d": ("deviation", "zzzz-global-closed-forms", "zzzz-reduced-density"),
}


@pytest.mark.parametrize("suite", VALIDATE_OUTPUT)
def test_cli_validate_output_contract(suite, capsys):
    assert tuple(SUITES) == tuple(VALIDATE_OUTPUT)
    assert main(["validate", "--suite", suite]) == 0
    lines = capsys.readouterr().out.splitlines()
    label, *names = VALIDATE_OUTPUT[suite]
    assert len(lines) == len(names)
    for line, name in zip(lines, names):
        match = re.fullmatch(r"PASS \[(\w)\] ([\w-]+): (.+)", line)
        assert match and match.group(1, 2) == (suite, name), line
        number = re.search(rf"\b{label}=([^\s,;]+)", match.group(3))
        assert number and math.isfinite(float(number.group(1))), line


def test_cli_exact_closed_form(capsys):
    code = main(["exact", "zzzz", "x", "--n", "7", "--alpha", "0",
                 "--beta", "pi/4", "--phi", "0", "--varphi", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "49" in out


def test_cli_exact_rejects_unknown_model(capsys):
    assert main(["exact", "zzxy", "x"]) == 1
    assert main(["exact", "zzxx", "x"]) == 1  # no closed form for this model


def test_cli_exact_rejects_bad_values(capsys):
    assert main(["exact", "zzzz", "x", "--alpha", "pi/0"]) == 1
    assert main(["exact", "zzzz", "x", "--t", "-1"]) == 1
    assert main(["exact", "zzzz", "x", "--n", "-3"]) == 1
    assert main(["exact", "zzzz", "x", "--n", "0", "--thermal", "0.5"]) == 1
    assert main(["exact", "zzzz", "x", "--local", "--n", "-3"]) == 1
    assert main(["exact", "zzzz", "x", "--n", "5", "--thermal", "nan"]) == 1
    assert main(["exact", "zzzz", "omega1", "--n", "5", "--thermal", "inf"]) == 1
    # Python's float ** raises OverflowError where a closed form overflows,
    # and numpy's float64 arithmetic FloatingPointError (at 1e308, in dzeta)
    assert main(["exact", "zzzz", "x", "--n", "5", "--t", "1e200"]) == 1
    assert main(["exact", "zzzz", "omega0", "--n", "5", "--delta", "1e160"]) == 1
    assert main(["exact", "zzzz", "x", "--n", "5", "--local", "--t", "1e200"]) == 1
    assert main(["exact", "zzzz", "x", "--n", "5", "--local", "--t", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("error: ") == 11 and captured.out == ""


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


def test_figures_match_the_benchmark_reference(tmp_path, dense):
    # the benchmark's figure gate: every recorded row comes back and no other,
    # none with an error flag, each equal to its recorded value (nan to nan)
    # or within the row's relative tolerance
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference_figures.csv"
    with open(reference, encoding="utf-8", newline="") as fh:
        expected = {(r["figure"], int(r["N"]), r["quantity"], r["regime"]):
                    (float(r["value"]), float(r["rtol"])) for r in csv.DictReader(fh)}
    rows = {}
    for fig in "23456":
        out = tmp_path / f"fig{fig}.csv"
        assert main(["fig", fig, "--out", str(out)]) == 0
        rows.update({(fig, r.n, r.quantity, r.regime): r for r in parse_csv(str(out))})
    assert rows.keys() == expected.keys()
    for key, (old, rtol) in expected.items():
        new = rows[key].value
        assert not rows[key].flag.startswith("error:"), rows[key]
        assert (new == old or math.isnan(new) and math.isnan(old)
                or math.isfinite(new) and math.isfinite(old)
                and abs(new - old) <= rtol * max(abs(new), abs(old))), (key, new, old)


def test_cli_needs_no_scipy(tmp_path):
    # importing the CLI loads no scipy, and with scipy blocked `fig 2` writes
    # the same files as in this process
    script = (
        "import sys\n"
        "import spinbus.cli\n"
        "assert 'scipy' not in sys.modules, 'importing spinbus.cli loaded scipy'\n"
        "sys.modules['scipy'] = None\n"
        "sys.exit(spinbus.cli.main(sys.argv[1:]))\n")
    src = str(Path(spinbus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    blocked, here = tmp_path / "blocked.csv", tmp_path / "here.csv"
    proc = subprocess.run([sys.executable, "-c", script, "fig", "2", "--out", str(blocked)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(["fig", "2", "--out", str(here)]) == 0
    for suffix in ("", ".fits.csv"):
        assert (Path(f"{blocked}{suffix}").read_bytes()
                == Path(f"{here}{suffix}").read_bytes())


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


def test_cli_config_errors_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    for text, named in (("model = zzzz\nparam = bar\nquantities = closed_form\n", "'bar'"),
                        ("model = zzzz\nquantites = closed_form\n", "'quantites'"),
                        ("model = zzzz\nregime = weak: delta=1, epsilom=0.001\n",
                         "'epsilom'")):
        config.write_text(text)
        assert main(["sweep", str(config), "--out", str(tmp_path / "bad.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
    out = str(tmp_path / "fig6.csv")
    for flag in ("--nmax", "--workers"):  # 0 is a value, not "not given"
        assert main(["fig", "6", "--out", out, flag, "0"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # any --workers but 1 names the removal
    assert main(["fig", "6", "--out", out, "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers was removed" in err
    assert not (tmp_path / "bad.csv").exists() and not (tmp_path / "fig6.csv").exists()
    # perfbench's figures pass runs `fig N --workers 1`, and its tracer reads
    # `config.workers`
    assert main(["fig", "6", "--workers", "1", "--out", out]) == 0
    assert (tmp_path / "fig6.csv").exists()
    assert parse_config(_bundled_config("6")).workers == 1
    with pytest.raises(ValueError, match="workers was removed"):
        parse_config("workers = 1")
    # sweeps run in one process, so the CLI imports neither of these
    _fresh_python("import sys\n"
                  "import spinbus.cli\n"
                  "loaded = {'concurrent.futures', 'logging'} & set(sys.modules)\n"
                  "assert not loaded, loaded\n")


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
