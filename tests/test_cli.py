import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import xxchain
from xxchain import cli, spectral
from xxchain.chain import (
    ChainSpec,
    build_hamiltonian,
    mirror_impurities,
    parse_chain_config,
    single_impurity,
    with_alpha,
)
from xxchain.cli import emit_csv, emit_json, main
from xxchain.dynamics import SeriesKind, fidelity
from xxchain.errors import ConvergenceFailure, CouplingSignWarning
from xxchain.spectral import classify_band, eigendecompose, eigenstate_ipr, first_bond_c12, transfer_spectrum

from routes import failed_solver, noisy_solver


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", list(SeriesKind))
def test_evolve_kind_names_are_the_series_kinds(kind, capsys):
    argv = ["evolve", "--n", "8", "--alpha", "0.5", "--t-range", "0:2:0.5", "--kind", kind.value]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    header = "t,re,im" if kind is SeriesKind.TRANSFER_AMPLITUDE else "t,value"
    assert out.splitlines()[0] == header and len(out.splitlines()) == 6


def test_spectrum_csv_grid(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    code = main(["spectrum", "--n", "6", "--alpha-range", "0:1:0.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,j,energy,label"
    assert len(lines) == 1 + 3 * 6
    assert all(line.count(",") == 3 for line in lines[1:])


def test_spectrum_reruns_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["spectrum", "--n", "12", "--alpha-range", "0:3:0.25", "--out"]
    assert main(argv + [str(first)]) == 0
    assert main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_spectrum_labels_are_relative_to_the_field(capsys):
    code, out, _ = run_cli(["spectrum", "--n", "10", "--alpha", "0.5", "--h", "3"], capsys)
    assert code == 0
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == ["in_band"] * 10


def test_spectrum_solves_through_the_cli_binding_once_per_grid(monkeypatch, tmp_path):
    # bench/spans.py times each solve by rebinding the module attribute; the
    # whole alpha grid is one energies_batch call
    solve = cli.energies_batch
    calls = []

    def spy(template, alphas):
        calls.append(alphas.tolist())
        return solve(template, alphas)

    monkeypatch.setattr(cli, "energies_batch", spy)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--n", "8", "--alpha-range", "0:1:0.25", "--out", str(out)]) == 0
    assert calls == [[0.0, 0.25, 0.5, 0.75, 1.0]]


@pytest.mark.parametrize("solver", [failed_solver, noisy_solver])
def test_spectrum_refuses_a_failed_or_noisy_stacked_solve(solver, capsys):
    with solver():
        code, out, err = run_cli(["spectrum", "--n", "8", "--alpha-range", "0:3:0.25"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ConvergenceFailure: ")


def per_alpha_rows(command, template, alphas, inner):
    """The rows of a grid command built alpha by alpha, each from its own matrix, as the row writer takes them."""
    rows = []
    for alpha in alphas:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the J > 0 sign warning
            hamiltonian = build_hamiltonian(with_alpha(template, alpha))
        if command == "spectrum":
            dec = eigendecompose(hamiltonian)
            cells = zip(dec.energies.tolist(), [label.value for label in classify_band(dec, template)])
        elif command == "landscape":
            cells = zip(fidelity(transfer_spectrum(hamiltonian), np.array(inner)).tolist())
        else:
            read = eigenstate_ipr if command == "ipr-sweep" else first_bond_c12
            cells = zip(read(hamiltonian, (inner[0], inner[-1])).tolist())
        rows.extend((alpha, x, *cell) for x, cell in zip(inner, cells))
    return rows


CONFIG = "n_sites = 9\nexchange_j = -0.8\nfield_h = 0.3\nimpurities = 1:1, 5:1\n"
SCHEMAS = {"spectrum": ["alpha", "j", "energy", "label"], "landscape": ["alpha", "t", "fidelity"]}


@pytest.mark.parametrize(
    "argv, template, alphas, inner",
    [
        (["spectrum", "--n", "9", "--alpha-range", "0:3:0.25", "--h", "2.5"],
         single_impurity(9, 1.0, field_h=2.5), 0.25 * np.arange(13), range(1, 10)),
        (["spectrum", "--n", "8", "--alpha", "1.7", "--j", "0.6"],
         single_impurity(8, 1.0, exchange_j=0.6), [1.7], range(1, 9)),
        (["spectrum", "--config", "CONFIG", "--alpha-range", "0:2:0.5"],
         parse_chain_config(CONFIG), 0.5 * np.arange(5), range(1, 10)),
        (["ipr-sweep", "--n", "12", "--alpha-range", "0:3:0.5", "--h", "-0.4"],
         single_impurity(12, 1.0, field_h=-0.4), 0.5 * np.arange(7), range(1, 13)),
        (["ipr-sweep", "--n", "12", "--alpha", "0.3", "--states", "4:4", "--mirror"],
         mirror_impurities(12, 1.0), [0.3], [4]),
        (["concurrence-sweep", "--n", "12", "--alpha-range", "0:3:0.5"],
         single_impurity(12, 1.0), 0.5 * np.arange(7), range(2, 7)),
        (["concurrence-sweep", "--n", "12", "--alpha", "2.5", "--states", "7:7", "--h", "0.3"],
         single_impurity(12, 1.0, field_h=0.3), [2.5], [7]),
        (["landscape", "--n", "7", "--alpha-range", "0:1.5:0.25", "--t-range", "0:4:0.5", "--h", "0.3"],
         mirror_impurities(7, 1.0, field_h=0.3), 0.25 * np.arange(7), (0.5 * np.arange(9)).tolist()),
        (["landscape", "--n", "6", "--alpha-range", "0.4:0.4:0.1", "--t-range", "0:2:0.25"],
         mirror_impurities(6, 1.0), [0.4], (0.25 * np.arange(9)).tolist()),
    ],
)
def test_the_grid_writer_matches_the_row_writer(argv, template, alphas, inner, tmp_path):
    # byte for byte, in CSV and in JSON, against rows solved alpha by alpha
    (tmp_path / "CONFIG").write_text(CONFIG)
    argv = [str(tmp_path / "CONFIG") if arg == "CONFIG" else arg for arg in argv]
    alphas = [float(alpha) for alpha in alphas]
    rows = per_alpha_rows(argv[0], template, alphas, list(inner))
    schema = SCHEMAS.get(argv[0], ["alpha", "j", "value"])
    emit_csv(rows, schema, tmp_path / "rows.csv")
    emit_json([dict(zip(schema, row)) for row in rows], tmp_path / "rows.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([*argv, "--out", str(tmp_path / "grid.csv")]) == 0
        assert main([*argv, "--format", "json", "--out", str(tmp_path / "grid.json")]) == 0
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "grid.json").read_bytes() == (tmp_path / "rows.json").read_bytes()


def test_a_zero_amplitude_prints_as_plus_zero(capsys):
    # alpha = 0 decouples site 1, so state 3 of N = 6 has psi_1 = 0 exactly;
    # the sign convention makes it +0, every other bit stays
    code, out, _ = run_cli(["eigenvector", "--n", "6", "--alpha", "0", "--state", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "1,0"
    vectors = eigendecompose(build_hamiltonian(single_impurity(6, 0.0))).vectors
    assert not np.any(np.signbit(vectors) & (vectors == 0.0))


@pytest.mark.parametrize(
    "argv",
    [
        ["ipr-sweep", "--n", "5", "--alpha-range", "0:1:0.5"],
        ["concurrence-sweep", "--n", "5", "--alpha-range", "0:1:0.5"],
        ["spectrum", "--n", "5", "--alpha-range", "0:1:0.5"],
        ["landscape", "--n", "5", "--alpha-range", "0:1:0.5", "--t-range", "0:1:0.5"],
        ["evolve", "--n", "5", "--alpha", "0.5", "--t-range", "0:1:0.5"],
        ["evolve", "--n", "5", "--alpha", "0.5", "--t-range", "0:1:0.5", "--kind", "ipr"],
        ["eigenvector", "--n", "5", "--alpha", "0", "--state", "1"],
        ["optimize", "--n", "5", "--alpha-range", "0.3:0.5:0.1"],
        ["scaling", "--n-list", "5,6", "--alpha-range", "0.3:0.5:0.1"],
    ],
)
def test_a_positive_coupling_warns_once_per_command(argv, capsys):
    filters = list(warnings.filters)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--j", "1"]) == 0
    assert [warning.category for warning in caught] == [CouplingSignWarning]
    assert warnings.filters == filters  # the command leaves the filters as it found them
    capsys.readouterr()


def test_spectrum_rejects_short_chain(capsys):
    code, _, err = run_cli(["spectrum", "--n", "1", "--alpha", "0.5"], capsys)
    assert code == 2
    assert "InvalidN" in err


def test_spectrum_requires_alpha_information(capsys):
    code, _, err = run_cli(["spectrum", "--n", "8"], capsys)
    assert code == 2
    assert "--alpha" in err


def test_alpha_and_range_are_mutually_exclusive(capsys):
    code, _, err = run_cli(
        ["spectrum", "--n", "8", "--alpha", "0.5", "--alpha-range", "0:1:0.5"], capsys
    )
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["does-not-exist"]) == 2


def test_bad_range_reports_flag(capsys):
    code, _, err = run_cli(["spectrum", "--n", "8", "--alpha-range", "0:1:-0.5"], capsys)
    assert code == 2
    assert "--alpha-range" in err


def test_ipr_sweep_states_selection(tmp_path):
    out = tmp_path / "ipr.csv"
    code = main(
        ["ipr-sweep", "--n", "10", "--alpha-range", "0.2:0.4:0.2", "--states", "1:3",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,j,value"
    assert len(lines) == 1 + 2 * 3
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(1.0 <= value <= 10.0 for value in values)


def test_concurrence_sweep_default_states(tmp_path):
    out = tmp_path / "c12.csv"
    code = main(["concurrence-sweep", "--n", "12", "--alpha-range", "0.5:1:0.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    # default states 2..N/2 for two alphas
    assert len(lines) == 1 + 2 * 5


def test_eigenvector_profile(capsys):
    code, out, _ = run_cli(["eigenvector", "--n", "6", "--alpha", "3.0", "--state", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "site,amplitude"
    amplitudes = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(amplitudes) == 6
    assert abs(sum(a * a for a in amplitudes) - 1.0) < 1e-12
    code, _, err = run_cli(["eigenvector", "--n", "6", "--alpha", "1.0", "--state", "7"], capsys)
    assert code == 2
    assert "--state" in err


def test_evolve_two_site_amplitude(capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "2", "--kind", "amplitude", "--t-max", "1", "--dt", "0.5"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,re,im"
    t, re, im = (float(x) for x in lines[2].split(","))
    assert (t, re) == (0.5, 0.0)
    assert im == pytest.approx(np.sin(0.5), abs=1e-12)


def test_evolve_requires_a_time_grid(capsys):
    code, _, err = run_cli(["evolve", "--n", "4"], capsys)
    assert code == 2
    assert "--t-range" in err


def test_evolve_fidelity_with_mirror_impurities(capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "10", "--alpha", "0.5", "--mirror", "--kind", "fidelity",
         "--t-range", "0:8:1"], capsys
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert abs(float(rows[0][1])) <= 1e-15
    assert all(0.0 <= float(row[1]) <= 1.0 for row in rows)


def test_evolve_fidelity_prints_the_landscape_column(capsys):
    # both subcommands read f_N from transfer_spectrum, so the mirror chain's
    # F(t) is the same number, printed the same way, whichever one asks
    code, evolved, _ = run_cli(
        ["evolve", "--n", "31", "--alpha", "0.4", "--mirror", "--kind", "fidelity",
         "--t-range", "0:40:0.1"], capsys
    )
    assert code == 0
    code, landscape, _ = run_cli(
        ["landscape", "--n", "31", "--alpha-range", "0.4:0.4:0.1", "--t-range", "0:40:0.1"], capsys
    )
    assert code == 0
    evolve_f = [line.split(",")[1] for line in evolved.splitlines()[1:]]
    landscape_f = [line.split(",")[2] for line in landscape.splitlines()[1:]]
    assert len(evolve_f) == 401
    assert evolve_f == landscape_f


def test_landscape_csv(tmp_path):
    out = tmp_path / "land.csv"
    code = main(
        ["landscape", "--n", "12", "--alpha-range", "0.4:0.6:0.1", "--t-range", "0:10:1",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,t,fidelity"
    assert len(lines) == 1 + 3 * 11


def test_landscape_requires_grids(capsys):
    code, _, err = run_cli(["landscape", "--n", "12"], capsys)
    assert code == 2
    assert "landscape" in err


def test_optimize_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["optimize", "--n", "20", "--alpha-range", "0.4:0.6:0.1", "--seedless", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_sites"] == 20
    assert report["alpha_opt"] in (0.4, 0.5, 0.6)
    assert report["c_max"] == pytest.approx(np.sqrt(report["f_max"]), abs=1e-9)
    assert len(report["per_alpha"]) == 3
    assert set(report["per_alpha"][0]) == {"alpha", "t_refocus", "f_peak", "at_window_edge"}


def test_optimize_default_grid_n31(tmp_path):
    out = tmp_path / "n31.json"
    assert main(["optimize", "--n", "31", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 0.5 <= report["alpha_opt"] <= 0.7
    assert report["f_max"] > 2.0 / 3.0
    assert len(report["per_alpha"]) == 71


def test_scaling_json_single_length(tmp_path):
    out = tmp_path / "scaling.json"
    code = main(["scaling", "--n-list", "20", "--alpha-range", "0.5:0.5:0.1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["t_tr_slope"] is None
    assert len(payload["reports"]) == 1


def test_scaling_accepts_odd_lengths(capsys):
    code, out, _ = run_cli(["scaling", "--n-list", "9,10", "--alpha-range", "0.3:0.5:0.1"], capsys)
    assert code == 0
    assert [report["n_sites"] for report in json.loads(out)["reports"]] == [9, 10]


def test_scaling_marks_window_edge_peaks(capsys):
    # short chains still gain fidelity at 0.75 N: every winner is an edge peak
    code, out, _ = run_cli(["scaling", "--n-list", "8,9,10", "--alpha-range", "0.3:0.5:0.1"], capsys)
    assert code == 0
    for report in json.loads(out)["reports"]:
        assert report["t_tr"] == 0.75 * report["n_sites"]
        winners = [t for t in report["per_alpha"] if t["alpha"] == report["alpha_opt"]]
        assert len(winners) == 1 and winners[0]["at_window_edge"] is True


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "chain.cfg"
    config.write_text("n_sites = 6\nexchange_j = -1\nimpurities = 1:0.4, 5:0.4\n")
    code, out, _ = run_cli(
        ["evolve", "--config", str(config), "--kind", "fidelity", "--t-range", "0:1:1"], capsys
    )
    assert code == 0
    # --n overrides the config file value
    code, out, _ = run_cli(
        ["spectrum", "--config", str(config), "--n", "4", "--alpha", "0.4"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 4


def test_config_file_errors_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, _, err = run_cli(
        ["spectrum", "--config", str(missing), "--alpha", "0.4"], capsys
    )
    assert code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_sites = 6\nmystery = 1\n")
    code, _, err = run_cli(["spectrum", "--config", str(bad), "--alpha", "0.4"], capsys)
    assert code == 2
    assert "mystery" in err


def test_computation_error_exits_one(monkeypatch, capsys):
    # the flags are valid; the failure happens inside the solve
    def diverge(*args, **kwargs):
        raise ConvergenceFailure("eigensolver did not converge")

    monkeypatch.setattr(spectral, "_eigh_rows", diverge)
    # no solver-free route: the phase rule refuses every chain
    monkeypatch.setattr(spectral, "_phase_rule",
                        lambda end, far, bulk, uniform, field: (np.zeros(uniform.shape, bool), end, field, bulk))
    code, _, err = run_cli(["optimize", "--n", "20", "--alpha-range", "0.4:0.5:0.1"], capsys)
    assert code == 1
    assert "ConvergenceFailure" in err


def test_ranges_beside_a_far_bound_state_exit_zero(tmp_path):
    # alpha = 1e10 puts two bound states at about +-1e10, outside the ranges;
    # the phase route refuses alpha^2 beyond 1 / eps, so eigendecompose reads them
    paths = {}
    for name, argv in {
        "c12": ["concurrence-sweep", "--n", "200", "--alpha", "1e10"],
        "ipr_2_3": ["ipr-sweep", "--n", "200", "--alpha", "1e10", "--states", "2:3"],
        "ipr": ["ipr-sweep", "--n", "200", "--alpha", "1e10", "--states", "1:200"],
    }.items():
        paths[name] = tmp_path / f"{name}.csv"
        assert main([*argv, "--out", str(paths[name])]) == 0
    rows = {name: path.read_text().splitlines()[1:] for name, path in paths.items()}
    assert len(rows["c12"]) == 99
    assert rows["ipr_2_3"] == rows["ipr"][1:3]


def test_memory_error_is_one_line_and_exits_one(monkeypatch, capsys):
    # numpy raises a private MemoryError subclass; the message names the public class
    class _ArrayMemoryError(MemoryError):
        pass

    def exhausted(args):
        raise _ArrayMemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setitem(cli._HANDLERS, "evolve", exhausted)
    code, out, err = run_cli(["evolve", "--n", "8", "--t-range", "0:1e15:1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: MemoryError: Unable to allocate 7.11 PiB for an array\n"


def test_oracle_check_table(capsys):
    code, out, _ = run_cli(["oracle-check", "--n-max", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "block_dev", "amplitude_dev", "concurrence_dev", "status"]
    assert all(line.endswith("pass") for line in lines[1:])


def test_emit_csv_header_only_and_determinism(tmp_path):
    first = tmp_path / "empty1.csv"
    second = tmp_path / "empty2.csv"
    emit_csv([], ["a", "b"], first)
    emit_csv([], ["a", "b"], second)
    assert first.read_text() == "a,b\n"
    assert first.read_bytes() == second.read_bytes()
    single = tmp_path / "one.csv"
    emit_csv([(1.0 / 3.0, 2)], ["a", "b"], single)
    assert single.read_text() == "a,b\n0.333333333333,2\n"


def test_emit_csv_row_format_matches_per_value_format(tmp_path):
    # reference: each value through format(x, ".12g") or str(int)
    def reference(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, float):
            return format(value, ".12g")
        return str(value)

    floats = [0.0, -0.0, 5e-324, 2.5e-310, float("nan"), float("inf"), -float("inf"), 1.0 / 3.0,
              1e22, -123456789012345.0, np.float64(1.79585477256e-32), np.float64(0.999999999999951)]
    rows = [(value, np.int64(j), j, "in_band") for j, value in enumerate(floats)]
    path = tmp_path / "rows.csv"
    emit_csv(rows, ["x", "i", "j", "label"], path)
    expected = ["x,i,j,label"] + [",".join(reference(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_numbers_use_twelve_significant_digits(capsys):
    code, out, _ = run_cli(
        ["evolve", "--n", "3", "--kind", "fidelity", "--t-range", "0:1:0.3333333333333"], capsys
    )
    assert code == 0
    assert "0.333333333333," in out


@pytest.mark.parametrize(
    "argv",
    [
        ["ipr-sweep", "--n", "6", "--alpha", "0.3", "--states", "1:2"],
        ["evolve", "--n", "8", "--alpha", "0.4", "--kind", "ipr", "--t-range", "0:3:0.7"],
        ["evolve", "--n", "8", "--alpha", "0.4", "--kind", "amplitude", "--t-range", "0:3:0.7"],
    ],
)
def test_json_rows_keep_the_csv_digits(argv, capsys):
    code, csv_out, _ = run_cli(argv, capsys)
    assert code == 0
    code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    header, *lines = csv_out.splitlines()
    expected = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    assert json.loads(json_out) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["eigenvector", "--n", "20", "--alpha", "nan", "--state", "1"],
        ["evolve", "--n", "20", "--j", "nan", "--t-max", "1"],
        ["evolve", "--n", "20", "--h", "inf", "--t-max", "1"],
        ["spectrum", "--n", "20", "--h=-inf", "--alpha", "0.5"],
        ["optimize", "--n", "20", "--j", "nan"],
        ["scaling", "--n-list", "8", "--h", "nan"],
        # finite flags whose energy bound |h| + 2 max|coupling| overflows
        ["evolve", "--n", "8", "--j=-1e308", "--t-range", "0:1:0.5"],
        ["landscape", "--n", "8", "--j=-1e308", "--alpha-range", "0.2:0.4:0.2", "--t-range", "0:1:0.5"],
        ["concurrence-sweep", "--n", "8", "--alpha", "1e308", "--j", "-2", "--states", "1:1"],
        ["ipr-sweep", "--n", "8", "--alpha-range", "0:1e308:1e307", "--j", "-2"],
        ["spectrum", "--n", "8", "--alpha-range", "0:1e308:1e307", "--j", "-2"],
        ["optimize", "--n", "8", "--alpha-range", "1:1e308:1e307", "--j", "-2"],
    ],
)
def test_non_finite_chain_parameters_exit_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "NonFiniteParameter" in err


def test_non_finite_config_impurity_exits_two(tmp_path, capsys):
    config = tmp_path / "chain.cfg"
    config.write_text("n_sites = 20\nimpurities = 1:nan\n")
    code, _, err = run_cli(["evolve", "--config", str(config), "--t-max", "1"], capsys)
    assert code == 2
    assert "NonFiniteParameter" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evolve", "--n", "20", "--t-range", "0:nan:0.1"], "--t-range"),
        (["evolve", "--n", "20", "--t-max", "inf"], "--t-max"),
        (["evolve", "--n", "20", "--t-max", "1", "--dt", "nan"], "--dt"),
        (["spectrum", "--n", "20", "--alpha-range", "0:inf:0.1"], "--alpha-range"),
    ],
)
def test_non_finite_ranges_exit_two(argv, flag, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert flag in err and "finite" in err


COLLAPSING = "1e16:1.00000000000001e16:1"  # 101 points that round onto fewer values


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evolve", "--n", "8", "--t-range", COLLAPSING], "--t-range"),
        (["landscape", "--n", "8", "--alpha-range", "0.4:0.4:0.1", "--t-range", COLLAPSING],
         "--t-range"),
        (["ipr-sweep", "--n", "8", "--alpha-range", COLLAPSING, "--states", "1:1"],
         "--alpha-range"),
    ],
)
def test_grids_that_collapse_under_rounding_exit_two(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: UsageError: ") and flag in err and "ascending" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["ipr-sweep", "--n", "8", "--alpha-range", "0:1e308:1e-10"], "--alpha-range"),
        (["evolve", "--n", "8", "--t-range", "0:1e308:1e-300"], "--t-range"),
        (["ipr-sweep", "--n", "8", "--alpha-range", "0:1:1e-300"], "--alpha-range"),
    ],
)
def test_grids_too_long_to_count_exit_two_before_allocating(argv, flag, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the point count should have been refused before the grid is built")

    monkeypatch.setattr(cli, "inclusive_grid", never)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: UsageError: ") and flag in err and "points" in err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["ipr-sweep", "--n", "8", "--alpha", "0.5", "--states", "0:3"], "--states"),
        (["ipr-sweep", "--n", "8", "--alpha", "0.5", "--states", "1:9"], "--states"),
        (["concurrence-sweep", "--n", "8", "--alpha", "0.5", "--states", "a:b"], "--states"),
        (["evolve", "--n", "8", "--t-range", "0:1:0.5", "--t-max", "1"], "--t-range"),
        (["evolve", "--n", "8", "--t-max", "-1"], "--t-max"),
        (["landscape", "--n", "12", "--alpha-range", "0.2:1:0.2"], "landscape"),
        (["landscape", "--n", "12", "--t-range", "0:1:0.5"], "landscape"),
        (["scaling", "--n-list", "a"], "--n-list"),
        (["scaling", "--n-list", ","], "--n-list"),
        (["eigenvector", "--n", "20", "--alpha", "-1", "--state", "1"], "NegativeAlpha"),
        (["evolve", "--n", "20", "--j", "0", "--t-max", "1"], "ZeroCoupling"),
    ],
)
def test_usage_errors_exit_two_before_output(argv, needle, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert needle in err
    assert out == ""


@pytest.fixture
def no_solve(monkeypatch):
    """Make every library call a handler could reach fail the test."""

    def never(*args, **kwargs):
        raise AssertionError("flag validation should have failed before this call")

    for name in ("eigendecompose", "energies_batch", "ipr_sweep", "c12_sweep", "fidelity_landscape",
                 "optimize_alpha", "scaling_sweep", "oracle_check"):
        monkeypatch.setattr(cli, name, never)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["optimize", "--n", "20", "--format", "csv"], "--format csv"),
        (["scaling", "--n-list", "50,100,200,400", "--format", "csv"], "--format csv"),
        (["oracle-check", "--n-max", "13"], "--n-max"),
        (["oracle-check", "--n-max", "1"], "--n-max"),
        (["spectrum", "--n", "8", "--alpha-range=-1:1:0.5"], "NegativeAlpha"),
        (["ipr-sweep", "--n", "8", "--alpha-range=-1:1:0.5"], "NegativeAlpha"),
        (["concurrence-sweep", "--n", "8", "--alpha-range=-1:1:0.5"], "NegativeAlpha"),
        (["landscape", "--n", "8", "--alpha-range=-1:1:0.5", "--t-range", "0:1:0.5"],
         "NegativeAlpha"),
        (["optimize", "--n", "20", "--alpha-range", "0:0.5:0.1"], "ValueError"),
        (["scaling", "--n-list", "10", "--alpha-range=-0.2:0.4:0.1"], "ValueError"),
        (["optimize", "--n", "2"], "UsageError: BadBond"),
        (["landscape", "--n", "2", "--alpha-range", "0.2:1:0.2", "--t-range", "0:1:0.5"],
         "UsageError: BadBond"),
        (["optimize", "--config", "CONFIG"], "impurities"),
        (["landscape", "--config", "CONFIG", "--alpha-range", "0.2:1:0.2", "--t-range", "0:1:0.5"],
         "impurities"),
    ],
)
def test_late_checked_inputs_exit_two_before_solving(argv, needle, no_solve, tmp_path, capsys):
    # a config impurity list cannot replace the fixed mirror layout of a transfer command
    config = tmp_path / "chain.cfg"
    config.write_text("n_sites = 12\nimpurities = 5:0.3\n")
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert needle in err
    assert out == ""


@pytest.mark.parametrize("n_list", ["8,2", "8,-4", "-4", "8,10,2"])
def test_every_scaling_length_is_checked_before_solving(n_list, no_solve, capsys):
    code, out, err = run_cli(["scaling", "--n-list", n_list, "--alpha-range", "0.4:0.5:0.1"], capsys)
    assert code == 2
    assert "UsageError: BadBond" in err
    assert out == ""


def source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(xxchain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_without_scipy(code):
    """Run code in a fresh interpreter in which any scipy import fails, and fail unless it exits 0."""
    probe = f"import sys; sys.modules['scipy'] = None; {code}"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=source_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def run_main(argv):
    """Code that runs the CLI on argv in process and fails unless it exits 0."""
    return f"from xxchain.cli import main; assert main({argv!r}) == 0"


def test_importing_the_cli_loads_no_optimizer():
    # nor any other scipy module: numpy is the only runtime dependency
    run_without_scipy("import xxchain.cli, xxchain")


@pytest.mark.parametrize(
    "argv",
    [
        ["scaling", "--n-list", "8,10", "--alpha-range", "0.3:0.5:0.1"],
        ["landscape", "--n", "31", "--alpha-range", "0.4:0.4:0.1", "--t-range", "0:40:0.1"],
        ["evolve", "--n", "31", "--alpha", "0.4", "--mirror", "--kind", "fidelity", "--t-range", "0:40:0.1"],
        ["concurrence-sweep", "--mirror", "--n", "200", "--alpha-range", "0.005:2:0.005", "--out", os.devnull],
        ["ipr-sweep", "--mirror", "--n", "201", "--alpha-range", "0.005:3:0.005", "--out", os.devnull],
    ],
)
def test_phase_route_commands_load_no_scipy(argv):
    run_without_scipy(run_main(argv))


def test_the_oracle_builds_without_scipy_sparse():
    run_without_scipy(run_main(["oracle-check", "--n-max", "4"]))


def test_solving_commands_run_without_scipy():
    # numpy is the only runtime dependency: the commands that solve, an
    # alpha = 0 row among them, and the library's c12_peak run with scipy blocked
    commands = [
        ["spectrum", "--n", "6", "--alpha", "0.5"],
        ["eigenvector", "--n", "12", "--alpha", "1.6", "--state", "1"],
        ["evolve", "--n", "12", "--alpha", "0.4", "--kind", "ipr", "--t-range", "0:5:0.5"],
        ["ipr-sweep", "--n", "12", "--alpha-range", "0:0.5:0.25"],
    ]
    peak = "from xxchain.chain import single_impurity; from xxchain.measures import c12_peak; " \
        "c12_peak(single_impurity(40, 1.0), 20)"
    run_without_scipy("; ".join([*map(run_main, commands), peak]))


def test_module_entry_point_matches_main(capsys):
    argv = ["spectrum", "--n", "6", "--alpha", "0.5"]
    proc = subprocess.run(
        [sys.executable, "-m", "xxchain", *argv],
        capture_output=True, text=True, env=source_env(), timeout=120,
    )
    code, out, _ = run_cli(argv, capsys)
    assert proc.returncode == code == 0
    assert proc.stdout == out
