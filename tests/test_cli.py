from __future__ import annotations

import json

import numpy as np
import pytest

from starquant import GridFunction1D
from starquant.cli import MAX_SAMPLES, main

STAR_QP_JSON = ('{"dim": 1, "envelope": "0/1", "terms": ['
                '{"l": 0, "q": [1], "p": [1], "re": "1/1", "im": "0/1"}, '
                '{"l": 1, "q": [0], "p": [0], "re": "0/1", "im": "1/2"}]}\n')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_golden_line(capsys):
    code, out, err = run(capsys, "star", "q", "p", "--dim", "1", "--json")
    assert code == 0
    assert out == STAR_QP_JSON
    assert err == ""


def test_output_is_deterministic(capsys):
    first = run(capsys, "star", "q+p", "q-p", "--json")
    second = run(capsys, "star", "q+p", "q-p", "--json")
    assert first == second


def test_pretty_mode_is_plain_text(capsys):
    code, out, _ = run(capsys, "star", "q", "p")
    assert code == 0
    assert out == "q*p + i/2*lambda\n"
    assert "\x1b" not in out  # no color codes when stdout is not a tty


def test_commutator_and_smap(capsys):
    code, out, _ = run(capsys, "commutator", "q", "p")
    assert (code, out) == (0, "i*lambda\n")
    code, out, _ = run(capsys, "smap", "q*p")
    assert (code, out) == (0, "q*p - i/2*lambda\n")
    code, out, _ = run(capsys, "smap", "q*p", "--inverse")
    assert (code, out) == (0, "q*p + i/2*lambda\n")


def test_parse_errors_exit_2_with_positions(capsys):
    code, out, err = run(capsys, "star", "q^-1", "p")
    assert code == 2 and out == ""
    body = json.loads(err)
    assert body["error"] == "NegativeExponent"
    assert (body["line"], body["column"]) == (1, 3)


def test_deep_nesting_exits_2_with_position(capsys):
    code, out, err = run(capsys, "star", "(" * 3000 + "q" + ")" * 3000, "p", "--json")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    body = json.loads(lines[0])
    assert body["error"] == "ObservableSyntaxError"
    assert (body["line"], body["column"]) == (1, 101)
    # nesting up to the limit still parses
    code, out, _ = run(capsys, "star", "(" * 100 + "q" + ")" * 100, "p")
    assert (code, out) == (0, "q*p + i/2*lambda\n")


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "star")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"
    code, _, err = run(capsys, "star", "q", "p", "--json", "--pretty")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_hamilton_jacobi_violation_exits_3_with_residual(capsys):
    code, out, err = run(capsys, "wkb", "hierarchy", "--ham", "p^2",
                         "--action", "q^2/2", "--energy", "0", "--order", "2")
    assert code == 3 and out == ""
    body = json.loads(err)
    assert body["error"] == "HamiltonJacobiViolated"
    assert body["residual"] == [
        {"l": 0, "q": [2], "p": [0], "re": "1/1", "im": "0/1"}]


def test_hierarchy_frozen_payload(capsys):
    code, out, _ = run(capsys, "wkb", "hierarchy", "--ham", "p^2+1-q^2",
                       "--action", "q^2/2", "--energy", "1", "--order", "3",
                       "--json")
    assert code == 0
    assert json.loads(out) == {
        "dim": 1,
        "energy": "1/1",
        "orders": [
            {"order": 0, "terms": []},
            {"order": 1, "terms": [
                {"l": 0, "d": [0],
                 "coeff": [{"l": 0, "q": [0], "p": [0], "re": "0/1", "im": "-1/1"}]},
                {"l": 0, "d": [1],
                 "coeff": [{"l": 0, "q": [1], "p": [0], "re": "0/1", "im": "-2/1"}]},
            ]},
            {"order": 2, "terms": [
                {"l": 0, "d": [2],
                 "coeff": [{"l": 0, "q": [0], "p": [0], "re": "-1/1", "im": "0/1"}]},
            ]},
            {"order": 3, "terms": []},
        ],
    }


def test_hierarchy_pretty_lines(capsys):
    code, out, _ = run(capsys, "wkb", "hierarchy", "--ham", "p^2+1-q^2",
                       "--action", "q^2/2", "--energy", "1", "--order", "3")
    assert code == 0
    assert out == ("D_0 = 0\n"
                   "D_1 = -i - 2*i*q*d\n"
                   "D_2 = -d^2\n"
                   "D_3 = 0\n")


def test_turning_point_and_coarse_grid_exit_3(capsys):
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "-1", "1", "--samples", "64",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "TurningPointError"
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "8",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "GridTooCoarse"


def test_nonintegrable_exits_3(capsys):
    code, _, err = run(capsys, "omega0", "q^2")
    assert code == 3
    assert json.loads(err)["error"] == "NonIntegrable"


def test_negative_envelope_exits_3(capsys):
    code, _, err = run(capsys, "omega0", "q^2", "--envelope", "-1")
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


def test_omega0_and_inner0_values(capsys):
    code, out, _ = run(capsys, "omega0", "1", "--envelope", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"unit": {"c": "1/1", "n": 1},
                               "series": {"0": {"re": "1/1", "im": "0/1"}}}
    code, out, _ = run(capsys, "inner0", "p", "p", "--envelope", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"unit": {"c": "2/1", "n": 1},
                               "series": {"2": {"re": "1/4", "im": "0/1"}}}


def test_ideal0_membership_payloads(capsys):
    code, out, _ = run(capsys, "ideal0", "p", "--json")
    assert code == 0
    assert json.loads(out) == {
        "member": True,
        "parts": [{"index": 1,
                   "terms": [{"l": 0, "q": [0], "p": [0], "re": "1/1", "im": "0/1"}]}],
    }
    code, out, _ = run(capsys, "ideal0", "q", "--json")
    assert code == 0
    assert json.loads(out) == {"member": False}


def test_ideal1_constructive_witness(capsys):
    code, out, _ = run(capsys, "ideal1", "p - q", "--action", "q^2/2", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["member"] is True
    part, = body["parts"]
    assert part["factor"] == [{"l": 0, "q": [0], "p": [0], "re": "1/1", "im": "0/1"}]
    assert part["generator"] == [
        {"l": 0, "q": [0], "p": [1], "re": "1/1", "im": "0/1"},
        {"l": 0, "q": [1], "p": [0], "re": "-1/1", "im": "0/1"}]
    code, out, _ = run(capsys, "ideal1", "p", "--action", "q^2/2", "--json")
    assert json.loads(out) == {"member": False}


def test_weyl_check_counts_monomials(capsys):
    code, out, _ = run(capsys, "weyl-check", "--max-degree", "2", "--json")
    assert code == 0
    body = json.loads(out)
    assert body == {"dim": 1, "max_degree": 2, "checked": 6,
                    "mismatches": [], "all_equal": True}


def test_evolve_and_phase_conj_agree(capsys):
    code, out, _ = run(capsys, "evolve", "p", "--t", "1",
                       "--action", "q^2/2")
    assert (code, out) == (0, "p - q\n")
    code, out, _ = run(capsys, "phase-conj", "p^3", "--t", "1",
                       "--action", "q^3", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["matches_evolve"] is True
    code, out2, _ = run(capsys, "evolve", "p^3", "--t", "1",
                        "--action", "q^3", "--json")
    assert body["observable"] == json.loads(out2)


def test_pi0_and_pi1_render(capsys):
    code, out, _ = run(capsys, "pi0", "p")
    assert (code, out) == (0, "-i*lambda*d\n")
    code, out, _ = run(capsys, "pi1", "p", "--action", "q^2/2")
    assert (code, out) == (0, "q - i*lambda*d\n")


def test_project_command(capsys):
    code, out, _ = run(capsys, "project", "p", "--envelope", "1")
    assert code == 0
    assert out == "(i*lambda*q) * exp(-1*|q|^2)\n"


def test_solve1d_json_shape_and_boundary(capsys):
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "1", "--bc", "1", "--json")
    assert code == 0
    body = json.loads(out)
    assert set(body) == {"sprime", "orders", "residuals"}
    assert body["sprime"]["n"] == 64
    assert body["sprime"]["pad"] == 4
    assert len(body["orders"]) == 2
    pad = body["orders"][0]["pad"]
    assert body["orders"][0]["re"][pad] == pytest.approx(1.0)
    assert body["residuals"]["passed"] is True
    assert len(body["residuals"]["norms"]) == 2


def test_solve1d_residual_failure_keeps_exit_0(capsys):
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "1", "--bc", "1", "--tol", "1e-30", "--json")
    assert code == 0
    assert json.loads(out)["residuals"]["passed"] is False


def test_solve1d_rejects_momentum_dependent_sprime(capsys):
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "p",
                       "--interval", "1", "2", "--samples", "64",
                       "--order", "0", "--bc", "1")
    assert code == 3
    assert json.loads(err)["error"] == "ValueError"


def test_solve1d_file_input(tmp_path, capsys):
    qs = np.linspace(-0.25, 1.25, 200)
    table = np.column_stack([qs, np.sqrt(1.0 + qs ** 2)])
    path = tmp_path / "sprime.dat"
    np.savetxt(path, table)
    code, out, _ = run(capsys, "wkb", "solve1d", "--sprime-file", str(path),
                       "--interval", "0", "1", "--samples", "128",
                       "--order", "1", "--bc", "1", "--tol", "1e-3", "--json")
    assert code == 0
    body = json.loads(out)
    assert body["residuals"]["passed"] is True
    code, _, err = run(capsys, "wkb", "solve1d", "--sprime-file",
                       str(tmp_path / "missing.dat"),
                       "--interval", "0", "1", "--samples", "128",
                       "--order", "0", "--bc", "1")
    assert code == 2
    assert "Error" in json.loads(err)["error"] or json.loads(err)["error"]


@pytest.mark.parametrize("interval", [("1", "inf"), ("nan", "2")])
def test_solve1d_rejects_nonfinite_interval(capsys, interval):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", *interval, "--samples", "256",
                         "--order", "0", "--bc", "1", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def test_solve1d_rejects_negative_order(capsys):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "256",
                         "--order", "-1", "--bc", "1", "--json")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def assert_one_error_line(code, out, err, error):
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("samples, error", [
    ("1", "GridTooCoarse"), ("0", "GridTooCoarse"),
    (str(MAX_SAMPLES + 1), "ValueError")])
def test_solve1d_rejects_samples_out_of_range(capsys, monkeypatch, samples, error):
    def no_grid(*args):
        raise AssertionError("grid built for an out-of-range sample count")

    monkeypatch.setattr(GridFunction1D, "from_callable", staticmethod(no_grid))
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", samples,
                         "--order", "0", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, error)


@pytest.mark.filterwarnings("error")
def test_solve1d_nonfinite_sprime_exits_3(capsys):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q^400",
                         "--interval", "1", "10", "--samples", "64",
                         "--order", "0", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, bad", [(1, "nan"), (1, "-inf"), (0, "nan"), (0, "inf")])
def test_solve1d_nonfinite_file_rows_exit_3(tmp_path, capsys, column, bad):
    qs = np.linspace(-0.25, 1.25, 20)
    rows = [[repr(q), repr(float(np.sqrt(1.0 + q * q)))] for q in qs]
    for row in rows[5], rows[9]:
        row[column] = bad
    path = tmp_path / "sprime.dat"
    path.write_text("".join(" ".join(row) + "\n" for row in rows))
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-file", str(path),
                         "--interval", "0", "1", "--samples", "64",
                         "--order", "1", "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.parametrize("bc", ["10^400", "-10^400*i"])
def test_solve1d_rejects_boundary_beyond_float_range(capsys, bc):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "64",
                         "--order", "0", f"--bc={bc}", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-5"])
def test_solve1d_rejects_bad_tolerance(capsys, tol):
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "q",
                         "--interval", "1", "2", "--samples", "64",
                         "--order", "0", "--bc", "1", f"--tol={tol}", "--json")
    assert_one_error_line(code, out, err, "ValueError")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("order", ["0", "1"])
def test_solve1d_underflowing_grid_step_exits_3(capsys, order):
    # h = 1e-320/63 is subnormal, so h**order in the stencils underflows
    code, out, err = run(capsys, "wkb", "solve1d", "--sprime-expr", "1",
                         "--interval", "0", "1e-320", "--samples", "64",
                         "--order", order, "--bc", "1", "--json")
    assert_one_error_line(code, out, err, "ValueError")
    assert "not finite" in err
