"""The public name list and the shipped scripts."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import starquant

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_public_names_resolve_once():
    names = starquant.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starquant, name) is not None, name


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(starquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_correspondence_sweep_script():
    done = run_script("correspondence_sweep.py", "--dim", "2", "--max-degree", "3")
    assert done.returncode == 0, done.stderr
    assert "35 monomials" in done.stdout
    assert "all representations equal" in done.stdout


def test_flow_demo_script():
    # both flow routes agree on every (H, S, t) case the demo prints
    done = run_script("flow_demo.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("agree") == 8
    assert "DISAGREE" not in done.stdout


def test_convergence_study_script():
    done = run_script("convergence_study.py", "--sizes", "64", "128", "256")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["64", "128", "256"]
    # the first row has no predecessor; the solver is fourth order
    orders = [float(row[-1]) for row in rows[1:]]
    assert all(3.5 <= order <= 4.5 for order in orders), done.stdout


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_compare_verdicts():
    compare = load_script("ab.py").compare
    parent = [100.0, 80.0, 120.0, 90.0, 110.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    # the parent's Q3 - Q1 is 17.5, above a 0.1 bound of its median 100
    tight = compare(parent, [p + 1 for p in parent], "higher", 0.1)
    assert tight["unresolved"] and not tight["gain_shown"]
    assert tight["change_better_pairs"] == 10 and tight["within_bound"]
    # every change run above every parent run: resolved, and a gain
    apart = compare(parent, [140.0 + i for i in range(10)], "higher", 0.1)
    assert not apart["unresolved"] and apart["gain_shown"]
    # the same series when lower is better: every change run is worse
    worse = compare(parent, [140.0 + i for i in range(10)], "lower", 0.1)
    assert worse["unresolved"] and not worse["within_bound"]
    assert worse["change_better_pairs"] == 0
    # a lower-is-better metric whose change runs all sit below the parent's
    below = compare(parent, [60.0 - i for i in range(10)], "lower", 0.1)
    assert not below["unresolved"] and below["gain_shown"]
    # one change run tied with a parent run leaves the spread unresolved
    touching = compare(parent, [130.0] + [140.0] * 9, "higher", 0.1)
    assert touching["unresolved"]
    # paired rounds (ops) that drift together: the per-side quartiles are wide,
    # yet each round reads the change 2% higher
    drift = [1276.0, 977.0, 759.0, 1179.0, 1020.0, 880.0, 1230.0, 800.0, 1100.0, 950.0]
    steady = [1.02 * p for p in drift]
    alone = compare(drift, steady, "higher", 0.1)
    assert alone["unresolved"] and not alone["gain_shown"] and "round_ratio" not in alone
    paired = compare(drift, steady, "higher", 0.1, paired=True)
    assert not paired["unresolved"] and paired["gain_shown"] and paired["within_bound"]
    assert paired["round_ratio"]["median"] == paired["round_ratio"]["q1"] == 1.02
    # a paired change 30% lower in each round is outside a 0.2 bound
    assert not compare(drift, [0.7 * p for p in drift], "higher", 0.2, paired=True)["within_bound"]


def run_ab(target: str, parent: str, *args: str) -> tuple[int, dict]:
    """Exit code and JSON report of scripts/ab.py, the change side this tree."""
    done = run_script("ab.py", target, parent, str(SCRIPTS.parent), *args)
    assert done.returncode in (0, 1), done.stderr
    return done.returncode, json.loads(done.stdout)


def assert_a_against_itself(target: str, *args: str) -> dict:
    code, report = run_ab(target, str(SCRIPTS.parent), *args)
    assert code == 0
    [case] = report["end_to_end"].values()
    assert case["pairs"] == 2 and case["failed"] == {"parent": 0, "change": 0}
    assert min(case["attempted"].values()) > 0
    assert not any(verdict["gain_shown"] for verdict in case["metrics"].values())
    return case


def test_ab_workload_a_against_itself():
    case = assert_a_against_itself("workload", "--workloads", "assoc", "--pairs", "2",
                                   "--seconds", "0.5")
    assert case["seeds"] == [1, 2]
    assert set(case["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
                                    "peak_rss_mb"}


def test_ab_ops_a_against_itself():
    case = assert_a_against_itself("ops", "--workloads", "transport", "--pairs", "2",
                                   "--cycles", "1")
    assert set(case["metrics"]) == {"ops_per_s"}
    # the verdicts rest on each round's change/parent ratio
    verdict = case["metrics"]["ops_per_s"]
    ratios = [c / p for p, c in zip(verdict["parent"]["runs"], verdict["change"]["runs"])]
    assert verdict["round_ratio"]["runs"] == pytest.approx(ratios, rel=1e-3)
    assert verdict["round_ratio"]["q1"] <= verdict["round_ratio"]["median"] <= verdict[
        "round_ratio"]["q3"]
    # one untimed round of the stream a side, then each op of it once a round
    assert case["attempted"]["parent"] == case["attempted"]["change"]
    assert case["attempted"]["parent"] % 3 == 0


def test_exact_commands_load_no_numpy():
    """numpy loads for `wkb solve1d` alone, the one command on the grid tier."""
    src = str(Path(starquant.__file__).resolve().parents[1])
    hierarchy = ("['wkb', 'hierarchy', '--ham', 'p^2+1-q^2', '--action', 'q^2/2', "
                 "'--energy', '1', '--order', '3']")
    solve = ("['wkb', 'solve1d', '--sprime-expr', 'q', '--interval', '1', '2', "
             "'--samples', '65', '--order', '1', '--bc', '1']")
    code = ("import sys\n"
            "import starquant\n"
            "assert 'numpy' not in sys.modules, 'import starquant'\n"
            "import starquant.cli\n"
            "assert 'numpy' not in sys.modules, 'import starquant.cli'\n"
            "assert starquant.cli.main(['star', 'q', 'p']) == 0\n"
            "assert 'numpy' not in sys.modules, 'starquant star q p'\n"
            "starquant.eigenproblem_hierarchy\n"
            "assert 'numpy' not in sys.modules, 'starquant.eigenproblem_hierarchy'\n"
            f"assert starquant.cli.main({hierarchy}) == 0\n"
            "assert 'numpy' not in sys.modules, 'pretty wkb hierarchy'\n"
            f"assert starquant.cli.main({hierarchy} + ['--json']) == 0\n"
            "assert 'numpy' not in sys.modules, 'wkb hierarchy --json'\n"
            f"assert starquant.cli.main({solve}) == 0\n"
            "assert 'numpy' in sys.modules, 'wkb solve1d'\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("q*p + i/2*lambda\nD_0 = 0\n")


def test_only_json_grids_load_orjson():
    """orjson loads in the one place it writes: a float grid under --json."""
    src = str(Path(starquant.__file__).resolve().parents[1])
    solve = ("['wkb', 'solve1d', '--sprime-expr', 'q', '--interval', '1', '2', "
             "'--samples', '65', '--order', '1', '--bc', '1']")
    code = ("import sys\n"
            "import starquant.cli\n"
            "assert 'orjson' not in sys.modules, 'import starquant.cli'\n"
            "assert starquant.cli.main(['star', 'q', 'p']) == 0\n"
            "assert 'orjson' not in sys.modules, 'starquant star q p'\n"
            f"assert starquant.cli.main({solve}) == 0\n"
            "assert 'orjson' not in sys.modules, 'pretty wkb solve1d'\n"
            f"assert starquant.cli.main({solve} + ['--json']) == 0\n"
            "assert 'orjson' in sys.modules, 'wkb solve1d --json'\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    package = Path(starquant.__file__).resolve().parent
    imported = set().union(*map(imported_modules, package.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"starquant"}
    pyproject = tomllib.loads((SCRIPTS.parent / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0]
                for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared == {"numpy", "orjson"}


def numpy_import_scopes(path: Path) -> set[str]:
    """Where one source file imports numpy: its module or a dotted function name."""
    scopes = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                if any(alias.name.split(".")[0] == "numpy" for alias in child.names):
                    scopes.add(scope)
            elif isinstance(child, ast.ImportFrom):
                if child.level == 0 and child.module.split(".")[0] == "numpy":
                    scopes.add(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    visit(ast.parse(path.read_text()), path.stem)
    return scopes


def test_numpy_is_imported_only_by_the_grid_tier():
    package = Path(starquant.__file__).resolve().parent
    scopes = set().union(*map(numpy_import_scopes, package.glob("*.py")))
    assert scopes == {"wkb", "cli._cmd_wkb_solve1d"}


def budget_refusals(path: Path) -> list[ast.Call]:
    """The ``BudgetExceeded(...)`` calls of one source file."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "BudgetExceeded"]


def test_every_budget_refusal_passes_its_four_values():
    # BudgetExceeded(priced, count, limit, unit) words every refusal once, so
    # a call passes what was priced, its count, the limit and a literal unit,
    # never a message of its own
    package = Path(starquant.__file__).resolve().parent
    calls = [(path.name, call) for path in sorted(package.glob("*.py"))
             for call in budget_refusals(path)]
    assert len(calls) >= 12
    for name, call in calls:
        where = f"{name}:{call.lineno}"
        assert len(call.args) == 4 and not call.keywords, where
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        _, count, limit, unit = call.args
        for number in (count, limit):
            assert not isinstance(number, ast.JoinedStr), where
            assert not (isinstance(number, ast.Constant) and isinstance(number.value, str)), where
        assert isinstance(unit, ast.Constant) and isinstance(unit.value, str), where


def test_a_refusal_prints_counts_of_any_size():
    # from 10^15 a count is shown in .3g form; past 1e308 it has no float
    # form, and past the interpreter's digit limit no decimal one either
    for count, shown in ((65, "65"), (10 ** 15 - 1, "999999999999999"), (10 ** 15, "1e+15"),
                         (10 ** 5000, "1e+300")):
        error = starquant.BudgetExceeded("a call", count, 64, "units")
        assert str(error) == f"a call: {shown} units, over the limit of 64"
        assert (error.priced, error.count, error.limit, error.unit) == ("a call", count, 64,
                                                                        "units")


def test_ab_cli_a_against_itself():
    case = assert_a_against_itself("cli", "--pairs", "2", "--", "star", "q", "p")
    assert set(case["metrics"]) == {"wall_s", "peak_rss_mb"}
    assert case["attempted"] == {"parent": 2, "change": 2}


def test_ab_cli_exits_1_when_the_outputs_differ(tmp_path):
    # a parent whose CLI prints another line; the first run is the parent's, so both
    # change runs differ from it
    (tmp_path / "src" / "starquant").mkdir(parents=True)
    (tmp_path / "src" / "starquant" / "__init__.py").write_text("")
    (tmp_path / "src" / "starquant" / "cli.py").write_text("def main():\n    print('x')\n")
    code, report = run_ab("cli", str(tmp_path), "--pairs", "2", "--", "star", "q", "p")
    assert code == 1
    [case] = report["end_to_end"].values()
    assert case["failed"] == {"parent": 0, "change": 2}
