import io
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import resilient_consensus
from resilient_consensus import ADAPTIVE, NOMINAL, SimConfig, simulate, verify_theorem, write_trajectory_csv
from resilient_consensus import cli as cli_module
from resilient_consensus.cli import main
from resilient_consensus.scenario import (
    MAX_SCENARIO_BYTES,
    build_run_report,
    dump_report,
    load_scenario,
    parse_scenario,
    read_scenario,
    stability_report_dict,
)
from resilient_consensus.errors import ConsensusToolkitError, ScenarioError
from resilient_consensus.graph import (
    EDGE_LIST_LINE_CHARS,
    MAX_NODES,
    complete_graph,
    from_edge_list,
    format_edge_list,
    load_edge_list,
    parse_edge_list,
    path_graph,
    random_connected_graph,
)

P2_EDGES = "2 1\n0 1\n"
DEMO = Path(__file__).resolve().parents[1] / "demo"
DEMO_GRAPH = str(DEMO / "p2.txt")
DEMO_SCENARIO = str(DEMO / "adaptive_p2.yaml")


def run_fresh(*args, stdin=None):
    """``python *args`` in a fresh interpreter that finds this package, fed
    the text stdin, if given, through a pipe."""
    src = str(Path(resilient_consensus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=120)


def main_then_modules(*packages):
    """For ``python -c``: run ``cli.main`` on the arguments, then print to
    stderr the modules of the named top-level packages the run imported."""
    return f"""
import sys
from resilient_consensus.cli import main
code = main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.split(".")[0] in {packages!r}), file=sys.stderr)
sys.exit(code)
"""


MAIN_THEN_SCIPY_MODULES = main_then_modules("scipy")


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text(P2_EDGES)
    return str(path)


def write_scenario(tmp_path, name="scenario.yaml", **overrides):
    doc = {
        "schema": 1,
        "protocol": "adaptive",
        "alpha": 1.0,
        "dt": 0.01,
        "t_final": 40.0,
        "x0": [0.0, 0.0],
        "w": [1.0, 0.0],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


class TestScenarioParsing:
    def test_minimal_nominal(self, p2):
        sc = parse_scenario(
            {"schema": 1, "protocol": "nominal", "x0": [1.0, -1.0]}, p2
        )
        assert sc.config.protocol == "nominal"
        assert np.array_equal(sc.w, [0.0, 0.0])
        assert sc.config.t_final == pytest.approx(10.0)  # 20 / lambda_2

    def test_schema_required(self, p2):
        with pytest.raises(ScenarioError):
            parse_scenario({"protocol": "nominal", "x0": [0.0, 0.0]}, p2)

    def test_length_mismatch(self, p2):
        with pytest.raises(ScenarioError):
            parse_scenario(
                {"schema": 1, "protocol": "nominal", "x0": [0.0, 0.0, 0.0]}, p2
            )

    def test_adaptive_needs_alpha(self, p2):
        with pytest.raises(ScenarioError):
            parse_scenario({"schema": 1, "protocol": "adaptive", "x0": [0.0, 0.0]}, p2)

    def test_x_hat0_override_flagged(self, p2):
        sc = parse_scenario(
            {
                "schema": 1,
                "protocol": "adaptive",
                "alpha": 1.0,
                "x0": [1.0, 0.0],
                "x_hat0": [0.0, 0.0],
                "t_final": 1.0,
            },
            p2,
        )
        assert sc.x_hat0_overridden


class TestSimulateCommand:
    def test_nominal_consensus(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(
            tmp_path, protocol="nominal", alpha=None, x0=[1.0, -1.0], w=[0.0, 0.0],
            t_final=10.0,
        )
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        out_text = capsys.readouterr().out
        report = yaml.safe_load(out_text.split(")\n", 1)[1].split("trajectory written")[0])
        assert report["consensus_error_final"] <= 1e-6

    def test_adaptive_recovery(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        report = yaml.safe_load(text.split(")\n", 1)[1].split("trajectory written")[0])
        assert report["what_error_inf_final"] <= 1e-4
        assert report["stability_verdict"] is True

    def test_malformed_edge_list(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 zebra\n")
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "simulate",
                "--graph",
                str(bad),
                "--scenario",
                scenario,
                "--out",
                str(tmp_path / "t.csv"),
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_scenario_names_its_graph(self, tmp_path, p2_file):
        # graph: is resolved against the scenario's directory, not the cwd
        scenario = write_scenario(tmp_path, graph="p2.txt", t_final=1.0)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        assert out.exists()

    def test_graph_flag_overrides_scenario(self, tmp_path, p2_file):
        scenario = write_scenario(tmp_path, graph="missing.txt", t_final=1.0)
        out = str(tmp_path / "t.csv")
        argv = ["simulate", "--scenario", scenario, "--out", out]
        assert main(argv) == 1
        assert main(argv + ["--graph", p2_file]) == 0

    def test_non_path_graph_field(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, graph=3, t_final=1.0)
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "t.csv")]) == 1
        assert "graph must be a file path" in capsys.readouterr().err

    def test_missing_graph(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, t_final=1.0)
        assert main(["simulate", "--scenario", scenario, "--out", str(tmp_path / "t.csv")]) == 1
        assert "no graph file given" in capsys.readouterr().err

    def test_overrides_match_scenario_values(self, tmp_path, p2_file, capsys):
        # --dt/--t-final give the same bytes as the same values in the scenario
        def run(name, argv, **values):
            scenario = write_scenario(tmp_path, name=f"{name}.yaml", **values)
            out = tmp_path / f"{name}.csv"
            main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out), *argv])
            report = capsys.readouterr().out.split(")\n", 1)[1].split("trajectory written")[0]
            return out.read_bytes(), report

        assert run("a", ["--dt", "0.02", "--t-final", "2.0"]) == run("b", [], dt=0.02, t_final=2.0)


class TestScalarValidation:
    """Every bad scalar ends in exit 1 and a message naming the field."""

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-1"])
    def test_verify_alpha(self, p2_file, capsys, alpha):
        assert main(["verify", "--graph", p2_file, f"--alpha={alpha}"]) == 1
        assert "alpha must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", float("nan"), "alpha must be finite"),
            ("alpha", float("inf"), "alpha must be finite"),
            ("alpha", -1.0, "alpha must be positive"),
            ("dt", "abc", "dt must be a number"),
            ("dt", float("nan"), "dt must be finite"),
            ("t_final", float("inf"), "t_final must be finite"),
            ("x0", [True, False], "x0[0] must be a number"),
            ("w", [1.0, True], "w[1] must be a number"),
            ("x0", "abc", "x0 must be a list"),
        ],
    )
    def test_scenario_field(self, tmp_path, p2_file, capsys, field, value, message):
        scenario = write_scenario(tmp_path, **{field: value})
        out = tmp_path / "t.csv"
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "x0, message",
        [
            # beyond the float range: read as inf
            ("[1" + "0" * 400 + ", 0]", "x0[0] must be finite"),
            # over Python's 4300-digit limit for int(str), in the YAML reader
            ("[" + "1" * 5000 + ", 0]", "cannot parse scenario"),
        ],
    )
    def test_huge_integer(self, tmp_path, p2_file, capsys, x0, message):
        path = tmp_path / "big.yaml"
        path.write_text(f"schema: 1\nprotocol: nominal\ndt: 0.1\nt_final: 1.0\nx0: {x0}\n")
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--graph", p2_file, "--scenario", str(path), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_numeric_string_accepted(self, p2):
        # PyYAML reads 1e-2 (no dot) as a string
        raw = yaml.safe_load("schema: 1\nprotocol: adaptive\nalpha: 1e0\ndt: 1e-2\nt_final: 1\nx0: [0, 1]\n")
        cfg = parse_scenario(raw, p2).config
        assert (cfg.alpha, cfg.dt, cfg.t_final) == (1.0, 0.01, 1.0)

    @pytest.mark.parametrize("argv", [["--dt", "nan"], ["--t-final", "inf"]])
    def test_override_flags(self, tmp_path, p2_file, capsys, argv):
        scenario = write_scenario(tmp_path)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", out, *argv]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_sweep_alpha(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, t_final=1.0)
        argv = ["sweep", "--graph", p2_file, "--scenario", scenario, "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--alpha", "1", "nan"]) == 1
        assert "alpha must be finite" in capsys.readouterr().err


class TestStepSizePreflight:
    """simulate rejects a dt at which RK4 amplifies a closed-loop mode."""

    def test_adaptive_stiff_gain(self, tmp_path, p2_file, capsys):
        # the error modes -1/2 +- i sqrt(1e6 - 1/4) leave RK4's region at dt = 0.1
        scenario = write_scenario(tmp_path, alpha=1e6, dt=0.1, t_final=10.0)
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "outside RK4's stability region" in err
        assert "-0.5-1000j" in err and "|R(dt mu)| = 4.16492e+06" in err
        assert not out.exists()

    def test_nominal(self, tmp_path, p2_file, capsys):
        # -lambda_2 = -2 and dt = 1.5 give R(-3) = 1.375
        scenario = write_scenario(tmp_path, protocol="nominal", alpha=None, dt=1.5, t_final=15.0)
        out = str(tmp_path / "t.csv")
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", out]) == 1
        assert "|R(dt mu)| = 1.375 > 1" in capsys.readouterr().err

    def test_sweep_checks_each_gain(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, dt=0.1, t_final=10.0)
        argv = ["sweep", "--graph", p2_file, "--scenario", scenario, "--out", str(tmp_path / "s.csv")]
        assert main(argv + ["--alpha", "1", "4"]) == 0
        assert main(argv + ["--alpha", "1", "1e6"]) == 1
        assert "outside RK4's stability region" in capsys.readouterr().err

    def test_overflowing_gain_prints_only_the_error(self, tmp_path, capsys):
        # at alpha = 1e308 the polynomial R(dt mu) overflows: gain inf, no warning
        argv = ["sweep", "--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO, "--alpha", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: dt=0.01 is outside RK4's stability region: the closed-loop mode "
            "-0.5-1e+154j has |R(dt mu)| = inf > 1\n"
        )

    def test_step_inside_region_runs(self, tmp_path, p2_file):
        # nominal: -lambda_2 = -2 stays inside the region up to dt ~ 1.39
        scenario = write_scenario(tmp_path, protocol="nominal", alpha=None, dt=1.3, t_final=13.0)
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(tmp_path / "t.csv")]) == 0


class TestRunSizeBudget:
    """simulate rejects a run whose (steps + 1) x 3n trajectory exceeds the
    budget before it allocates it, and analyze before it reads one."""

    @pytest.mark.parametrize(
        "dt, t_final, steps", [(0.01, 1.0e300, "1e+302 steps"), (1e-3, 1e9, "1e+12 steps")]
    )
    def test_too_many_steps(self, tmp_path, p2_file, capsys, dt, t_final, steps):
        scenario = write_scenario(tmp_path, dt=dt, t_final=t_final)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "run too large" in err and steps in err and "(n=2)" in err and "bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize("dt, t_final", [(0.01, 1.0e8), (1e-300, 1e300)])
    def test_analyze_applies_the_budget_before_opening_the_csv(self, tmp_path, p2_file, capsys, dt, t_final):
        # analyze rejects the scenario simulate rejects, with the same
        # message, before it opens the CSV: a path that does not exist gets
        # the budget message, not a file error
        scenario = write_scenario(tmp_path, dt=dt, t_final=t_final)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]) == 1
        simulate_err = capsys.readouterr().err
        assert "run too large" in simulate_err and not out.exists()
        assert main(["analyze", "--trajectory", str(out), "--graph", p2_file, "--scenario", scenario]) == 1
        assert capsys.readouterr().err == simulate_err


class TestScenarioSizeBudget:
    """A scenario file over ``MAX_SCENARIO_BYTES`` is rejected before it is
    parsed; the largest legitimate scenario, four vectors of ``MAX_NODES``
    numbers of the longest form Python writes, parses even when padded to
    the budget."""

    @staticmethod
    def padded(tmp_path, size):
        nums = ", ".join([repr(-1.2345678901234567e-300)] * MAX_NODES)
        body = "schema: 1\nprotocol: adaptive\nalpha: 1.0\nt_final: 1.0\n"
        body += "".join(f"{key}: [{nums}]\n" for key in ("x0", "w", "x_hat0", "w_hat0"))
        assert len(body) < 0.4 * MAX_SCENARIO_BYTES
        path = tmp_path / "largest.yaml"
        path.write_text(body + "#" * (size - len(body) - 1) + "\n", encoding="utf-8")
        assert path.stat().st_size == size
        return path

    def test_largest_scenario_at_the_budget_parses(self, tmp_path):
        raw = read_scenario(self.padded(tmp_path, MAX_SCENARIO_BYTES))
        sc = parse_scenario(raw)
        assert len(sc.w) == MAX_NODES and sc.config.x0[-1] == -1.2345678901234567e-300

    @pytest.mark.parametrize("case", ["one byte over", "2 M entries"])
    def test_over_the_budget_rejected_before_parsing(self, tmp_path, p2_file, capsys, case):
        # libyaml held 837 MB for a scenario of 2 M entries (8 MB) before the
        # vector's length could be checked
        if case == "one byte over":
            path = self.padded(tmp_path, MAX_SCENARIO_BYTES + 1)
        else:
            path = tmp_path / "huge.yaml"
            path.write_text("schema: 1\nprotocol: nominal\nx0: [" + "0, " * 2_000_000 + "0]\n")
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match="over the size budget"):
                read_scenario(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        argv = ["simulate", "--graph", p2_file, "--scenario", str(path), "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: scenario {path} is over the size budget of {MAX_SCENARIO_BYTES} bytes\n"
        )


class TestDeepScenario:
    """A scenario that nests a collection deeper than the schema's two
    levels (its mapping and the mapping's lists) is rejected from the
    parser's events, before anything is composed: at depth 30 000 libyaml's
    composer crashed the process (SIGSEGV)."""

    DEEP = {
        "flow": "schema: 1\nprotocol: adaptive\nalpha: 1.0\nt_final: 1.0\nx0: " + "[" * 30_000 + "]" * 30_000 + "\n",
        "block": "schema: 1\nprotocol: adaptive\nx0:\n" + "- " * 30_000 + "1\n",
    }

    @pytest.mark.parametrize("case", sorted(DEEP))
    def test_depth_30000_exits_1_at_once(self, tmp_path, p2_file, case):
        path = tmp_path / "deep.yaml"
        path.write_text(self.DEEP[case])
        argv = ["simulate", "--graph", p2_file, "--scenario", str(path), "--out", str(tmp_path / "t.csv")]
        start = time.perf_counter()
        proc = run_fresh("-m", "resilient_consensus.cli", *argv)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == 1
        assert proc.stderr == f"error: scenario {path} nests collections more than 2 deep\n"

    @pytest.mark.parametrize(
        "text", ["x0: [[0.0, 1.0]]\n", "x0:\n  - [0.0]\n  - 1.0\n", "w: [{a: 1}]\n", "schema: {a: [1]}\n"]
    )
    def test_third_level_rejected(self, tmp_path, text):
        path = tmp_path / "deep.yaml"
        path.write_text("schema: 1\nprotocol: adaptive\nalpha: 1.0\n" + text)
        with pytest.raises(ScenarioError, match="nests collections more than 2 deep$"):
            read_scenario(path)

    def test_two_levels_and_parse_errors_load_as_before(self, tmp_path):
        # the mapping and its lists load; a syntax error deeper in the file
        # is still the parser's own message
        path = tmp_path / "ok.yaml"
        path.write_text("schema: 1\nprotocol: adaptive\nx0: [0.0, 1.0]\nw:\n  - 1.0\n  - 0.0\n")
        assert read_scenario(path)["w"] == [1.0, 0.0]
        path.write_text("schema: 1\nx0: [0.0, 1.0\n")
        with pytest.raises(ScenarioError, match="^cannot parse scenario "):
            read_scenario(path)
        assert read_scenario(DEMO_SCENARIO)["protocol"] == "adaptive"


class TestNumericalBlowup:
    def test_overflow_exits_3_with_clean_stderr(self, tmp_path, p2_file):
        # the state itself overflows at t = 0.1; in a fresh interpreter, so
        # stderr is exactly what a user sees
        big = [1.7e308, 1.7e308]
        scenario = write_scenario(tmp_path, dt=0.1, t_final=2.0, x0=big, w=big)
        out = tmp_path / "t.csv"
        argv = ["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)]
        proc = run_fresh("-m", "resilient_consensus.cli", *argv)
        assert proc.returncode == 3
        assert proc.stderr == "error: non-finite state encountered at t=0.1\n"
        assert not out.exists()


class TestNonFiniteReport:
    """A finite trajectory whose run report overflows is a numerical
    failure: exit 3 with one line naming the values, and no numpy warning."""

    MESSAGE = (
        "error: non-finite run report value: "
        "decay_rate_fit, energy_max_increase, perturbation_bound, sup_xtilde\n"
    )

    def test_simulate_and_analyze(self, tmp_path, p2, p2_file, capsys):
        # x_tilde = x - x_hat and w_tilde = w_hat - w overflow, the state does not
        scenario = write_scenario(tmp_path, dt=0.1, t_final=1.0, x0=[0.0, 1e308], w=[-1e308, 1e308])
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)])
            simulated = capsys.readouterr()
            assert not out.exists()  # the report is built before the CSV is written
            sc = load_scenario(scenario, p2)
            write_trajectory_csv(simulate(p2, sc.config, sc.w), out)
            analyzed_code = main(
                ["analyze", "--trajectory", str(out), "--graph", p2_file, "--scenario", scenario]
            )
            analyzed = capsys.readouterr()
        assert code == analyzed_code == 3
        assert simulated.err == analyzed.err == self.MESSAGE
        assert simulated.out == analyzed.out == ""

    def test_sweep(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, dt=0.1, t_final=1.0, x0=[0.0, 1e308], w=[-1e308, 1e308])
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--graph", p2_file, "--scenario", scenario, "--alpha", "1", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == self.MESSAGE
        assert not out.exists()


class TestOutPath:
    """An --out that cannot be written is reported before the first
    integration, exit 1 with one error line, and nothing is created."""

    @pytest.fixture
    def no_integration(self, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated before --out was checked")

        monkeypatch.setattr(cli_module, "simulate", integrate)

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("out", ["a directory", "missing/out.csv", "a file/out.csv"])
    def test_rejected_before_the_run(self, tmp_path, p2_file, no_integration, capsys, command, out):
        (tmp_path / "a directory").mkdir()
        (tmp_path / "a file").write_text("")
        path = tmp_path / out
        argv = [command, "--graph", p2_file, "--scenario", write_scenario(tmp_path, t_final=1.0), "--out", str(path)]
        if command == "sweep":
            argv += ["--alpha", "1", "4"]
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(path)!r}\n") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_sweep_failing_at_a_later_gain_leaves_no_file(self, tmp_path, p2_file, capsys):
        # |R(dt mu)| overflows at the second gain, after the check passed
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--graph", p2_file, "--scenario", write_scenario(tmp_path, t_final=1.0)]
        assert main(argv + ["--alpha", "1", "1e308", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def run_limited(*args, limit=2**30):
    """``python *args`` as ``run_fresh`` runs it, under an address-space
    limit (``RLIMIT_AS``), so that a read that grows without bound ends in
    a MemoryError instead of exhausting the machine."""
    src = str(Path(resilient_consensus.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


class TestUnboundedEdgeList:
    """An edge list with no line end in sight is rejected at its first
    over-long line, in a process that cannot grow past 1 GiB."""

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_dev_zero(self):
        proc = run_limited("-m", "resilient_consensus.cli", "verify", "--graph", "/dev/zero", "--alpha", "1")
        assert proc.returncode == 1
        assert proc.stderr == f"error: line 1: line longer than {EDGE_LIST_LINE_CHARS} characters\n"

    def test_over_long_line(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("3 2\n0 1\n# " + "c" * EDGE_LIST_LINE_CHARS + "\n1 2\n")
        proc = run_limited("-m", "resilient_consensus.cli", "verify", "--graph", str(path), "--alpha", "1")
        assert proc.returncode == 1
        assert proc.stderr == f"error: line 3: line longer than {EDGE_LIST_LINE_CHARS} characters\n"

    def test_line_at_the_limit(self, tmp_path):
        path = tmp_path / "at_limit.txt"
        path.write_text("3 2\n0 1\n#" + "c" * (EDGE_LIST_LINE_CHARS - 1) + "\n1 2\n")
        proc = run_limited("-m", "resilient_consensus.cli", "verify", "--graph", str(path), "--alpha", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("VERDICT: exponentially stable\n")


class TestNotUtf8:
    """An input file that is not UTF-8 text is an input error (exit 1)."""

    @pytest.fixture
    def not_utf8(self, tmp_path):
        path = tmp_path / "utf16.bin"
        path.write_bytes(b"\xff\xfe2\x001\x00")
        return str(path)

    def test_edge_list(self, not_utf8, capsys):
        assert main(["verify", "--graph", not_utf8, "--alpha", "1"]) == 1
        assert capsys.readouterr().err == "error: line 1: not UTF-8 text (invalid start byte)\n"

    def test_scenario(self, not_utf8, p2_file, tmp_path, capsys):
        argv = ["simulate", "--graph", p2_file, "--scenario", not_utf8, "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: cannot read scenario ")

    def test_trajectory_csv(self, not_utf8, p2_file, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        argv = ["analyze", "--trajectory", not_utf8, "--graph", p2_file, "--scenario", scenario]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: trajectory CSV is not UTF-8 text (invalid start byte)\n"


class TestUsageErrors:
    """A command line argparse rejects is an input error: exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--graph", "g.txt", "--alpha", "abc"],
            ["verify", "--graph", "g.txt"],
            ["verify", "--graph", "g.txt", "--alpha", "1", "--tol", "5"],
            [],
        ],
    )
    def test_exit_1(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--tol" not in capsys.readouterr().out


class TestOneComputationPerGraph:
    """Every command makes one connectivity search, one adjacency build and
    one Laplacian eigensolve for its graph, however many consumers read them."""

    @pytest.fixture
    def p5(self, tmp_path):
        graph = tmp_path / "p5.txt"
        graph.write_text(format_edge_list(path_graph(5)))
        # no t_final: the default horizon 20 / lambda_2 reads the spectrum too
        doc = {"schema": 1, "protocol": "adaptive", "alpha": 1.0, "dt": 0.05,
               "x0": [0.0] * 5, "w": [1.0, 0.0, 0.0, 0.0, 0.0]}
        scenario = tmp_path / "p5.yaml"
        scenario.write_text(yaml.safe_dump(doc))
        return ["--graph", str(graph), "--scenario", str(scenario)]

    @pytest.fixture
    def builds(self, monkeypatch, count_builds):
        shapes = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        return {
            "eigvalsh": shapes,
            "connected": count_builds("connected"),
            "adjacency": count_builds("adjacency"),
        }

    def test_sweep(self, tmp_path, p5, builds):
        argv = ["sweep", *p5, "--alpha", "0.5", "1", "4", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert builds == {"eigvalsh": [(5, 5)], "connected": [5], "adjacency": [5]}

    def test_simulate(self, tmp_path, p5, builds):
        assert main(["simulate", *p5, "--out", str(tmp_path / "t.csv")]) == 0
        assert builds == {"eigvalsh": [(5, 5)], "connected": [5], "adjacency": [5]}

    def test_verify(self, p5, builds):
        assert main(["verify", *p5[:2], "--alpha", "1"]) == 0
        assert builds == {"eigvalsh": [(5, 5)], "connected": [5], "adjacency": [5]}


class TestVerifyCommand:
    def test_huge_node_count_without_edges(self, tmp_path, capsys):
        # a connected graph on 3e6 nodes needs 3e6 - 1 edges: answered at once
        path = tmp_path / "huge.txt"
        path.write_text("3000000 1\n0 1\n")
        assert main(["verify", "--graph", str(path), "--alpha", "1.0"]) == 1
        assert "graph not connected" in capsys.readouterr().err

    def test_node_budget_under_address_space_limit(self, tmp_path):
        # a connected 10^5-node path would need an 80 GB dense adjacency; under
        # a 2 GB address-space limit the run ends in one error line, exit 1
        n = 100_000
        path = tmp_path / "path.txt"
        path.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        # one BLAS thread, so per-thread buffers do not count against the limit
        limit = (
            "import os, resource; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
            "resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)"
        )
        run_main = "from resilient_consensus.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = run_fresh(
            "-c", f"import sys; {limit}; {run_main}", "verify", "--graph", str(path), "--alpha", "1.0"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: line 1: n={n} is over the node budget")
        assert line.endswith("times its time at the budget")

    def test_p2(self, p2_file, capsys):
        code = main(["verify", "--graph", p2_file, "--alpha", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        report = yaml.safe_load(out.split(")\n", 1)[1].split("VERDICT")[0])
        assert report["spectral_abscissa"] == pytest.approx(-0.5, abs=1e-9)
        assert report["theorem_verdict"] is True

    def test_tiny_gain_not_certified(self, p2_file, capsys):
        # the slow roots are about -alpha / d = -1e-9: stable, but not below -tol
        assert main(["verify", "--graph", p2_file, "--alpha", "1e-9"]) == 2
        captured = capsys.readouterr()
        report = yaml.safe_load(captured.out.split(")\n", 1)[1])
        assert -report["tol"] < report["spectral_abscissa"] < 0
        assert captured.err == "VERDICT: not certified at tol=1e-08\n"

    @pytest.mark.parametrize(
        "alpha, code",
        [("1e-12", 2), ("1e-9", 2), ("1e9", 0), ("1e16", 0), ("1e30", 0), ("1e300", 0), ("1e308", 0)],
    )
    def test_inertia_at_extreme_gains(self, p2_file, capsys, alpha, code):
        # the prediction takes the exact coefficients, and the roots of E are
        # counted against the 2x2 solves' error, not against a scale of alpha.
        # From alpha of about (d / (2 dim eps))^2 = 1.3e30 on p2 (dim = 2)
        # that error swamps the real parts -1/2: the observed inertia is null,
        # and the closed-form verdict stands
        assert main(["verify", "--graph", p2_file, "--alpha", alpha]) == code
        report = yaml.safe_load(capsys.readouterr().out.split(")\n", 1)[1])
        assert report["quadratic_inertia_predicted"] == [0, 0, 4]
        observed = [0, 0, 4] if float(alpha) < 1.3e30 else None
        assert report["quadratic_inertia_observed"] == observed

    def test_nonnegative_abscissa_contradicts_theorem(self, p2, p2_file, capsys, monkeypatch):
        import resilient_consensus.cli as cli

        unstable = replace(verify_theorem(p2, 1.0), spectral_abscissa=0.0, theorem_verdict=False)
        monkeypatch.setattr(cli, "verify_theorem", lambda g, alpha: unstable)
        assert main(["verify", "--graph", p2_file, "--alpha", "1.0"]) == 2
        assert capsys.readouterr().err == "VERDICT: unstable (theorem contradiction)\n"

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "disc.txt"
        path.write_text(format_edge_list(from_edge_list(4, [(0, 1), (2, 3)])))
        code = main(["verify", "--graph", str(path), "--alpha", "1.0"])
        assert code == 1
        assert "not connected" in capsys.readouterr().err

    def test_k3_large_alpha(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(format_edge_list(complete_graph(3)))
        assert main(["verify", "--graph", str(path), "--alpha", "10.0"]) == 0


class TestSweepCommand:
    def test_bound_column(self, tmp_path, p2_file):
        scenario = write_scenario(tmp_path, t_final=60.0)
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--graph",
                p2_file,
                "--scenario",
                scenario,
                "--alpha",
                "1",
                "4",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,sup_xtilde,bound,centroid_drift,decay_rate"
        rows = [line.split(",") for line in lines[1:]]
        bounds = [float(r[2]) for r in rows]
        assert bounds == pytest.approx([1.0, 0.5, 0.25])
        for r in rows:
            assert float(r[1]) <= float(r[2]) + 1e-9

    def test_empty_alpha_list(self, tmp_path, p2_file):
        scenario = write_scenario(tmp_path)
        code = main(
            [
                "sweep",
                "--graph",
                p2_file,
                "--scenario",
                scenario,
                "--alpha",
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == 1


class TestAnalyzeCommand:
    def test_round_trip_identical_report(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "traj.csv"
        assert (
            main(
                [
                    "simulate",
                    "--graph",
                    p2_file,
                    "--scenario",
                    scenario,
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        sim_out = capsys.readouterr().out
        sim_report = sim_out.split(")\n", 1)[1].split("trajectory written")[0]
        assert (
            main(
                [
                    "analyze",
                    "--trajectory",
                    str(out),
                    "--graph",
                    p2_file,
                    "--scenario",
                    scenario,
                ]
            )
            == 0
        )
        an_out = capsys.readouterr().out
        an_report = an_out.split(")\n", 1)[1]
        assert an_report == sim_report

    def test_truncated_csv(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, t_final=1.0)
        out = tmp_path / "traj.csv"
        main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines()
        truncated = tmp_path / "trunc.csv"
        truncated.write_text("\n".join(lines[:5])[:-7] + "\n")
        code = main(
            [
                "analyze",
                "--trajectory",
                str(truncated),
                "--graph",
                p2_file,
                "--scenario",
                scenario,
            ]
        )
        assert code == 1

    def analyze(self, trajectory, p2_file, scenario):
        return main(["analyze", "--trajectory", str(trajectory), "--graph", p2_file, "--scenario", scenario])

    def test_different_dt_rejected(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, t_final=1.0)
        out = tmp_path / "traj.csv"
        main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out), "--dt", "0.02"])
        capsys.readouterr()
        assert self.analyze(out, p2_file, scenario) == 1
        err = capsys.readouterr().err
        assert "51 samples, t from 0.0 to 1.0" in err
        assert "t_k = k * 0.01 for k = 0..round(1.0 / 0.01)" in err

    def test_cut_at_row_boundary_rejected(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, t_final=1.0)
        out = tmp_path / "traj.csv"
        main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)])
        capsys.readouterr()
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:60]))
        assert self.analyze(out, p2_file, scenario) == 1
        assert "59 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["0.0", "1_0"])
    def test_over_long_file_rejected_after_one_extra_row(self, tmp_path, capsys, field):
        # a 10-step scenario against a 20 001-row CSV of a 100-node run: the
        # reader stops one row past the grid, so it neither parses nor
        # holds the rest (a whole read peaks at over 48 MB here). A field
        # numpy rejects and float() accepts in that row sends the body to
        # the line scan, which stops there too
        n, dt = 100, 0.01
        graph = tmp_path / "path100.txt"
        graph.write_text(format_edge_list(path_graph(n)))
        scenario = write_scenario(tmp_path, dt=dt, t_final=10 * dt, x0=[0.0] * n, w=[0.0] * n)
        out = tmp_path / "traj.csv"
        zeros = ",0.0" * (3 * n)
        with open(out, "w") as fh:
            fh.write(",".join(["t"] + [f"{c}_{i}" for c in ("x", "xhat", "what") for i in range(n)]) + "\n")
            fh.writelines(f"{k * dt!r}{zeros if k != 11 else zeros[:-3] + field}\n" for k in range(20_001))
        tracemalloc.start()
        try:
            code = self.analyze(out, str(graph), scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "(more than 11 samples, t from 0.0 to 0.11)" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_non_numeric_field_rejected(self, tmp_path, p2_file, capsys):
        scenario = write_scenario(tmp_path, t_final=0.01)
        out = tmp_path / "traj.csv"
        out.write_text("t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n0.0,0,0,0,0,0,abc\n")
        assert self.analyze(out, p2_file, scenario) == 1
        assert "row 2 has a non-numeric field" in capsys.readouterr().err

    def test_nominal_disturbed_run_flags_disagreement(self, tmp_path, p2_file, capsys):
        # steady-state disagreement pinv(L) w on P2 with w = [1, -1] is 1
        scenario = write_scenario(
            tmp_path, protocol="nominal", alpha=None, x0=[0.0, 0.0], w=[1.0, -1.0],
            t_final=20.0,
        )
        out = tmp_path / "traj.csv"
        main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(out)])
        capsys.readouterr()
        main(
            [
                "analyze",
                "--trajectory",
                str(out),
                "--graph",
                p2_file,
                "--scenario",
                scenario,
            ]
        )
        report = yaml.safe_load(capsys.readouterr().out.split(")\n", 1)[1])
        assert report["consensus_error_final"] == pytest.approx(1.0, abs=1e-6)


    def test_long_row_rejected_with_its_number(self, tmp_path, p2_file, capsys):
        # an 8 MB body row is an input error naming the row, found before
        # the row is read whole
        scenario = write_scenario(tmp_path, t_final=0.05)
        out = tmp_path / "traj.csv"
        rows = [f"{k * 0.01!r},0.0,0.0,0.0,0.0,0.0,0.0\n" for k in range(6)]
        rows[3] = rows[3][:-1] + ",0.0" * 2_000_000 + "\n"
        out.write_text("t,x_0,x_1,xhat_0,xhat_1,what_0,what_1\n" + "".join(rows))
        assert self.analyze(out, p2_file, scenario) == 1
        assert capsys.readouterr().err == "error: trajectory CSV row 5 is longer than 448 characters\n"


def _edit_row(k, edit):
    """A case of TestAnalyzeCommand.test_same_outcome_with_one_cpu_and_two:
    line k of the CSV (the header is line 0) replaced by edit(line)."""
    return lambda lines: lines[:k] + [edit(lines[k])] + lines[k + 1 :]


#: Malformed (and two valid) bodies of a 1001-row p2 trajectory CSV, one
#: per way the reader must reject a file, in either half of the body.
ANALYZE_CASES = {
    "valid": lambda lines: lines,
    # the same time written 0_t, which float() reads and numpy rejects
    "0_t in the first half": _edit_row(3, lambda line: "0_" + line),
    "0_t in the second half": _edit_row(701, lambda line: "0_" + line),
    "truncated": lambda lines: lines[:5] + [lines[5][:-7]],
    "cut at a row boundary": lambda lines: lines[:600],
    "different dt": lambda lines: lines[:1] + lines[1::2],
    "over long": lambda lines: lines + [f"{k * 0.01!r}" + lines[-1][lines[-1].index(",") :] for k in range(1001, 1101)],
    "non-numeric field, first half": _edit_row(2, lambda line: line[:-4] + "abc\n"),
    "non-numeric field, second half": _edit_row(800, lambda line: line[:-4] + "abc\n"),
    "field numpy and float reject": _edit_row(900, lambda line: line[:-4] + "1e\n"),
    "wrong field count": _edit_row(900, lambda line: line[:-1] + ",0.0\n"),
    "empty line": lambda lines: lines[:900] + ["\n"] + lines[900:],
    "blank line": lambda lines: lines[:900] + ["  \n"] + lines[900:],
    "time off the grid": _edit_row(950, lambda line: "9.4" + line[line.index(",") :]),
    "not UTF-8": _edit_row(950, lambda line: line[:-1] + "\udcff\n"),
    "long row": _edit_row(950, lambda line: line[:-1] + ",0.0" * 200 + "\n"),
    "header": _edit_row(0, lambda line: line.replace("what_1", "w_1")),
    "carriage returns": lambda lines: [line[:-1] + "\r\n" for line in lines],
    "no final line end": lambda lines: lines[:-1] + [lines[-1][:-1]],
}


class TestAnalyzePipedTrajectory:
    """A trajectory that is not a regular file, such as a pipe, is read by
    the line scan: the same report as the file's, or the same error."""

    @pytest.mark.parametrize("extra_rows", [0, 3])
    def test_piped_trajectory_same_as_the_file(self, tmp_path, capsys, extra_rows):
        traj = tmp_path / "traj.csv"
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO]
        assert main(["simulate", *args, "--out", str(traj)]) == 0
        capsys.readouterr()
        lines = traj.read_text().splitlines(keepends=True)
        lines += [f"{80.0 + 0.01 * k!r}{lines[-1][lines[-1].index(','):]}" for k in range(1, extra_rows + 1)]
        traj.write_text("".join(lines))
        analyze = ["-m", "resilient_consensus.cli", "analyze", *args, "--trajectory"]
        from_file = run_fresh(*analyze, str(traj))
        piped = run_fresh(*analyze, "/dev/stdin", stdin="".join(lines))
        assert (piped.returncode, piped.stderr) == (from_file.returncode, from_file.stderr)
        # below the title line, which names the path
        assert piped.stdout.split("\n", 1)[1:] == from_file.stdout.split("\n", 1)[1:]
        if extra_rows:
            assert from_file.returncode == 1 and "(more than 8001 samples" in from_file.stderr
        else:
            assert from_file.returncode == 0 and from_file.stdout.startswith(f"# run report ({traj})")


class TestAnalyzeWithOneCpuAndTwo:
    """Every analyze outcome, report or error, is the same with one usable
    CPU (one process reads the CSV) and with two (the caller and a helper
    each read half of it)."""

    @pytest.mark.parametrize("case", sorted(ANALYZE_CASES))
    def test_same_outcome_with_one_cpu_and_two(self, tmp_path, p2_file, capsys, monkeypatch, usable_cpus, case):
        scenario = write_scenario(tmp_path, t_final=10.0)
        valid = tmp_path / "valid.csv"
        main(["simulate", "--graph", p2_file, "--scenario", scenario, "--out", str(valid)])
        capsys.readouterr()
        lines = valid.read_text().splitlines(keepends=True)
        out = tmp_path / "traj.csv"
        out.write_bytes("".join(ANALYZE_CASES[case](lines)).encode("utf-8", "surrogateescape"))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        outcomes = []
        for cpus in (1, 2):
            usable_cpus(cpus, chunk_values=7 * 50)  # 50 rows a chunk
            code = main(["analyze", "--trajectory", str(out), "--graph", p2_file, "--scenario", scenario])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        valid_cases = ("valid", "0_t in the first half", "0_t in the second half", "carriage returns", "no final line end")
        assert (outcomes[0][0] == 0) == (case in valid_cases)
        if case in valid_cases + ("not UTF-8", "time off the grid"):
            assert forks  # the two-CPU run forked its helper
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestNoScipyOnCertificatePath:
    """verify runs on numpy alone; analyze runs on numpy and PyYAML, and so
    do simulate and sweep on runs that take the map in error coordinates: a
    fresh interpreter running any of them on the demo imports no scipy
    module, and verify, which reads no scenario, imports no PyYAML module."""

    def test_verify(self):
        no_scipy_or_yaml = main_then_modules("scipy", "yaml", "_yaml")
        proc = run_fresh("-c", no_scipy_or_yaml, "verify", "--graph", DEMO_GRAPH, "--alpha", "1.0")
        assert proc.returncode == 0
        assert proc.stderr == "[]\n"
        assert proc.stdout.endswith("VERDICT: exponentially stable\n")

    def test_analyze(self, tmp_path, capsys):
        traj = str(tmp_path / "traj.csv")
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO]
        assert main(["simulate", *args, "--out", traj]) == 0
        simulated = capsys.readouterr().out
        proc = run_fresh("-c", MAIN_THEN_SCIPY_MODULES, "analyze", "--trajectory", traj, *args)
        assert proc.returncode == 0
        assert proc.stderr == "[]\n"
        report = proc.stdout.split(")\n", 1)[1]
        assert report == simulated.split(")\n", 1)[1].split("trajectory written")[0]

    def test_simulate(self, tmp_path):
        traj = tmp_path / "traj.csv"
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO, "--out", str(traj)]
        proc = run_fresh("-c", MAIN_THEN_SCIPY_MODULES, "simulate", *args)
        assert proc.returncode == 0
        assert proc.stderr == "[]\n"
        assert "stability_verdict: true" in proc.stdout
        assert traj.read_text().startswith("t,x_0,x_1,")

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO, "--alpha", "1", "4", "--out", str(out)]
        proc = run_fresh("-c", MAIN_THEN_SCIPY_MODULES, "sweep", *args)
        assert proc.returncode == 0
        assert proc.stderr == "[]\n"
        assert len(out.read_text().splitlines()) == 3


class TestFloatparseImportedByAnalyzeOnly:
    """Only the trajectory CSV reader imports ``floatparse``: a fresh
    interpreter running verify, simulate or sweep on the demo never loads
    it, and one running analyze on a trajectory file does."""

    PARSER = "resilient_consensus.floatparse"

    def modules(self, *args):
        proc = run_fresh("-c", main_then_modules("resilient_consensus"), *args)
        assert proc.returncode == 0
        return proc.stderr

    def test_verify_simulate_and_sweep_do_not(self, tmp_path):
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO]
        runs = [
            ["verify", "--graph", DEMO_GRAPH, "--alpha", "1.0"],
            ["simulate", *args, "--out", str(tmp_path / "traj.csv")],
            ["sweep", *args, "--alpha", "1", "4", "--out", str(tmp_path / "sweep.csv")],
        ]
        for run in runs:
            modules = self.modules(*run)
            assert "resilient_consensus.cli" in modules
            assert self.PARSER not in modules

    def test_analyze_does(self, tmp_path, capsys):
        traj = str(tmp_path / "traj.csv")
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO]
        assert main(["simulate", *args, "--out", traj]) == 0
        capsys.readouterr()
        assert self.PARSER in self.modules("analyze", "--trajectory", traj, *args)


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


class TestLibyaml:
    """Scenarios load through libyaml when PyYAML has it, with the same
    mappings as the pure-Python loader; reports are written by
    ``dump_report`` with the bytes of both PyYAML dumpers."""

    @staticmethod
    def demo_reports():
        g = load_edge_list(DEMO_GRAPH)
        sc = load_scenario(DEMO_SCENARIO, g)
        return [
            stability_report_dict(verify_theorem(g, 1.0)),
            build_run_report(simulate(g, sc.config, sc.w), sc.w),
        ]

    @needs_libyaml
    def test_libyaml_classes_chosen(self, monkeypatch):
        loaders = []
        load = yaml.load
        monkeypatch.setattr(
            yaml, "load", lambda stream, Loader: loaders.append(Loader) or load(stream, Loader=Loader)
        )
        read_scenario(DEMO_SCENARIO)
        assert loaders == [yaml.CSafeLoader]

    @needs_libyaml
    def test_dumpers_write_same_bytes(self):
        for report in self.demo_reports():
            dumps = {
                yaml.dump(report, Dumper=dumper, sort_keys=True, default_flow_style=False)
                for dumper in (yaml.SafeDumper, yaml.CSafeDumper)
            }
            assert dumps == {dump_report(report)}

    @needs_libyaml
    def test_loaders_read_same_mapping(self):
        text = Path(DEMO_SCENARIO).read_text(encoding="utf-8")
        raw = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == raw == read_scenario(DEMO_SCENARIO)

    def test_without_libyaml(self, tmp_path):
        # a PyYAML without libyaml: the pure-Python loader, the same output;
        # each scenario read prints its loader's name to stderr
        no_libyaml = (
            "import sys, yaml\n"
            "yaml.__with_libyaml__ = False\n"
            "def load(stream, Loader, _load=yaml.load):\n"
            "    print(Loader.__name__, file=sys.stderr)\n"
            "    return _load(stream, Loader=Loader)\n"
            "yaml.load = load\n"
            + MAIN_THEN_SCIPY_MODULES
        )
        traj = str(tmp_path / "traj.csv")
        args = ["--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO]
        for argv, loaders in (
            (["verify", "--graph", DEMO_GRAPH, "--alpha", "1.0"], ""),
            (["simulate", *args, "--out", traj], "SafeLoader\n"),
            (["analyze", "--trajectory", traj, *args], "SafeLoader\n"),
        ):
            default = run_fresh("-m", "resilient_consensus.cli", *argv)
            fallback = run_fresh("-c", no_libyaml, *argv)
            assert default.returncode == fallback.returncode == 0
            assert fallback.stderr == loaders + "[]\n"
            assert fallback.stdout == default.stdout


def _safe_dumps(report):
    """The report as PyYAML's SafeDumper writes it, and CSafeDumper when
    PyYAML has libyaml: the reference ``dump_report`` must match."""
    dumpers = (yaml.SafeDumper, yaml.CSafeDumper) if yaml.__with_libyaml__ else (yaml.SafeDumper,)
    return {yaml.dump(report, Dumper=d, sort_keys=True, default_flow_style=False) for d in dumpers}


#: Report keys: lower-case names, which both dumpers write plain.
REPORT_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True).filter(
    lambda k: k not in {"yes", "no", "on", "off", "true", "false", "null"}
)
#: Report values: every scalar type a report holds, in nested lists.
REPORT_VALUES = st.recursive(
    st.floats() | st.integers() | st.booleans() | st.none() | st.sampled_from(["adaptive", "nominal"]),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)


class TestReportEmitter:
    """``dump_report`` writes the bytes of PyYAML's safe dumpers for every
    report, and raises on any value outside the subset it writes."""

    @pytest.mark.parametrize(
        "report",
        [
            {"neg_zero": -0.0, "subnormal": 5e-324, "small": 1e-05, "e16": 1e16, "e22": 1e22,
             "max": 1.7976931348623157e308, "neg": -2.5e-300, "nan": float("nan"),
             "inf": float("inf"), "minus_inf": float("-inf"), "one": 1.0},
            {"neg_int": -7, "big_int": 10**40, "zero": 0, "yes_": True, "no_": False,
             "none": None, "protocol": "adaptive", "other": "nominal"},
            {"empty": [], "nested": [[1.0, -2.0], [], [[3, [True, None]], []]], "flat": [1, 2.5]},
        ],
        ids=["floats", "scalars", "lists"],
    )
    def test_fixed_cases(self, report):
        assert _safe_dumps(report) == {dump_report(report)}

    @pytest.mark.parametrize(
        "n, p, dt, steps",
        [(10, 0.3, 0.016, 2500), (120, 0.05, 0.001, 500), (200, 0.05, 0.001, 100)],
        ids=["small-long", "mid-wide", "large-cert"],
    )
    def test_workload_reports(self, n, p, dt, steps):
        # graphs and runs of the benchmark workloads' sizes
        rng = np.random.default_rng(n)
        g = random_connected_graph(n, rng, extra_edge_prob=p)
        w = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
        cfg = SimConfig(ADAPTIVE, dt, steps * dt, rng.uniform(-1.0, 1.0, n), alpha=1.0)
        for report in (
            stability_report_dict(verify_theorem(g, 1.0)),
            build_run_report(simulate(g, cfg, w), w),
        ):
            assert _safe_dumps(report) == {dump_report(report)}

    def test_demo_reports(self):
        # the demo's verify and adaptive run reports, and a nominal run's
        g = load_edge_list(DEMO_GRAPH)
        sc = load_scenario(DEMO_SCENARIO, g)
        nominal = build_run_report(simulate(g, SimConfig(NOMINAL, 0.01, 5.0, sc.config.x0), sc.w), sc.w)
        for report in [*TestLibyaml.demo_reports(), nominal]:
            assert _safe_dumps(report) == {dump_report(report)}

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(REPORT_KEYS, REPORT_VALUES, min_size=1, max_size=6))
    def test_matches_safe_dumper(self, report):
        assert _safe_dumps(report) == {dump_report(report)}

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            REPORT_KEYS | st.text(max_size=6),
            REPORT_VALUES | st.text(max_size=6) | st.tuples(st.floats()),
            min_size=1,
            max_size=4,
        )
    )
    def test_other_input_raises_or_matches(self, report):
        # no input outside the subset is written with bytes SafeDumper would not write
        try:
            text = dump_report(report)
        except (TypeError, ValueError):
            return
        assert _safe_dumps(report) == {text}

    @pytest.mark.parametrize(
        "report",
        [
            {"a": np.float64(1.0)},
            {"a": np.int64(1)},
            {"a": np.bool_(True)},
            {"a": [1.0, np.float64(2.0)]},
            {"a": "text"},
            {"a": "true"},
            {"a": (1.0, 2.0)},
            {"a": {"b": 1}},
            {},
        ],
        ids=["float64", "int64", "bool_", "float64-in-list", "string", "yaml-word", "tuple",
             "mapping", "empty"],
    )
    def test_value_outside_subset_raises(self, report):
        with pytest.raises(TypeError):
            dump_report(report)

    @pytest.mark.parametrize(
        "report",
        [{"on": 1}, {"Alpha": 1}, {"a b": 1}, {1: 1}, {"k" * 65: 1}, {"a": [[1.0]] * 2}],
        ids=["yaml-word", "upper-case", "space", "int-key", "long-key", "shared-list"],
    )
    def test_key_or_alias_outside_subset_raises(self, report):
        with pytest.raises(ValueError):
            dump_report(report)


class TestParserReuse:
    """One parser serves every ``main`` call in a process; no call leaves
    state behind for the next."""

    def test_override_does_not_leak(self, tmp_path, capsys):
        args = ["sweep", "--graph", DEMO_GRAPH, "--scenario", DEMO_SCENARIO, "--alpha", "1", "4"]
        assert main([*args, "--dt", "0.02", "--t-final", "40", "--out", str(tmp_path / "dt.csv")]) == 0
        assert main([*args, "--out", str(tmp_path / "reused.csv")]) == 0
        reused = capsys.readouterr().out.splitlines()[1]
        fresh = run_fresh("-m", "resilient_consensus.cli", *args, "--out", str(tmp_path / "fresh.csv"))
        assert fresh.returncode == 0
        assert fresh.stdout == reused.replace("reused.csv", "fresh.csv") + "\n"
        expected = (tmp_path / "fresh.csv").read_bytes()
        assert (tmp_path / "reused.csv").read_bytes() == expected
        assert (tmp_path / "dt.csv").read_bytes() != expected  # the overrides did take effect

    def test_usage_error_after_success(self, capsys):
        assert main(["verify", "--graph", DEMO_GRAPH, "--alpha", "1.0"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--graph", DEMO_GRAPH, "--alpha", "abc"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: resilient-consensus verify [-h] --graph GRAPH --alpha ALPHA\n")
        assert err.endswith("error: argument --alpha: invalid float value: 'abc'\n")


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi) | st.floats(min_value=-hi, max_value=-lo)


#: Scenario scalars: floats from 1e-320 to 1e308 of either sign, zero,
#: numeric strings, text that is not a finite number, huge integers and
#: other YAML scalars.
FUZZ_SCALARS = st.one_of(
    _floats(1e-320, 1e308),
    st.just(0.0),
    _floats(1e-320, 1e308).map(repr),
    st.sampled_from(["nan", "NaN", ".nan", "-inf", "1e400", "abc", "", "1_0", "0x10", " 1.0 "]),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
)
FUZZ_VALUES = FUZZ_SCALARS | st.lists(FUZZ_SCALARS, max_size=3)
#: Real entries of a two-agent vector: moderate, tiny or huge.
REALS = st.floats(-1e3, 1e3) | _floats(1e-320, 1e308) | st.just(0.0)


def _finite_numbers(value) -> bool:
    """Every number in a loaded report (nested lists included) is finite."""
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


class TestFuzzedInputs:
    """Properties over arbitrary inputs, with warnings turned into errors:
    the readers raise only typed errors, and ``simulate`` exits with a
    documented code, prints no traceback or warning, and reports only
    finite values when it succeeds."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.text(max_size=200) | st.binary(max_size=200))
    def test_edge_list_raises_only_typed_errors(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
        path.write_bytes(raw.encode() if isinstance(raw, str) else raw)
        reads = [lambda: load_edge_list(path)]
        if isinstance(raw, str):
            reads.append(lambda: parse_edge_list(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in reads:
                try:
                    read()
                except ConsensusToolkitError:
                    pass

    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.one_of(
            st.text(max_size=200),
            st.binary(max_size=200),
            st.dictionaries(
                st.sampled_from(["schema", "protocol", "alpha", "dt", "t_final", "x0", "w", "x_hat0", "w_hat0"]),
                FUZZ_VALUES,
            ).map(lambda doc: yaml.safe_dump({"schema": 1, **doc})),
        )
    )
    def test_scenario_raises_only_typed_errors(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzzed.yaml"
        path.write_bytes(raw.encode() if isinstance(raw, str) else raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for g in (None, path_graph(2)):
                try:
                    load_scenario(path, g)
                except ConsensusToolkitError:
                    pass
            try:
                parse_scenario(raw)
            except ConsensusToolkitError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(1e-3, 10.0) | st.floats(1e-320, 1e308),
        x0=st.lists(REALS, min_size=2, max_size=2),
        w=st.lists(REALS, min_size=2, max_size=2),
        fuzzed=st.sampled_from([None, "alpha", "x0", "w"]),
        value=FUZZ_VALUES,
        dt=st.sampled_from([0.01, 0.1]),
        t_final=st.sampled_from([0.1, 1.0, 10.0]),
    )
    def test_simulate_exit_codes(self, tmp_path_factory, alpha, x0, w, fuzzed, value, dt, t_final):
        # real gains and vectors, with at most one of the three replaced by a
        # fuzzed value; at most 1000 steps on p2, so no example allocates a
        # large trajectory
        base = tmp_path_factory.getbasetemp()
        graph = base / "p2.txt"
        graph.write_text(P2_EDGES)
        scenario = base / "fuzzed_run.yaml"
        doc = {"schema": 1, "protocol": "adaptive", "dt": dt, "t_final": t_final, "alpha": alpha, "x0": x0, "w": w}
        if fuzzed:
            doc[fuzzed] = value
        scenario.write_text(yaml.safe_dump(doc))
        out, err = io.StringIO(), io.StringIO()
        argv = ["simulate", "--graph", str(graph), "--scenario", str(scenario), "--out", str(base / "fuzzed.csv")]
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        if code == 0:
            report = yaml.safe_load(out.getvalue().split("\ntrajectory written")[0])
            assert all(_finite_numbers(v) for v in report.values())
