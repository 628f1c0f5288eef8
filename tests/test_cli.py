"""Config ingestion, experiment harness, CSV artifacts, exit codes."""

import csv
import json

import pytest

from relsched import ParseError, ValidationError
from relsched.cli import (
    ExperimentSpec,
    load_config,
    main,
    parse_range,
    run_experiment,
)


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


GOOD_CONFIG = {
    "rho": 0.5,
    "nodes": [{"mu": 0.02}, {"mu": 0.04}],
    "schedulers": [{"phi": 0.01}, {"phi": 0.02}],
}


class TestLoadConfig:
    def test_reads_and_derives(self, tmp_path):
        config = load_config(write_json(tmp_path, GOOD_CONFIG))
        assert config.n_nodes == 2
        assert config.schedulers[0].lam == pytest.approx(
            0.01 * 0.5 * 0.06, rel=1e-12
        )

    def test_defaults_fill_omitted_node_fields(self, tmp_path):
        config = load_config(write_json(tmp_path, GOOD_CONFIG))
        node = config.nodes[0]
        assert node.gamma == 5 / 0.02
        assert node.mu_prime == 0.02 / 10
        assert node.beta1 == 1 / 0.02

    def test_explicit_rate_kept(self, tmp_path):
        payload = dict(GOOD_CONFIG)
        payload["schedulers"] = [{"lambda": 0.004}, {"phi": 0.02}]
        config = load_config(write_json(tmp_path, payload))
        assert config.schedulers[0].lam == 0.004

    def test_rho_out_of_range(self, tmp_path):
        payload = dict(GOOD_CONFIG, rho=1.5)
        with pytest.raises(ValidationError):
            load_config(write_json(tmp_path, payload))

    def test_unstable_instance_rejected(self, tmp_path):
        payload = dict(GOOD_CONFIG)
        payload["schedulers"] = [{"lambda": 0.1}]
        with pytest.raises(ValidationError) as err:
            load_config(write_json(tmp_path, payload))
        assert "total-stability" in str(err.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rho": 0.5,\n  "nodes": [}')
        with pytest.raises(ParseError) as err:
            load_config(path)
        assert "line 2" in str(err.value)

    def test_missing_field_named(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_config(write_json(tmp_path, {"rho": 0.5, "nodes": [{}],
                                              "schedulers": [{"phi": 1}]}))
        assert "mu" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.json")


class TestParseRange:
    def test_parses_triplet(self):
        assert parse_range("0.1:0.9:0.1") == (0.1, 0.9, 0.1)

    @pytest.mark.parametrize("text", ["0.1:0.9", "a:b:c", "0.9:0.1:0.1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_range(text)


class TestExperimentSpec:
    def test_sweeps_require_range(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(kind="load-sweep", preset="table1-table2")

    def test_compare_rejects_range(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(kind="objective-compare", preset="table1-table2",
                           sweep_range=(0.1, 0.9, 0.1))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(kind="mystery", preset="table1-table2")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRunExperiment:
    def test_compare_emits_per_node_rows(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        spec = ExperimentSpec(kind="objective-compare", preset="table1-table2",
                              output_path=str(out))
        paths = run_experiment(spec)
        assert paths == [out]
        rows = read_csv(out)
        assert rows[0] == ["node", "mu", "recip_rbsa", "recip_bsa"]
        assert len(rows) == 1 + 15
        assert "gap=" in capsys.readouterr().out

    def test_load_sweep_rows_and_ordering(self, tmp_path):
        out = tmp_path / "load.csv"
        spec = ExperimentSpec(kind="load-sweep", preset="table1-table2",
                              sweep_range=(0.1, 0.9, 0.1),
                              output_path=str(out))
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0][0] == "rho"
        data = rows[1:]
        assert len(data) == 9
        rhos = [float(r[0]) for r in data]
        assert rhos == pytest.approx([0.1 * k for k in range(1, 10)])
        d_game = [float(r[1]) for r in data]
        d_bal = [float(r[2]) for r in data]
        assert all(g <= b + 1e-9 for g, b in zip(d_game, d_bal))
        assert all(r[-1] == "1" for r in data)

    def test_csv_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "load.csv"
        spec = ExperimentSpec(kind="load-sweep", preset="table1-table3",
                              sweep_range=(0.2, 0.4, 0.1),
                              output_path=str(out))
        run_experiment(spec)
        rows = read_csv(out)
        for row in rows[1:]:
            for cell in row:
                value = float(cell)
                assert format(value, ".12g") == cell

    def test_sweeps_reproducible(self, tmp_path):
        spec_a = ExperimentSpec(kind="scheduler-sweep", preset="table4-table5",
                                sweep_range=(5, 8, 1),
                                output_path=str(tmp_path / "a.csv"))
        spec_b = ExperimentSpec(kind="scheduler-sweep", preset="table4-table5",
                                sweep_range=(5, 8, 1),
                                output_path=str(tmp_path / "b.csv"))
        run_experiment(spec_a)
        run_experiment(spec_b)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_infeasible_point_flagged_not_fatal(self, tmp_path):
        # one heavy scheduler on one node: overloaded beyond rho = 1/30
        path = write_json(tmp_path, {
            "rho": 0.02,
            "nodes": [{"mu": 0.02}],
            "schedulers": [{"phi": 30.0}],
        })
        out = tmp_path / "load.csv"
        spec = ExperimentSpec(kind="load-sweep", preset=str(path),
                              sweep_range=(0.02, 0.06, 0.02),
                              output_path=str(out))
        run_experiment(spec)
        rows = read_csv(out)
        flags = {row[0]: row[-1] for row in rows[1:]}
        assert flags["0.02"] == "1"
        assert flags["0.04"] == "0"
        assert flags["0.06"] == "0"
        infeasible = [row for row in rows[1:] if row[-1] == "0"]
        assert all(row[1] == "" for row in infeasible)

    def test_fairness_sweep(self, tmp_path):
        out = tmp_path / "fi.csv"
        spec = ExperimentSpec(kind="fairness", preset="table1-table3",
                              sweep_range=(0.2, 0.6, 0.2),
                              output_path=str(out))
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0] == ["rho", "fi_rbsa", "fi_bsa", "feasible"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

    def test_convergence_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        spec = ExperimentSpec(kind="convergence", preset="table1-table2",
                              output_path=str(out))
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0] == ["cycle", "epsilon"]
        eps = [float(r[1]) for r in rows[1:]]
        assert eps[-1] <= 1e-6
        assert len(eps) <= 5


class TestMainExitCodes:
    def test_solve_success(self, capsys):
        assert main(["solve", "--preset", "table1-table2"]) == 0
        out = capsys.readouterr().out
        assert "objective=" in out
        assert "cycles=" in out

    def test_validation_failure_is_2(self, tmp_path, capsys):
        path = write_json(tmp_path, dict(GOOD_CONFIG, rho=1.5))
        assert main(["solve", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_convergence_is_3(self, tmp_path, capsys):
        payload = dict(GOOD_CONFIG, max_cycles=1)
        path = write_json(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 3

    def test_unreachable_epsilon_is_3(self, capsys):
        assert main(["solve", "--preset", "table1-table2",
                     "--epsilon", "-1"]) == 3

    def test_compare_writes_default_artifact(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "--preset", "table1-table3"]) == 0
        assert (tmp_path / "objective-compare.csv").exists()

    def test_sweep_command_with_range_flag(self, tmp_path, capsys):
        out = tmp_path / "nodes.csv"
        assert main(["sweep-nodes", "--preset", "table6-table7",
                     "--range", "10:12:1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][0] == "m"
        assert [r[0] for r in rows[1:]] == ["10", "11", "12"]

    def test_scheduler_sweep_default_range(self, tmp_path, capsys):
        out = tmp_path / "sched.csv"
        assert main(["sweep-schedulers", "--preset", "table4-table5",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r[0] for r in rows[1:]] == [str(n) for n in range(5, 21)]

    def test_fairness_vary_nodes(self, tmp_path, capsys):
        out = tmp_path / "fi.csv"
        assert main(["fairness", "--preset", "table6-table7", "--vary",
                     "nodes", "--range", "10:12:1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][0] == "m"

    def test_convergence_cycle_sweep(self, tmp_path, capsys):
        out = tmp_path / "cn.csv"
        assert main(["convergence", "--preset", "table1-table2",
                     "--range", "0.2:0.8:0.2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["rho", "cycles", "feasible"]
        assert all(int(r[1]) <= 5 for r in rows[1:])

    def test_oracle_check_passes_on_small_preset(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = main(["oracle-check", "--preset", "table1-table2",
                     "--rho", "0.5", "--seed", "1",
                     "--horizon", "1e6", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "nash_check=PASS" in printed
        assert "traffic_check=PASS" in printed
        assert out.exists()

    def test_bsa_single_pass_flag(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--preset", "table1-table2",
                     "--bsa-single-pass", "--out", str(out)]) == 0

    def test_module_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import relsched

        # Run the package under test from an unrelated directory, where a
        # relative PYTHONPATH would resolve to nothing.
        package_root = str(Path(relsched.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "relsched", "solve",
             "--preset", "table1-table3"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert result.returncode == 0
        assert "objective=" in result.stdout
