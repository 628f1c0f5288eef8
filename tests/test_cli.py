"""Config ingestion, experiment harness, CSV artifacts, exit codes."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relsched
from relsched import (
    AvailabilityOutOfRange,
    ParseError,
    ValidationError,
    cli,
    node_arrivals,
    oracle,
    solve,
)
from relsched.cli import VARY, _sweep_values, load_config, main, parse_range
from relsched.model import build_instance


GOLDEN_DIR = Path(__file__).parent / "golden"
PRESET_FILE = GOLDEN_DIR / "table1-table2.json"


def write_json(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
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

    def test_unstable_instance_rejected(self, tmp_path, capsys):
        # the file reads; the solvers' uniform start overloads both nodes
        payload = dict(GOOD_CONFIG)
        payload["schedulers"] = [{"lambda": 0.1}]
        path = write_json(tmp_path, payload)
        config = load_config(path)
        with pytest.raises(AvailabilityOutOfRange):
            solve(config)
        assert main(["solve", "--config", str(path)]) == 2
        assert "availability of node" in capsys.readouterr().err

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

    @pytest.mark.parametrize("payload,message", [
        ([GOOD_CONFIG], "top level must be an object"),
        ({"nodes": [{"mu": 0.02}], "schedulers": [{"phi": 1}]},
         "missing required field 'rho'"),
        ({"rho": 0.5, "schedulers": [{"phi": 1}]}, "'nodes' list"),
        ({"rho": 0.5, "nodes": [], "schedulers": [{"phi": 1}]},
         "'nodes' list"),
        ({"rho": 0.5, "nodes": [{"mu": 0.02}]}, "'schedulers' list"),
        ({"rho": 0.5, "nodes": [{"mu": 0.02}], "schedulers": []},
         "'schedulers' list"),
        ({"rho": 0.5, "nodes": [{"mu": 0.02}, 0.04],
          "schedulers": [{"phi": 1}]}, "node 1 must be an object"),
        ({"rho": 0.5, "nodes": [{"mu": 0.02}], "schedulers": [[1]]},
         "scheduler 0 must be an object"),
        # such an entry used to be read silently as a scheduler of rate 0
        ({"rho": 0.5, "nodes": [{"mu": 0.02}, {"mu": 0.04}],
          "schedulers": [{"phi": 0.01}, {}]},
         "scheduler 1 is missing 'phi' or 'lambda'$"),
        # a repeated key used to be read silently as its last value
        ('{"rho": 0.5, "rho": 0.9, "nodes": [{"mu": 0.02}], '
         '"schedulers": [{"phi": 1}]}', "top level gives 'rho' twice$"),
        ('{"rho": 0.5, "nodes": [{"mu": 0.02}, {"mu": 0.02, "mu": 0.5}], '
         '"schedulers": [{"phi": 1}]}', "node 1 gives 'mu' twice$"),
        ('{"rho": 0.5, "nodes": [{"mu": 0.02}], '
         '"schedulers": [{"lambda": 0.001, "lambda": 0.002}]}',
         "scheduler 0 gives 'lambda' twice$"),
    ])
    def test_structure_errors_named(self, payload, message, tmp_path):
        with pytest.raises(ParseError, match=message):
            load_config(write_json(tmp_path, payload))

    @pytest.mark.parametrize("part,entry,key,where", [
        ("config", None, "epsilon", "top level"),
        ("nodes", {"mu": 0.04, "beta": 40.0}, "beta", "node 1"),
        ("schedulers", {"lamda": 0.004}, "lamda", "scheduler 1"),
    ])
    def test_unknown_key_named(self, part, entry, key, where, tmp_path,
                               capsys):
        # a typo'd key used to be ignored: "beta" gave the default beta1
        # and "lamda" a scheduler of rate 0
        payload = dict(GOOD_CONFIG)
        if entry is None:
            payload[key] = 1e-6
        else:
            payload[part] = [GOOD_CONFIG[part][0], entry]
        path = write_json(tmp_path, payload)
        with pytest.raises(ParseError,
                           match=f"unknown field '{key}' of {where}$"):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_every_documented_key_accepted(self, tmp_path):
        payload = dict(GOOD_CONFIG, epsilon_threshold=1e-6, max_cycles=50,
                       nodes=[{"mu": 0.02, "mu_prime": 0.002, "gamma": 250.0,
                               "beta1": 50.0}, {"mu": 0.04}],
                       schedulers=[{"phi": 0.01, "lambda": 0.004},
                                   {"lam": 0.005}])
        config = load_config(write_json(tmp_path, payload))
        assert config.lam.tolist() == [0.004, 0.005]

    def test_lambda_and_alias_together_named(self, tmp_path, capsys):
        # "lambda" used to win silently over its alias "lam"
        payload = dict(GOOD_CONFIG, schedulers=[
            {"phi": 0.01}, {"lambda": 0.004, "lam": 0.02}])
        path = write_json(tmp_path, payload)
        with pytest.raises(ParseError, match="scheduler 1 gives both "
                                             "'lambda' and 'lam'$"):
            load_config(path)
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_reads_without_records(self, tmp_path, no_records):
        # each column goes straight into an array, defaults filled on it
        payload = dict(GOOD_CONFIG, nodes=[{"mu": 0.02, "beta1": 40.0},
                                           {"mu": 0.04}],
                       schedulers=[{"phi": 0.01}, {"lambda": 0.004}])
        config = load_config(write_json(tmp_path, payload))
        assert config.beta1.tolist() == [40.0, 1 / 0.04]
        assert config.gamma.tolist() == [5 / 0.02, 5 / 0.04]
        assert config.lam.tolist() == [0.01 * 0.5 * 0.06, 0.004]
        assert load_config(PRESET_FILE).n_nodes == 15

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.json")


class TestParseRange:
    def test_parses_triplet(self):
        assert parse_range("0.1:0.9:0.1") == (0.1, 0.9, 0.1)

    @pytest.mark.parametrize("text", [
        "0.1:0.9", "a:b:c", "0.9:0.1:0.1",
        "nan:0.5:0.1", "0.1:inf:0.1", "0.1:0.5:nan", "-inf:0.5:0.1",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_range(text)

    def test_rejects_too_many_points(self):
        # 80,001 points used to be built; a step of 1e-300 asked for
        # about 4e299 and exhausted memory; 10,001 points are one too many
        for sweep_range in ((0.1, 0.9, 1e-5), (0.1, 0.5, 1e-300),
                            (0.0, 1e308, 1e-308), (0.0, 10000.0, 1.0)):
            with pytest.raises(ValidationError, match="points"):
                _sweep_values(sweep_range, False)
        assert len(_sweep_values((0.0, 0.9999, 1e-4), False)) == 10_000
        assert len(_sweep_values((0.0, 9999.0, 1.0), True)) == 10_000

    @pytest.mark.parametrize("sweep_range", [
        (10.4, 11.4, 0.5), (10.0, 12.0, 0.5), (10.0, 11.5, 1.0)])
    def test_count_sweep_takes_whole_numbers(self, sweep_range):
        # 10.4:11.4:0.5 used to give the counts 10, 11 and 11
        with pytest.raises(ValidationError, match="whole numbers"):
            _sweep_values(sweep_range, True)
        assert _sweep_values(sweep_range, False)


class TestExperimentSpec:
    """What each subcommand accepts, as the COMMANDS table builds it."""

    def test_sweeps_require_range(self, tmp_path, capsys):
        # without --range a sweep runs over its variable's default range
        for argv in (("sweep-load", "--preset", "table1-table2"),
                     ("sweep-schedulers", "--preset", "table4-table5"),
                     ("sweep-nodes", "--preset", "table6-table7"),
                     ("fairness", "--preset", "table6-table7",
                      "--vary", "nodes")):
            out = tmp_path / f"{argv[0]}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            rows = read_csv(out)
            vary = {"rho": "rho", "n": "schedulers", "m": "nodes"}[rows[0][0]]
            expected = _sweep_values(parse_range(VARY[vary][1]),
                                     vary != "rho")
            assert [r[0] for r in rows[1:]] == [str(v) for v in expected]

    def test_compare_rejects_range(self, capsys):
        # flags a subcommand does not take are usage errors (exit 2);
        # --seed belongs to oracle-check alone
        for argv in (("compare", "--range", "0.1:0.9:0.1"),
                     ("solve", "--range", "0.1:0.9:0.1"),
                     ("sweep-load", "--vary", "nodes"),
                     ("solve", "--seed", "1"),
                     ("sweep-load", "--seed", "1")):
            with pytest.raises(SystemExit) as err:
                main([argv[0], "--preset", "table1-table2", *argv[1:]])
            assert err.value.code == 2

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["mystery", "--preset", "table1-table2"])
        assert err.value.code == 2


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRunExperiment:
    def test_compare_emits_per_node_rows(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        assert main(["compare", "--preset", "table1-table2",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["node", "mu", "recip_rbsa", "recip_bsa"]
        assert len(rows) == 1 + 15
        printed = capsys.readouterr().out
        assert "gap=" in printed
        assert printed.endswith(f"wrote {out}\n")

    def test_load_sweep_rows_and_ordering(self, tmp_path, capsys):
        out = tmp_path / "load.csv"
        assert main(["sweep-load", "--preset", "table1-table2",
                     "--range", "0.1:0.9:0.1", "--out", str(out)]) == 0
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

    def test_csv_round_trip_is_exact(self, tmp_path, capsys):
        out = tmp_path / "load.csv"
        assert main(["sweep-load", "--preset", "table1-table3",
                     "--range", "0.2:0.4:0.1", "--out", str(out)]) == 0
        rows = read_csv(out)
        for row in rows[1:]:
            for cell in row:
                value = float(cell)
                assert format(value, ".12g") == cell

    def test_sweeps_reproducible(self, tmp_path, capsys):
        for name in ("a.csv", "b.csv"):
            assert main(["sweep-schedulers", "--preset", "table4-table5",
                         "--range", "5:8:1",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_infeasible_point_flagged_not_fatal(self, tmp_path, capsys):
        # one heavy scheduler on one node: overloaded beyond rho = 1/30
        path = write_json(tmp_path, {
            "rho": 0.02,
            "nodes": [{"mu": 0.02}],
            "schedulers": [{"phi": 30.0}],
        })
        out = tmp_path / "load.csv"
        assert main(["sweep-load", "--config", str(path),
                     "--range", "0.02:0.06:0.02", "--out", str(out)]) == 0
        rows = read_csv(out)
        flags = {row[0]: row[-1] for row in rows[1:]}
        assert flags["0.02"] == "1"
        assert flags["0.04"] == "0"
        assert flags["0.06"] == "0"
        infeasible = [row for row in rows[1:] if row[-1] == "0"]
        assert all(row[1] == "" for row in infeasible)

    def test_fairness_sweep(self, tmp_path, capsys):
        out = tmp_path / "fi.csv"
        assert main(["fairness", "--preset", "table1-table3",
                     "--range", "0.2:0.6:0.2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["rho", "fi_rbsa", "fi_bsa", "feasible"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-9)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-9)

    def test_convergence_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["convergence", "--preset", "table1-table2",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["cycle", "epsilon"]
        eps = [float(r[1]) for r in rows[1:]]
        assert eps[-1] <= 1e-6
        assert len(eps) <= 5


class TestConfigBoundary:
    def test_config_flag_is_always_a_path(self, tmp_path, monkeypatch,
                                          capsys):
        # a file named like a preset is read as a file, not as the preset
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, GOOD_CONFIG, name="table1-table2")
        assert main(["solve", "--config", "table1-table2"]) == 0
        by_name = capsys.readouterr().out
        assert main(["solve", "--config", "./table1-table2"]) == 0
        assert by_name == capsys.readouterr().out
        assert main(["solve", "--preset", "table1-table2"]) == 0
        assert by_name != capsys.readouterr().out

    HEAVY = {"rho": 0.06, "nodes": [{"mu": 0.02}],
             "schedulers": [{"phi": 30.0}]}

    def test_override_rescues_infeasible_file_rho(self, tmp_path, capsys):
        path = write_json(tmp_path, self.HEAVY, name="heavy.json")
        assert main(["solve", "--config", str(path)]) == 2
        assert main(["solve", "--config", str(path), "--rho", "0.02"]) == 0
        out = tmp_path / "load.csv"
        assert main(["sweep-load", "--config", str(path),
                     "--range", "0.02:0.06:0.02", "--out", str(out)]) == 0
        flags = [row[-1] for row in read_csv(out)[1:]]
        assert flags == ["1", "0", "0"]

    @pytest.mark.parametrize("command,sweep_range", [
        ("sweep-nodes", "14:17:1"),
        ("sweep-schedulers", "0:11:11"),
    ])
    def test_truncation_beyond_file_is_infeasible(self, command, sweep_range,
                                                  tmp_path, capsys):
        # the file is the preset written out, so every row must match the
        # preset sweep, including feasible=0 where the count is 0 or larger
        # than the instance
        by_file, by_preset = tmp_path / "file.csv", tmp_path / "preset.csv"
        assert main([command, "--config", str(PRESET_FILE), "--range",
                     sweep_range, "--out", str(by_file)]) == 0
        assert main([command, "--preset", "table1-table2", "--range",
                     sweep_range, "--out", str(by_preset)]) == 0
        rows = read_csv(by_file)
        assert rows == read_csv(by_preset)
        assert "0" in [row[-1] for row in rows[1:]]

    def test_direct_rates_survive_overrides(self, tmp_path, capsys):
        # a given rate stands unless the load or the node set changes; then
        # a scheduler with a positive phi has its rate re-derived, and one
        # given only a direct rate keeps it instead of dropping to phi = 0
        nodes = [
            {"mu": 0.01, "mu_prime": 0.001, "gamma": 500, "beta1": 100},
            {"mu": 0.02, "mu_prime": 0.002, "gamma": 250, "beta1": 50},
        ]
        # the rates at the file's rho 0.5 and at 0.4, with sum(mu) = 0.03
        for schedulers, lam_given, lam_rho_04 in (
                ([{"phi": 0.01}, {"lambda": 0.004}],
                 [1.5e-4, 0.004], [1.2e-4, 0.004]),
                ([{"phi": 0.01, "lambda": 0.004}, {"phi": 0.02}],
                 [0.004, 3e-4], [1.2e-4, 2.4e-4])):
            path = write_json(tmp_path, {"rho": 0.5, "nodes": nodes,
                                         "schedulers": schedulers})
            source = cli._read_config(path)
            for rho, lam in ((None, lam_given), (0.5, lam_given),
                             (0.4, lam_rho_04)):
                np.testing.assert_allclose(
                    build_instance(source, rho).lam, lam, rtol=1e-12)

            def objective(*extra):
                assert main(["solve", "--config", str(path), *extra]) == 0
                out = capsys.readouterr().out
                return [w for w in out.split() if w.startswith("objective=")]

            given = objective()
            assert given
            # neither a threshold nor the file's own load changes the rates
            assert objective("--epsilon", "1e-6") == given
            assert objective("--rho", "0.5") == given
            # a different load re-derives the rate of the phi schedulers
            assert objective("--rho", "0.4") != given
            # the full-size point of a scale sweep is the file itself
            exact = format(solve(load_config(path)).objective, ".12g")
            for command in ("sweep-nodes", "sweep-schedulers"):
                out = tmp_path / f"{command}.csv"
                assert main([command, "--config", str(path), "--range",
                             "2:2:1", "--out", str(out)]) == 0
                capsys.readouterr()
                with out.open() as handle:
                    assert next(csv.DictReader(handle))["d_rbsa"] == exact

    def test_sweep_reads_config_once(self, tmp_path, monkeypatch, capsys):
        path = write_json(tmp_path, GOOD_CONFIG)
        reads = []
        read = cli._read_config
        monkeypatch.setattr(cli, "_read_config",
                            lambda p: reads.append(p) or read(p))
        assert main(["sweep-load", "--config", str(path),
                     "--out", str(tmp_path / "load.csv")]) == 0
        assert reads == [str(path)]

    def test_unreadable_config_fails_the_sweep(self, tmp_path, capsys):
        assert main(["sweep-load", "--config", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "load.csv")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "load.csv").exists()

    @pytest.mark.parametrize("key,value,named", [
        ("epsilon_threshold", '"x"', "epsilon_threshold"),
        ("epsilon_threshold", "null", "epsilon_threshold"),
        ("epsilon_threshold", "NaN", "epsilon_threshold"),
        ("max_cycles", '"x"', "max_cycles"),
        ("max_cycles", "null", "max_cycles"),
        ("max_cycles", "2.9", "max_cycles"),
        ("max_cycles", "true", "max_cycles"),
        ("rho", "true", "rho"),
        ("rho", "NaN", "rho"),
        ("nodes", '[{"mu": true}]', "mu"),
        ("nodes", '[{"mu": NaN}]', "mu"),
        ("nodes", '[{"mu": Infinity}]', "mu"),
        ("nodes", '[{"mu": 1e999}]', "mu"),
        pytest.param("nodes", '[{"mu": 1%s}]' % ("0" * 400), "mu",
                     id="nodes-integer-beyond-float-range"),
        ("nodes", '[{"mu": 0.02, "beta1": -Infinity}]', "beta1"),
        ("schedulers", '[{"lambda": NaN}]', "lambda"),
        ("schedulers", '[{"phi": null}]', "phi"),
        ("--horizon", "0", None),
        ("--horizon", "nan", None),
        ("--horizon", "inf", None),
        ("--seed", "-1", None),
        ("--epsilon", "inf", None),
    ])
    def test_bad_input_is_exit_2(self, key, value, named, tmp_path, capsys):
        # each exits 2 with a message naming the bad value, where before
        # some raised a traceback, some were accepted and some failed
        # later with a message about a consequence of the value
        fields = {k: json.dumps(v) for k, v in GOOD_CONFIG.items()}
        argv, named = ["solve"], f"field {named!r}"
        if key.startswith("--"):
            argv, named = ["oracle-check", key, value], key[2:]
        else:
            fields[key] = value
        path = tmp_path / "bad.json"
        path.write_text(
            "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        assert main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize("command", ["solve", "sweep-load",
                                         "sweep-nodes"])
    @pytest.mark.parametrize("part,entry,named", [
        ("nodes", {"mu": -0.02}, "field 'mu' of node 1"),
        ("nodes", {"mu": 0.04, "gamma": -1}, "field 'gamma' of node 1"),
        ("schedulers", {"lambda": -0.1}, "field 'lambda' of scheduler 1"),
    ])
    def test_out_of_range_entry_is_2(self, command, part, entry, named,
                                     tmp_path, capsys):
        # range-checked as the file is read, so a sweep exits 2 before it
        # solves a point instead of writing feasible=0 rows
        payload = dict(GOOD_CONFIG, **{part: [GOOD_CONFIG[part][0], entry]})
        path, out = write_json(tmp_path, payload), tmp_path / "out.csv"
        with pytest.raises(ValidationError, match=named):
            load_config(path)
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "sweep-nodes":
            argv += ["--range", "1:2:1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == ""
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [
        ("solve",),
        ("compare",),
        ("convergence",),
        ("sweep-load", "--range", "0.1:0.2:0.1"),
        ("oracle-check", "--horizon", "1e6"),
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_is_2(self, argv, tmp_path, capsys):
        # a directory as --out used to end in an IsADirectoryError
        # traceback; each command then printed its summary before the error
        assert main([*argv, "--preset", "table1-table2",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
        assert captured.out == ""

    def test_closed_stdout_is_1_and_keeps_the_csv(self, tmp_path, capsys):
        # print used to raise BrokenPipeError out of main
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        out = tmp_path / "out.csv"
        with contextlib.redirect_stdout(ClosedPipe()):
            code = main(["compare", "--preset", "table1-table2",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == \
            (GOLDEN_DIR / "compare.table1-table2.csv").read_bytes()

    def test_non_convergence_is_3(self, tmp_path, capsys):
        payload = dict(GOOD_CONFIG, max_cycles=1)
        path = write_json(tmp_path, payload)
        assert main(["solve", "--config", str(path)]) == 3

    @pytest.mark.parametrize("argv", [
        ("sweep-load",),
        ("fairness", "--range", "0.4:0.5:0.1"),
        ("convergence", "--range", "0.1:0.3:0.1"),
    ])
    def test_non_converging_sweep_point_is_3(self, argv, tmp_path, capsys):
        # such a point used to be written as feasible=0, with exit 0
        out = tmp_path / "out.csv"
        path = GOLDEN_DIR / "solve.not-converged.json"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: no convergence within")
        assert captured.out == ""
        assert not out.exists()

    def test_baseline_that_cannot_place_a_stream_is_2(self, tmp_path,
                                                      monkeypatch, capsys):
        # W_j*mu_j = 0.75 on every node at 90 % utilisation: the game
        # converges, but the balanced sweep leaves scheduler 1 no node with
        # spare capacity, the game's NoFeasibleResponse
        path = GOLDEN_DIR / "baseline-cannot-place.json"
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("objective=30 cycles=1 ")
        assert main(["compare", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: no node has spare capacity for "
                                "scheduler 1\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unreachable_epsilon_is_3(self, tmp_path, capsys):
        # a valid threshold that no single sweep meets
        path = write_json(tmp_path, dict(GOOD_CONFIG, max_cycles=1))
        assert main(["solve", "--config", str(path), "--epsilon", "0"]) == 3

    @pytest.mark.parametrize("command", ["solve", "sweep-load"])
    @pytest.mark.parametrize("source", ["--epsilon", "file", "both"])
    def test_negative_epsilon_is_2(self, command, source, tmp_path, capsys):
        # rejected before any point is solved: solve used to run
        # max_cycles sweeps and exit 3, and a sweep flagged every point
        # infeasible and exited 0
        payload = dict(GOOD_CONFIG)
        if source != "--epsilon":
            payload["epsilon_threshold"] = -1e-9
        argv = [command, "--config", str(write_json(tmp_path, payload)),
                "--out", str(tmp_path / "out.csv")]
        if source != "file":
            argv += ["--epsilon", "-1"]
        assert main(argv) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text", ["nan:0.5:0.1", "0.1:inf:0.1",
                                      "0.1:0.5:nan"])
    def test_non_finite_range_is_2(self, text, tmp_path, capsys):
        # each used to end in a ValueError or OverflowError traceback
        out = tmp_path / "out.csv"
        assert main(["sweep-load", "--preset", "table1-table2",
                     "--range", text, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --range ")
        assert "must be a finite number" in err
        assert not out.exists()

    def test_negative_epsilon_on_preset_is_2(self, capsys):
        assert main(["solve", "--preset", "table1-table2",
                     "--epsilon", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("rho", ["1.5", "0", "nan"])
    def test_out_of_range_rho_on_sweep_is_2(self, rho, tmp_path, capsys):
        # rejected before any point is solved: a sweep that does not vary
        # rho flagged every point infeasible and exited 0
        out = tmp_path / "nodes.csv"
        assert main(["sweep-nodes", "--preset", "table6-table7", "--rho",
                     rho, "--range", "10:12:1", "--out", str(out)]) == 2
        assert "--rho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("sweep-nodes", "--range", "10:12:1"),
        ("convergence", "--vary", "nodes", "--range", "10:11:1"),
    ])
    @pytest.mark.parametrize("key,value", [("max_cycles", 0), ("rho", 1.5)])
    def test_bad_file_setting_on_scale_sweep_is_2(self, argv, key, value,
                                                  tmp_path, capsys):
        # every point shares the file's setting, so it is bad input, not
        # an infeasible point: both used to write all-feasible=0 rows and
        # exit 0, where solve on the same file exits 2
        payload = json.loads(PRESET_FILE.read_text())
        payload[key] = value
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(write_json(tmp_path, payload)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        (("sweep-load", "--rho", "0.3"), ("--rho",)),
        (("fairness", "--rho", "0.3"), ("--rho",)),
        (("fairness", "--vary", "rho", "--rho", "0.3"), ("--rho",)),
        (("convergence", "--range", "0.1:0.3:0.1", "--rho", "0.3"),
         ("--rho",)),
        (("convergence", "--vary", "nodes"), ("--vary", "--range")),
        (("convergence", "--vary", "schedulers"), ("--vary", "--range")),
    ], ids=["sweep-load", "fairness", "fairness-vary-rho", "convergence-range",
            "convergence-vary-nodes", "convergence-vary-schedulers"])
    def test_ignored_flag_is_2(self, argv, named, tmp_path, capsys):
        # each exited 0: the sweep over rho replaced --rho at every point,
        # and convergence without --range wrote the plain trace
        out = tmp_path / "out.csv"
        assert main([*argv, "--preset", "table6-table7",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert all(flag in captured.err for flag in named)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("sweep-load", "--range", "0.1:0.3:0.1"),
        ("solve", "--rho", "0.5"),
        ("convergence", "--rho", "0.5"),
    ])
    def test_file_rho_replaced_by_override_is_0(self, argv, tmp_path,
                                                capsys):
        # a sweep over rho and --rho each replace the file's rho, so its
        # range is not checked; convergence without --range is a trace,
        # which takes --rho although its --vary defaults to rho
        payload = dict(json.loads(PRESET_FILE.read_text()), rho=1.5)
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", str(write_json(tmp_path, payload)),
                     "--out", str(out)]) == 0
        if argv[0] == "sweep-load":
            assert [row[-1] for row in read_csv(out)[1:]] == ["1"] * 3

    @pytest.mark.parametrize("command,text,message", [
        ("sweep-load", "0.1:0.5:1e-300", "points"),
        ("sweep-load", "0.1:0.9:1e-5", "points"),
        ("sweep-nodes", "10.4:11.4:0.5", "whole numbers"),
        ("sweep-load", "0.1:0.9:0", "STEP must be"),
    ])
    def test_unusable_range_is_2(self, command, text, message, tmp_path,
                                 capsys):
        # the first asked for about 4e299 points, the second ran 80,001
        # and the third wrote the m = 11 row twice
        out = tmp_path / "out.csv"
        assert main([command, "--preset", "table6-table7", "--range", text,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_parser_reuse_leaks_nothing(self, tmp_path, capsys):
        """main() builds its parser once per process; what one command
        parses must not become a default of the next."""
        assert cli.build_parser() is not cli.build_parser()

        def run(*argv):
            out = tmp_path / "out.csv"
            assert main([*argv, "--out", str(out)]) == 0
            return capsys.readouterr().out, out.read_bytes()

        compare = ("compare", "--preset", "table1-table2")
        fairness = ("fairness", "--preset", "table1-table2",
                    "--range", "0.4:0.5:0.1")
        first = run(*compare), run(*fairness)
        run(*compare, "--rho", "0.3", "--epsilon", "1e-9",
            "--bsa-single-pass")
        run("fairness", "--preset", "table6-table7", "--vary", "nodes",
            "--range", "10:11:1", "--rho", "0.3")
        run("sweep-nodes", "--preset", "table6-table7", "--range", "10:11:1",
            "--epsilon", "1e-9")
        assert (run(*compare), run(*fairness)) == first

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

    def test_oracle_check_verdict_corrects_for_node_count(self, capsys):
        # one of 15 loaded nodes lands outside 3 sigma, as about 1 in 20
        # seeds does on a correct solve; the verdict tests each node at
        # z_15 = 3.75, so the whole check keeps one 3-sigma test's rate
        assert main(["oracle-check", "--preset", "table1-table3",
                     "--seed", "31"]) == 0
        printed = capsys.readouterr().out
        assert "traffic_check=PASS nodes_within_3sigma=14/15" in printed

    @pytest.mark.parametrize("preset_name, node", [
        ("table1-table3", "loaded"), ("table1-table2", "loaded"),
        ("table1-table2", "unloaded")])
    def test_oracle_check_fails_a_wrong_rate(self, monkeypatch, capsys,
                                             preset_name, node):
        """A loaded node measured 6 sigma off, or an unloaded one measured
        at any positive rate, fails the traffic check (exit 2)."""
        def measure(alloc, config, horizon, seed):
            rates = node_arrivals(alloc, config)
            j = int(np.flatnonzero((rates > 0.0) == (node == "loaded"))[0])
            rates[j] += (6.0 * np.sqrt(rates[j] / horizon) if rates[j]
                         else 1.0 / horizon)
            return rates

        monkeypatch.setattr(oracle, "traffic_empirical_rates", measure)
        assert main(["oracle-check", "--preset", preset_name]) == 2
        assert "traffic_check=FAIL" in capsys.readouterr().out

    def test_oracle_check_horizon_beyond_sampler_is_2(self, tmp_path,
                                                       capsys):
        # used to end in numpy's ValueError traceback, exit 1
        out = tmp_path / "oracle.csv"
        assert main(["oracle-check", "--preset", "table1-table2",
                     "--horizon", "1e22", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon")
        assert not out.exists()

    def test_oracle_check_long_horizon_prints_no_verdict(self, capsys):
        # nash_check's PASS used to print before the traffic draw failed
        assert main(["oracle-check", "--preset", "table1-table2",
                     "--horizon", "1e22"]) == 2
        assert capsys.readouterr().out == ""

    def test_bsa_single_pass_flag(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--preset", "table1-table2",
                     "--bsa-single-pass", "--out", str(out)]) == 0

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "relsched", "solve",
             "--preset", "table1-table3"],
            capture_output=True, text=True, cwd=tmp_path, env=module_env(),
        )
        assert result.returncode == 0
        assert "objective=" in result.stdout

    def test_closed_pipe_is_1_without_traceback(self, tmp_path):
        # the reader of stdout is gone before the summary is printed, as
        # with `relsched compare ... | head`: this used to end in a
        # BrokenPipeError traceback
        out = tmp_path / "out.csv"
        env = module_env()
        # stdout buffered, as a shell runs it: the interpreter's own flush
        # at exit must not fail either
        env.pop("PYTHONUNBUFFERED", None)
        child = subprocess.Popen(
            [sys.executable, "-m", "relsched", "compare", "--preset",
             "table1-table2", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
            env=env)
        child.stdout.close()
        _, err = child.communicate(timeout=300)
        assert child.returncode == 1
        assert err == b""
        assert out.read_bytes() == \
            (GOLDEN_DIR / "compare.table1-table2.csv").read_bytes()


def module_env():
    """The environment with the package under test first on PYTHONPATH, so
    a child run from an unrelated directory, where a relative entry would
    resolve to nothing, imports it."""
    package_root = str(Path(relsched.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env
