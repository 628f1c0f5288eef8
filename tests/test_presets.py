"""Golden checks: preset tables digit for digit, defaults, truncation."""

import importlib.util
import json

import pytest

from relsched import NodeParams, ValidationError, cli, preset
from relsched.model import build_instance
from relsched.presets import (
    _PRESETS,
    PRESET_NAMES,
    TABLE1_PHI,
    TABLE2_MU,
    TABLE3_MU,
    TABLE4_MU,
    TABLE5_PHI,
    TABLE6_MU,
    TABLE7_PHI,
)


class TestTables:
    def test_workload_weights(self):
        assert TABLE1_PHI == (
            0.0035, 0.01, 0.01, 0.01, 0.01, 0.006, 0.005, 0.002, 0.001, 0.001,
        )
        assert TABLE7_PHI == TABLE1_PHI
        assert TABLE5_PHI[:10] == TABLE1_PHI
        assert TABLE5_PHI[10:] == (
            0.002, 0.005, 0.003, 0.0045, 0.0037, 0.0046, 0.0038, 0.0063,
            0.0029, 0.0048,
        )

    def test_node_pools(self):
        assert TABLE2_MU == (0.02,) * 7 + (0.033,) * 3 + (
            0.0231, 0.02511, 0.0153, 0.023, 0.025,
        )
        assert TABLE3_MU == (
            0.031, 0.03, 0.029, 0.029, 0.031, 0.03, 0.03,
            0.033, 0.033, 0.033, 0.028, 0.029, 0.030, 0.030, 0.031,
        )
        assert TABLE4_MU == (0.01,) * 3 + (0.02,) * 4 + (0.033,) * 3 + (
            0.06, 0.05, 0.03, 0.025, 0.03,
        )
        assert TABLE6_MU[:15] == TABLE4_MU
        assert TABLE6_MU[15:] == (0.025, 0.033, 0.028, 0.025, 0.019)

    def test_unbalanced_pool_total_rate(self):
        assert sum(TABLE2_MU) == pytest.approx(0.35051, abs=1e-12)


class TestPresetBuilder:
    def test_reference_preset_shape_and_load(self):
        config = preset("table1-table2")
        assert config.n_schedulers == 10
        assert config.n_nodes == 15
        assert config.rho == 0.5
        assert [s.phi for s in config.schedulers] == list(TABLE1_PHI)
        assert [n.mu for n in config.nodes] == list(TABLE2_MU)

    def test_rates_derived_from_weights(self):
        config = preset("table1-table2")
        total_mu = sum(TABLE2_MU)
        for s in config.schedulers:
            assert s.lam == pytest.approx(s.phi * 0.5 * total_mu, rel=1e-12)

    def test_default_node_parameters(self):
        config = preset("table1-table2")
        for node in config.nodes:
            # algebraically (mu/10)*(5/mu) = 0.5; floats carry 1 ulp
            assert node.mu_prime * node.gamma == pytest.approx(0.5, abs=1e-15)
            assert node.beta1 == 1.0 / node.mu

    def test_scale_sweep_presets_default_to_sixty_percent_load(self):
        assert preset("table4-table5").rho == 0.6
        assert preset("table6-table7").rho == 0.6

    def test_scheduler_truncation_re_derives_rates(self):
        config = preset("table4-table5", n_schedulers=5)
        assert config.n_schedulers == 5
        assert [s.phi for s in config.schedulers] == list(TABLE5_PHI[:5])

    def test_node_truncation_re_derives_rates(self):
        config = preset("table6-table7", n_nodes=12)
        assert config.n_nodes == 12
        total_mu = sum(TABLE6_MU[:12])
        assert config.schedulers[0].lam == pytest.approx(
            0.0035 * 0.6 * total_mu, rel=1e-12
        )

    def test_both_scheduler_count_readings_exposed(self):
        assert preset("table6-table7").n_schedulers == 10
        alt = preset("table6-table7-n15")
        assert alt.n_schedulers == 15
        assert [s.phi for s in alt.schedulers] == list(TABLE5_PHI[:15])

    def test_rho_override(self):
        assert preset("table1-table2", rho=0.3).rho == 0.3

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError):
            preset("table9")

    def test_truncation_bounds_enforced(self):
        with pytest.raises(ValidationError):
            preset("table4-table5", n_schedulers=21)
        with pytest.raises(ValidationError):
            preset("table6-table7", n_nodes=0)

    @pytest.mark.parametrize("count", [True, 2.5, "3"])
    def test_truncation_needs_an_integer(self, count):
        # True used to build a 1-node instance and 2.5 to fail slicing
        # with a TypeError
        for key in ("n_schedulers", "n_nodes"):
            with pytest.raises(ValidationError, match="supports 1"):
                preset("table1-table2", **{key: count})

    @pytest.mark.parametrize("name", ["mu", "phi", "lam"])
    def test_an_array_is_not_a_setting(self, name):
        # a keyword that names one of the preset's own arrays is refused,
        # not silently dropped for the preset's array
        with pytest.raises(TypeError, match=name):
            preset("table1-table2", **{name: preset("table1-table2").lam})

    def test_every_preset_listed(self):
        assert set(PRESET_NAMES) == {
            "table1-table2", "table1-table3", "table4-table5",
            "table6-table7", "table6-table7-n15",
        }


ARRAYS = ("mu", "mu_prime", "gamma", "beta1", "phi", "lam", "weights")


class TestOnePath:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_file_of_a_preset_gives_its_arrays(self, name, tmp_path):
        # a preset and a config file written from its arrays, as the
        # benchmark writes one, are cut and rated by the same function:
        # every point of the default sweeps gives the same bytes
        base = preset(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "rho": base.rho,
            "epsilon_threshold": base.epsilon_threshold,
            "max_cycles": base.max_cycles,
            "nodes": [dict(mu=mu, mu_prime=mu_prime, gamma=gamma, beta1=beta1)
                      for mu, mu_prime, gamma, beta1 in zip(
                          base.mu.tolist(), base.mu_prime.tolist(),
                          base.gamma.tolist(), base.beta1.tolist())],
            "schedulers": [{"phi": phi} for phi in base.phi.tolist()],
        }))
        source = cli._read_config(path)
        sizes = {"rho": 1, "schedulers": base.n_schedulers,
                 "nodes": base.n_nodes}
        points = [dict(rho=None, schedulers=None, nodes=None)]
        for vary, (_, default) in cli.VARY.items():
            values = cli._sweep_values(cli.parse_range(default),
                                       vary != "rho")
            points += [dict(points[0], **{vary: value}) for value in values
                       if value <= sizes[vary]]
        assert len(points) > 9 + 1  # some count points on every preset
        for point in points:
            args = point["rho"], point["schedulers"], point["nodes"]
            from_file = build_instance(source, *args)
            from_preset = preset(name, *args)
            for array in ARRAYS:
                assert (getattr(from_file, array).tobytes()
                        == getattr(from_preset, array).tobytes()), (
                    point, array)


class TestNoRecords:
    """A preset is columns of numbers from import to every sweep point."""

    def test_sources_built_without_records(self, no_records):
        # the module run afresh, as at import, with the records refusing
        spec = importlib.util.find_spec("relsched.presets")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        for name, source in _PRESETS.items():
            for array in ARRAYS[:-1]:
                assert (fresh._PRESETS[name][array].tobytes()
                        == source[array].tobytes()), (name, array)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_sweep_point_without_records(self, name, no_records):
        base = preset(name)
        for rho in cli._sweep_values(cli.parse_range("0.1:0.9:0.1"), False):
            preset(name, rho=rho)
        for count in range(1, base.n_schedulers + 1):
            assert preset(name, n_schedulers=count).n_schedulers == count
        for count in range(1, base.n_nodes + 1):
            assert preset(name, n_nodes=count).n_nodes == count

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_node_arrays_are_from_rate_defaults(self, name):
        # one defaults rule, on arrays here and on numbers in from_rate
        config = preset(name)
        nodes = [NodeParams.from_rate(mu) for mu in config.mu.tolist()]
        for array in ("mu", "mu_prime", "gamma", "beta1"):
            assert getattr(config, array).tolist() == [
                getattr(node, array) for node in nodes], array
