"""Built-in experiment presets.

The preset tables are compiled in so every experiment can run with zero
external files.  Scheduler weights are relative arrival rates (they are
used as given, not normalised); node entries are average job processing
rates in jobs/second, with failure rate, repair time and mean service
time filled by the standard defaults (mu/10, 5/mu, 1/mu).

A preset is held as the source a config file is read into, formed from
its two tables by model._from_columns; model.build_instance makes every
instance, of a preset, a file or a sweep point, from such a source.
"""

from __future__ import annotations

from .errors import ValidationError
from .model import SystemConfig, _from_columns, build_instance

# Relative job arrival rate of each scheduler (10-scheduler workload).
TABLE1_PHI = (
    0.0035, 0.01, 0.01, 0.01, 0.01, 0.006, 0.005, 0.002, 0.001, 0.001,
)

# Processing rates for the clearly unbalanced 15-node pool.
TABLE2_MU = (
    0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02,
    0.033, 0.033, 0.033,
    0.0231, 0.02511, 0.0153, 0.023, 0.025,
)

# Processing rates for the nearly balanced 15-node pool.
TABLE3_MU = (
    0.031, 0.03, 0.029, 0.029, 0.031, 0.03, 0.03,
    0.033, 0.033, 0.033,
    0.028, 0.029, 0.030, 0.030, 0.031,
)

# 15-node pool used when sweeping the number of schedulers.
TABLE4_MU = (
    0.01, 0.01, 0.01,
    0.02, 0.02, 0.02, 0.02,
    0.033, 0.033, 0.033,
    0.06, 0.05, 0.03, 0.025, 0.03,
)

# 20-scheduler weights used when sweeping the number of schedulers.
TABLE5_PHI = (
    0.0035, 0.01, 0.01, 0.01, 0.01, 0.006, 0.005, 0.002, 0.001, 0.001,
    0.002, 0.005, 0.003, 0.0045, 0.0037, 0.0046, 0.0038, 0.0063, 0.0029,
    0.0048,
)

# 20-node pool used when sweeping the number of nodes.
TABLE6_MU = (
    0.01, 0.01, 0.01,
    0.02, 0.02, 0.02, 0.02,
    0.033, 0.033, 0.033,
    0.06, 0.05, 0.03, 0.025, 0.03,
    0.025, 0.033, 0.028, 0.025, 0.019,
)

# 10-scheduler weights used when sweeping the number of nodes (printed
# alongside the 20-node pool; identical values to the first workload).
TABLE7_PHI = (
    0.0035, 0.01, 0.01, 0.01, 0.01, 0.006, 0.005, 0.002, 0.001, 0.001,
)

# Published objective-gap reference values for the two fixed-pool presets
# at 50 percent load, used by the reproduction report.
REFERENCE_GAPS = {
    "table1-table2": 0.0139,
    "table1-table3": 0.0094,
}


def _source(phis, mus, rho) -> dict:
    """A preset's source, built once: instances share its read-only arrays."""
    return _from_columns({"mu": mus, "phi": phis}, rho)


_PRESETS = {
    # name: source, at the preset's default rho
    "table1-table2": _source(TABLE1_PHI, TABLE2_MU, 0.5),
    "table1-table3": _source(TABLE1_PHI, TABLE3_MU, 0.5),
    "table4-table5": _source(TABLE5_PHI, TABLE4_MU, 0.6),
    # The node-sweep text says 15 schedulers while its weight table lists
    # 10; both readings are exposed, with the as-printed table the default.
    "table6-table7": _source(TABLE7_PHI, TABLE6_MU, 0.6),
    "table6-table7-n15": _source(TABLE5_PHI[:15], TABLE6_MU, 0.6),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, rho: float | None = None,
           n_schedulers: int | None = None, n_nodes: int | None = None,
           **settings) -> SystemConfig:
    """Build a named preset, optionally truncated and at an overridden load;
    the settings (epsilon_threshold, max_cycles) default to SystemConfig's."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return build_instance(_PRESETS[name], rho, n_schedulers, n_nodes,
                          **settings)
