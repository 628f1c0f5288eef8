"""Built-in experiment presets and the one rule that makes an instance.

The preset tables are compiled in so every experiment can run with zero
external files.  Scheduler weights are relative arrival rates (they are
used as given, not normalised); node entries are average job processing
rates in jobs/second, with failure rate, retrial time and mean service
time filled by the standard defaults (mu/10, 5/mu, 1/mu).

A preset is held as the record dict a config file is read into, and
build_instance makes every instance, of a preset, a file or a sweep point,
from such records.
"""

from __future__ import annotations

from .errors import ValidationError
from .model import (NodeParams, SchedulerParams, SystemConfig, _is_number,
                    build_config)

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


def _records(phis, mus, rho) -> dict:
    """A preset's records, built once at import: they are immutable, so
    every instance made from them shares (a prefix of) them."""
    return dict(schedulers=tuple(SchedulerParams(phi=phi) for phi in phis),
                nodes=tuple(NodeParams.from_rate(mu) for mu in mus), rho=rho)


_PRESETS = {
    # name: records, at the preset's default rho
    "table1-table2": _records(TABLE1_PHI, TABLE2_MU, 0.5),
    "table1-table3": _records(TABLE1_PHI, TABLE3_MU, 0.5),
    "table4-table5": _records(TABLE5_PHI, TABLE4_MU, 0.6),
    # The node-sweep text says 15 schedulers while its weight table lists
    # 10; both readings are exposed, with the as-printed table the default.
    "table6-table7": _records(TABLE7_PHI, TABLE6_MU, 0.6),
    "table6-table7-n15": _records(TABLE5_PHI[:15], TABLE6_MU, 0.6),
}

PRESET_NAMES = tuple(_PRESETS)


def build_instance(records: dict, rho: float | None = None,
                   n_schedulers: int | None = None,
                   n_nodes: int | None = None, **settings) -> SystemConfig:
    """The instance made from records (nodes, schedulers, rho and any
    settings), cut to their first n_schedulers and n_nodes (a count that is
    not an integer, or fewer than one or more than they hold, is a
    ValidationError), at load rho (default theirs) and with the settings
    given here in place of theirs.

    A rate given in the records stands unless the load or the node set
    differs from theirs; then each scheduler with a positive phi has its
    rate derived again.
    """
    point = {**records, **settings}
    for key, count in (("schedulers", n_schedulers), ("nodes", n_nodes)):
        if count is not None and not (_is_number(count, integer=True)
                                      and 1 <= count <= len(records[key])):
            raise ValidationError(
                f"instance supports 1..{len(records[key])} {key}")
        point[key] = records[key][:count]
    if rho is not None:
        point["rho"] = rho
    if (point["rho"] != records["rho"]
            or len(point["nodes"]) < len(records["nodes"])):
        point["schedulers"] = tuple(
            SchedulerParams(phi=s.phi) if s.phi > 0 and s.lam is not None
            else s for s in point["schedulers"])
    return build_config(**point)


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
