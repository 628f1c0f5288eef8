"""Evaluation quantities: per-node reciprocals and the fairness index."""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput
from .model import (Allocation, SystemConfig, _availability, _checked,
                    node_arrivals)


def fairness_index(values) -> float:
    """Jain-style fairness index: (sum v)**2 / (n * sum v**2).

    Equals 1 exactly when all values are equal and decreases as they
    spread; it does not depend on scale, so the values are divided by the
    largest first, which keeps tiny and huge ones from under- or
    overflowing.  values is a 1-D sequence of finite numbers >= 0, not
    booleans, else a ValidationError naming values[k].  Empty or all-zero
    input has no defined index and raises EmptyInput rather than returning
    0/0.
    """
    if not isinstance(values, np.ndarray):  # each entry as given:
        values = np.array(values, dtype=object)  # [1, True] is not 1.0
    if values.size == 0:
        raise EmptyInput("fairness index of an empty value list")
    values = _checked("values", values)
    largest = values.max()
    if largest == 0.0:
        raise EmptyInput("fairness index of an all-zero value list")
    values = values / largest
    square_sum = float(np.sum(values**2))
    return float(np.sum(values)) ** 2 / (values.size * square_sum)


def per_node_reciprocals(alloc: Allocation, config: SystemConfig) -> list[float]:
    """Reciprocal steady-state availability of each node; sums to the objective."""
    avail = _availability(node_arrivals(alloc, config), config.weights)
    return [float(x) for x in 1.0 / avail]
