"""Frozen reference run for the builtin benchmark problem.

The table below is the benchmark's approximate solution on the 50-node
midpoint grid (h = 1/50) computed with the full-cell Volterra row convention
and the pinned iteration counts n0 = 55, N = 2 — the configuration
:data:`REFERENCE_RUN` describes.  The ``table`` subcommand re-solves that
configuration and prints it side by side with these values; the regression
suite requires agreement within 5e-3 at every node.
"""

from __future__ import annotations

import numpy as np

__all__ = ["REFERENCE_RUN", "reference_table"]

# builtin name -> RunConfig keyword arguments of the run that produced the
# reference values (configs/reference.ini describes the same run)
REFERENCE_RUN = {
    "benchmark": {
        "rule": "midpoint",
        "cells": 50,
        "volterra_rows": "full_cell",
        "eps": 1e-3,
        "overrides": {"n0": 55},
    },
}

_BENCHMARK_TABLE = (
    (0.01, 0.0099948368),
    (0.03, 0.0299685542),
    (0.05, 0.0499210957),
    (0.07, 0.0698526617),
    (0.09, 0.0897635423),
    (0.11, 0.1096541138),
    (0.13, 0.1295248320),
    (0.15, 0.1493762257),
    (0.17, 0.1692088902),
    (0.19, 0.1890234780),
    (0.21, 0.2088206886),
    (0.23, 0.2286012617),
    (0.25, 0.2483659629),
    (0.27, 0.2681155773),
    (0.29, 0.2878508938),
    (0.31, 0.3075726969),
    (0.33, 0.3272817556),
    (0.35, 0.3469788114),
    (0.37, 0.3666645658),
    (0.39, 0.3863396700),
    (0.41, 0.4060047106),
    (0.43, 0.4256602069),
    (0.45, 0.4453065831),
    (0.47, 0.4649441741),
    (0.49, 0.4845731957),
    (0.51, 0.5041937466),
    (0.53, 0.5238057793),
    (0.55, 0.5434091045),
    (0.57, 0.5630033477),
    (0.59, 0.5825879388),
    (0.61, 0.6021621161),
    (0.63, 0.6217248525),
    (0.65, 0.6412748634),
    (0.67, 0.6608105470),
    (0.69, 0.6803299576),
    (0.71, 0.6998307414),
    (0.73, 0.7193100805),
    (0.75, 0.7387646198),
    (0.77, 0.7581903691),
    (0.79, 0.7775825937),
    (0.81, 0.7969356971),
    (0.83, 0.8162430208),
    (0.85, 0.8354966758),
    (0.87, 0.8546872738),
    (0.89, 0.8738036297),
    (0.91, 0.8928323854),
    (0.93, 0.9117575067),
    (0.95, 0.9305597280),
    (0.97, 0.9492157979),
    (0.99, 0.9676975410),
)

_TABLES = {"benchmark": _BENCHMARK_TABLE}


def reference_table(name: str):
    """(nodes, approx) reference arrays for a builtin, or KeyError."""
    rows = _TABLES[name]
    t = np.array([r[0] for r in rows])
    approx = np.array([r[1] for r in rows])
    return t, approx
