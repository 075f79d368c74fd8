"""Evaluation harness: metrics, cost modelling, sweeps and reporting.

This subpackage regenerates the paper's Section VII experiments:

* :mod:`repro.eval.metrics` — Recall@k, QPS, latency summaries.
* :mod:`repro.eval.costmodel` — a configurable network model that converts
  bytes and round trips into latency, plus MAC-count accounting, so
  user-involved baselines (RS-SANN, PACM-ANN, PRI-ANN) pay their
  communication bills the way the paper's testbed would.
* :mod:`repro.eval.runner` — recall-vs-QPS curve sweeps over ``ef_search``
  / ``ratio_k`` for any method exposing the common search protocol.
* :mod:`repro.eval.reporting` — fixed-width text tables mirroring the
  paper's tables and figure series.
"""

from repro.eval.costmodel import CostReport, NetworkModel, SetupCost
from repro.eval.metrics import (
    LatencySummary,
    recall_at_k,
    mean_recall,
    qps_from_latencies,
    summarize_latencies,
)
from repro.eval.opcount import QueryCostModel, predict_query_cost
from repro.eval.plotting import render_curves
from repro.eval.runner import (
    CurvePoint,
    MethodCurve,
    sweep_filter_only,
    sweep_ppanns,
)
from repro.eval.reporting import format_table, format_curve

__all__ = [
    "CostReport",
    "NetworkModel",
    "SetupCost",
    "LatencySummary",
    "recall_at_k",
    "mean_recall",
    "qps_from_latencies",
    "summarize_latencies",
    "CurvePoint",
    "MethodCurve",
    "sweep_ppanns",
    "sweep_filter_only",
    "format_table",
    "format_curve",
    "render_curves",
    "QueryCostModel",
    "predict_query_cost",
]
