"""Benchmark harness regenerating every table and figure of the paper.

``repro.bench.experiments`` holds one function per table/figure;
``python -m repro.bench`` runs them all and prints the report.
"""

from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.bench.runner import Aggregate, run_many

__all__ = [
    "Aggregate",
    "EXPERIMENTS",
    "ExperimentResult",
    "run_many",
]
