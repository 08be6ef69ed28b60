"""Measurement statistics, repeat-trial harnesses, and report rendering."""

from repro.analysis.experiment import AccuracyExperiment, TrialOutcome
from repro.analysis.paper_report import build_report
from repro.analysis.roc import auc, classifier_auc, roc_curve
from repro.analysis.thresholds import compare_strategies, otsu, valley
from repro.analysis.stats import (
    TimingSummary,
    discriminability,
    summarize,
    threshold_quality,
)
from repro.analysis.report import format_table, format_histogram

__all__ = [
    "AccuracyExperiment",
    "auc",
    "build_report",
    "classifier_auc",
    "compare_strategies",
    "otsu",
    "roc_curve",
    "valley",
    "TimingSummary",
    "TrialOutcome",
    "discriminability",
    "format_histogram",
    "format_table",
    "summarize",
    "threshold_quality",
]
