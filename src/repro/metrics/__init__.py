"""Metrics: collection, utilization reports, and figure tables."""

from .collectors import MetricsCollector, percentile
from .report import Table, az_skew_note, format_value
from .utilization import AzUtilization, ResourceReport, per_az_utilization

__all__ = [
    "MetricsCollector",
    "percentile",
    "Table",
    "az_skew_note",
    "format_value",
    "AzUtilization",
    "ResourceReport",
    "per_az_utilization",
]
