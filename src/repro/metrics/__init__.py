"""Metrics: collection, utilization reports, and figure tables."""

from .collectors import MetricsCollector, percentile
from .report import Table, az_skew_note, format_value
from .utilization import AzUtilization, ResourceReport, add_network_rates

__all__ = [
    "MetricsCollector",
    "percentile",
    "Table",
    "az_skew_note",
    "format_value",
    "AzUtilization",
    "ResourceReport",
    "add_network_rates",
]
