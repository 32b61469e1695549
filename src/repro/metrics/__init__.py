"""Performance and energy metrics for simulation runs.

AveRT (Eq. 4), success rate (rew_val/N), utilization-by-learning-cycles
(Figures 9–10), run-level assembly, and multi-seed statistics helpers.
"""

from .collector import RunMetrics, collect_metrics
from .response_time import (
    ResponseTimeSummary,
    average_response_time,
    summarize_response_times,
)
from .stats import MeanCI, mean_ci, relative_difference
from .priority_report import (
    PriorityClassReport,
    priority_report,
    render_priority_report,
)
from .streaming import StreamingRunStats
from .success_rate import SuccessSummary, success_rate, summarize_success
from .utilization import UtilizationPoint, utilization_by_cycles

__all__ = [
    "RunMetrics",
    "collect_metrics",
    "ResponseTimeSummary",
    "average_response_time",
    "summarize_response_times",
    "StreamingRunStats",
    "SuccessSummary",
    "success_rate",
    "summarize_success",
    "UtilizationPoint",
    "utilization_by_cycles",
    "PriorityClassReport",
    "priority_report",
    "render_priority_report",
    "MeanCI",
    "mean_ci",
    "relative_difference",
]
