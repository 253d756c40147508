"""Abstract-interpretation substrates that supply loop postconditions."""

from .annotate import (
    DOMAINS,
    IntervalDomain,
    ZoneDomain,
    annotate_program,
    infer_loop_posts,
)
from .intervals import Interval, IntervalEnv, eval_interval
from .zones import Zone

__all__ = [
    "DOMAINS",
    "IntervalDomain",
    "ZoneDomain",
    "annotate_program",
    "infer_loop_posts",
    "Interval",
    "IntervalEnv",
    "eval_interval",
    "Zone",
]
