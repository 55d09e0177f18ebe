"""Performance model: measured mechanics to paper-style time series."""

from .model import HwProfile, SwProfile, profile_hardware, profile_software
from .timeline import Segment, Series, format_series

__all__ = [
    "HwProfile", "SwProfile", "profile_hardware", "profile_software",
    "Segment", "Series", "format_series",
]
