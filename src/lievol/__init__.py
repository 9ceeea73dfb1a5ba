"""Exact volumes, curvature and concentration checks for the classical
compact Lie groups."""

__version__ = "0.1.0"

from .exact import ExactScalar
from .roots import RootSystem, Series, build_root_system
from .volumes import (VolumeResult, closed_form_volume, group_volume,
                      log_volume, ratio_exponent)

__all__ = [
    "ExactScalar", "RootSystem", "Series", "build_root_system",
    "VolumeResult", "closed_form_volume", "group_volume", "log_volume",
    "ratio_exponent", "__version__",
]
