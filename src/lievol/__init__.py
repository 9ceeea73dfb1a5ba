"""Exact volumes, curvature and concentration checks for the classical
compact Lie groups."""

__version__ = "0.1.0"
