"""Stability certificates for algebraic Ricci solitons on Lie groups."""

from . import algebra, curvature, flow, soliton, stability

__version__ = "0.1.0"
