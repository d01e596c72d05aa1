"""Exact genus-0 Gromov-Witten invariants and Virasoro constraint checks."""

__version__ = "0.1.0"
