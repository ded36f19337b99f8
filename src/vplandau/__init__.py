"""Deterministic two-species Vlasov-Poisson-Landau spectral solver."""

__version__ = "0.1.0"
