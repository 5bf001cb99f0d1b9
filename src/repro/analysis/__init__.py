"""Result analysis helpers: normalisation and text tables."""

from repro.analysis.metrics import normalize_to
from repro.analysis.tables import TextTable, format_series

__all__ = ["normalize_to", "TextTable", "format_series"]
