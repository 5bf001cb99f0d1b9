"""Result analysis helpers: normalisation and text tables."""

from repro.analysis.metrics import normalize_to
from repro.analysis.tables import TextTable

__all__ = ["normalize_to", "TextTable"]
