"""Small metric helpers for reading experiment results off their frames."""

from __future__ import annotations

from typing import Dict, Mapping


def normalize_to(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Normalise every value to the value stored under ``baseline_key``.

    A zero or missing baseline yields zeros (rather than raising), which keeps
    report generation robust against degenerate runs.
    """
    baseline = values.get(baseline_key, 0.0)
    if baseline == 0.0:
        return {key: 0.0 for key in values}
    return {key: value / baseline for key, value in values.items()}

