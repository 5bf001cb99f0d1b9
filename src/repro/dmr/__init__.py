"""Reunion-style Dual-Modular Redundancy substrate.

Reunion ("loose lock-stepping") pairs two cores into one logical processor:
the *vocal* core is the coherent master, the *mute* core redundantly executes
the same instruction stream through its own private cache hierarchy without
exposing any values.  Both cores compute fingerprints over their retiring
instructions and compare them; a mismatch indicates a fault (or mute
incoherence) and triggers recovery before anything reaches architected
state.  The dedicated fingerprint network is modelled by its latency alone
(``InterconnectConfig.fingerprint_latency``), which the core timing model
charges on each check and the transition engine on each synchronisation.
"""

from repro.dmr.reunion import CheckOutcome, ReunionPair

__all__ = ["CheckOutcome", "ReunionPair"]
