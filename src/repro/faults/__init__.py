"""Hardware fault modelling and injection.

The paper's motivation is that future chips will suffer transient,
intermittent and permanent faults from particle strikes, process variation
and wear-out.  This package models the fault scenarios the MMM design must
handle:

* corrupted execution on a DMR pair (caught by fingerprint comparison),
* a store from a performance-mode core whose physical address or permission
  was corrupted by a TLB / datapath fault (caught by the PAB, silent
  corruption without it),
* a privileged register corrupted while a core ran in performance mode
  (caught by the Enter-DMR verification step).

:class:`FaultInjector` plugs into the core timing model as its fault hook;
:class:`FaultInjectionCampaign` runs functional coverage trials over the real
protection components.  Each trial ends in one :class:`FaultOutcome`, and a
:class:`CoverageReport` counts them per protection configuration.  The
campaign is cell-shaped: :mod:`repro.faults.cells` registers a ``faults`` job
kind with the experiment engine, whose cells return outcome counts, so
campaigns run through :class:`repro.sim.runner.ExperimentRunner` -- parallel
and cached -- exactly like the timing experiments (that module is imported by
the top-level ``repro`` package rather than here, keeping this package free of
engine imports).
"""

from repro.faults.campaign import CampaignConfiguration, FaultInjectionCampaign
from repro.faults.injector import FaultInjector, FaultRates
from repro.faults.outcomes import CoverageReport, FaultOutcome

__all__ = [
    "CampaignConfiguration",
    "FaultInjectionCampaign",
    "FaultInjector",
    "FaultRates",
    "CoverageReport",
    "FaultOutcome",
]
