"""The DUCATI comparator (Section 6.3.4).

The Perfect-L2-TLB upper bound is a configuration, not a structure:
:meth:`repro.config.SystemConfig.with_perfect_l2_tlb`.
"""

from repro.baselines.ducati import DucatiStore

__all__ = ["DucatiStore"]
