"""Shared translation-entry record.

Every TLB level, the reconfigurable LDS/I-cache victim caches, the IOMMU
device TLBs, and DUCATI's in-memory TLB all store the same
:class:`TranslationEntry`: a virtual page number, the physical frame it maps
to, and the address-space identifiers the paper carries in its tags
(Figure 7a: a 2-bit VM-ID and a 2-bit VRF-ID for SR-IOV virtualization).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TranslationEntry:
    """One cached virtual-to-physical translation.

    ``key`` — ``(vmid, vrf_id, vpn)``, the lookup key of every structure
    that caches the entry — is built once, at construction: an entry is
    made once per walk and then keyed by several TLB levels and victim
    caches.
    """

    vpn: int
    pfn: int
    vmid: int = 0
    vrf_id: int = 0
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.vmid, self.vrf_id, self.vpn))

    def tag_bits(self, index_bits: int) -> int:
        """The tag the paper stores: VA tag bits above the index, plus IDs.

        Used by the base-delta compression model to decide whether a set of
        co-resident translations is compressible (Figures 7 and 10).
        """

        return ((self.vpn >> index_bits) << 4) | (self.vmid << 2) | self.vrf_id
