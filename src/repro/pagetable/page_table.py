"""A four-level x86-style page table with lazy frame allocation.

The simulated system shares one unified virtual memory between CPU and GPU
(Section 5): on a TLB miss the IOMMU walks a standard four-level x86 table.
This module provides:

- lazy, deterministic virtual→physical frame allocation (frames are assigned
  in first-touch order and scattered across DRAM rows);
- the *physical addresses of the page-table entries themselves* for every
  level of a walk, so walk memory traffic flows through the shared L2 data
  cache and DRAM models exactly like the paper's gem5 setup;
- multiple page sizes (Section 6.2): 4KB and 64KB pages walk four levels,
  2MB pages terminate at the PMD (three levels).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.tlb.base import TranslationEntry

#: Bits of VPN consumed by each radix level of the x86 table.
_LEVEL_BITS = 9
_INDEX_MASK = (1 << _LEVEL_BITS) - 1

#: Physical region where page-table pages themselves live (above 64GB so
#: they never collide with data frames).
_PT_REGION_BASE = 1 << 36

#: Spread consecutively-allocated frames across DRAM rows/banks.
_FRAME_STRIDE = 7

#: The page sizes the table can walk (4KB, 64KB, 2MB), for every entry point
#: that takes a page size to check against.
SUPPORTED_PAGE_SIZES = (4096, 64 * 1024, 2 * 1024 * 1024)


class PageTable:
    """Unified CPU/GPU page table for one simulated machine."""

    def __init__(self, page_size: int = 4096, va_bits: int = 48) -> None:
        if page_size & (page_size - 1):
            raise ValueError("page size must be a power of two")
        if page_size not in SUPPORTED_PAGE_SIZES:
            raise ValueError(f"unsupported page size {page_size}")
        self.page_size = page_size
        self.va_bits = va_bits
        # 2MB pages terminate the walk one level early (PMD leaf).
        self.levels = 3 if page_size == 2 * 1024 * 1024 else 4
        self._mappings: Dict[Tuple[int, int], int] = {}
        self._next_frame = 1
        # Per level: the shift that yields the VPN prefix resolved *before*
        # that level's index.
        self._prefix_shifts = [
            _LEVEL_BITS * (self.levels - level) for level in range(self.levels)
        ]
        # Table-page placement memo: vmid -> per-level {prefix: page base}.
        self._table_pages: Dict[int, List[Dict[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._mappings)

    @property
    def page_offset_bits(self) -> int:
        return self.page_size.bit_length() - 1

    def translate(self, vmid: int, vpn: int) -> int:
        """Resolve (and on first touch, establish) the mapping for ``vpn``."""

        if vpn < 0:
            raise ValueError("negative virtual page number")
        key = (vmid, vpn)
        pfn = self._mappings.get(key)
        if pfn is None:
            pfn = self._allocate_frame()
            self._mappings[key] = pfn
        return pfn

    def _allocate_frame(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        # Multiply by an odd stride so successive allocations land in
        # different DRAM rows/banks; wrap within a 16M-frame physical space.
        return (frame * _FRAME_STRIDE) % (1 << 24)

    def is_mapped(self, vmid: int, vpn: int) -> bool:
        return (vmid, vpn) in self._mappings

    def unmap(self, vmid: int, vpn: int) -> bool:
        """Remove a mapping (page swap/migration; drives shootdowns)."""

        return self._mappings.pop((vmid, vpn), None) is not None

    def entry_for(self, vmid: int, vpn: int, vrf_id: int = 0) -> TranslationEntry:
        return TranslationEntry(vpn=vpn, pfn=self.translate(vmid, vpn), vmid=vmid, vrf_id=vrf_id)

    def walk_addresses(self, vmid: int, vpn: int, first_level: int = 0) -> List[int]:
        """Physical addresses of the PTEs a walk touches, root first.

        A walk whose upper levels hit the page-walk caches starts at
        ``first_level``; the default is a full walk.

        Each level's table page is deterministically placed in the PT region
        based on the VPN prefix it serves, so walks to nearby pages share
        upper-level table lines (this is what makes page-walk caches and the
        L2 data cache effective for walk traffic, as in the paper's model).
        A placement is a pure function of ``(vmid, level, prefix)`` and is
        memoized per table page, of which a walk storm touches few.
        """

        pages = self._table_pages.get(vmid)
        if pages is None:
            pages = self._table_pages[vmid] = [{} for _ in self._prefix_shifts]
        addresses = []
        shifts = self._prefix_shifts
        for level in range(first_level, len(shifts)):
            prefix_shift = shifts[level]
            prefix = vpn >> prefix_shift
            base = pages[level].get(prefix)
            if base is None:
                table_page = hash((vmid, level, prefix)) & 0x3FFFFF
                base = pages[level][prefix] = _PT_REGION_BASE + table_page * 4096
            index = (vpn >> (prefix_shift - _LEVEL_BITS)) & _INDEX_MASK
            addresses.append(base + index * 8)
        return addresses
