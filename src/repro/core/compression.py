"""Base-delta compression of co-resident translation tags.

Both reconfigurable structures squeeze several translation tags into the
space of one (Figures 7b and 10c):

- LDS: three 32-bit tags compressed into one 8-byte word using a 16-bit base
  plus three 16-bit deltas;
- I-cache: eight 39-bit tags into the widened 12-byte tag using a 32-bit
  base plus eight 8-bit deltas.

The functional model: a group of tags is packable iff every tag's delta from
the group's minimum tag fits in the per-tag delta width. A fill whose tag
cannot pack with the resident tags must first evict residents until the
group packs again (the paper does not detail this corner; eviction of the
LRU incompatible resident is the natural hardware behaviour and we count how
often it happens).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


class BaseDeltaCodec:
    """Packability test for base-delta-compressed tag groups."""

    def __init__(self, base_bits: int, delta_bits: int) -> None:
        if base_bits < 1 or delta_bits < 1:
            raise ValueError("base and delta widths must be positive")
        self.base_bits = base_bits
        self.delta_bits = delta_bits
        self._delta_limit = 1 << delta_bits

    def can_pack(self, tags: Sequence[int]) -> bool:
        """Whether ``tags`` can co-reside in one compressed tag group.

        The base field anchors the group's shared upper bits (whatever they
        are), so packability depends only on the spread between the tags:
        every delta from the group minimum must fit ``delta_bits``.
        """

        if not tags:
            return True
        lo = min(tags)
        if lo < 0:
            raise ValueError("tags must be non-negative")
        return (max(tags) - lo) < self._delta_limit

    def packable_subset(self, resident: Sequence[int], incoming: int) -> List[int]:
        """Residents (values) that remain packable alongside ``incoming``.

        Keeps the residents closest to the incoming tag; the caller evicts
        the rest.
        """

        keep = [tag for tag in resident if abs(tag - incoming) < self._delta_limit]
        while keep and not self.can_pack(keep + [incoming]):
            # Drop the resident farthest from the incoming tag.
            keep.remove(max(keep, key=lambda tag: abs(tag - incoming)))
        return keep

    def evict_unpackable(self, residents, incoming, index_bits: int):
        """Make room for ``incoming`` in a compressed tag group.

        ``residents`` maps keys to translation entries, least recently
        used first. Pops and returns the LRU resident whose tag
        :meth:`packable_subset` would drop, or returns None when every
        resident packs with ``incoming``.
        """

        if not residents:
            return None
        new_tag = incoming.tag_bits(index_bits)
        tags = [resident.tag_bits(index_bits) for resident in residents.values()]
        if max(max(tags), new_tag) - min(min(tags), new_tag) < self._delta_limit:
            # The whole group packs: packable_subset would keep every tag.
            return None
        packable = set(self.packable_subset(tags, new_tag))
        for key, tag in zip(list(residents), tags):
            if tag not in packable:
                return residents.pop(key)
        return None

    def compressed_bits(self, count: int) -> int:
        """Size of a compressed group of ``count`` tags, in bits."""

        return self.base_bits + count * self.delta_bits
