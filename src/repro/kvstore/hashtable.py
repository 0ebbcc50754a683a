"""The key index — memcached's ``assoc``, as a dict from key to item.

The index half of Figure 5.  Memcached chains items through a power-of-two
bucket array and migrates buckets incrementally when it doubles, so no
single request pays an O(n) rehash.  Here the index is a plain ``dict``:
lookups run in C, and Python's bytes hash is keyed SipHash, so clients
cannot choose keys that pile into one bucket.  The trade is that a dict
resizes all at once under insert/delete churn (DESIGN §2 has the numbers).

:func:`fnv1a_64` is memcached's historical key hash.  The index no longer
uses it, but anti-entropy digests and replica placement put it on the wire,
where every member must compute the same value for the same key.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.kvstore.item import Item

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class HashTable:
    """Key -> :class:`Item` index over a ``dict``.

    ``find`` and ``delete`` are the dict's own bound ``get`` and ``pop``, so
    a lookup costs one C call and no Python frame.
    """

    __slots__ = ("_items", "find", "_pop")

    def __init__(self, initial_power: int = 10) -> None:
        """
        Args:
            initial_power: checked (>= 1) but has no effect, since a dict
                sizes itself; kept for callers written for the chained
                table's ``2**initial_power`` buckets.
        """
        if initial_power < 1:
            raise ValueError("initial_power must be >= 1")
        self._items: Dict[bytes, Item] = {}
        #: ``find(key)``: the item for ``key``, or ``None``
        self.find = self._items.get
        self._pop = self._items.pop

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, item: Item) -> None:
        """Insert a new item.  The key must not already be present."""
        items = self._items
        key = item.key
        if key in items:
            raise KeyError(f"duplicate key {key!r}")
        items[key] = item

    def delete(self, key: bytes) -> Optional[Item]:
        """Remove and return the item for ``key``, or ``None``."""
        return self._pop(key, None)

    def __contains__(self, key: bytes) -> bool:
        return key in self._items

    def items(self) -> Iterator[Item]:
        """Iterate all items."""
        return iter(self._items.values())
