"""One bounded, insertion-ordered lookup table.

Process-wide memo tables -- the compiled backend's lowered units
(source, code object and translation-validation verdict), the model
checker's clean channel proofs -- must not grow without bound in a
long-running process.  Each is a :class:`FifoTable`: once it holds ``limit``
entries, storing a new key evicts the oldest one.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional


class FifoTable:
    """A dict bounded to ``limit`` entries, evicting first-in first."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"FifoTable limit must be >= 1 (got {limit})")
        self.limit = limit
        self._entries: Dict[Hashable, Any] = {}

    def get(self, key: Hashable) -> Optional[Any]:
        return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting the oldest entry
        when a new key would exceed the limit."""
        if key not in self._entries and len(self._entries) >= self.limit:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries
