"""Process-independent hashing shared by every layer.

Lives outside the layer packages so that, e.g., CephFS subtree placement
does not import (or bill host time to) the NDB package.
"""

from __future__ import annotations

import zlib
from typing import Hashable

__all__ = ["stable_hash"]


def stable_hash(key: Hashable) -> int:
    """Deterministic cross-run hash for partition keys."""
    return zlib.crc32(repr(key).encode("utf-8", "surrogatepass"))
