"""Module-type vocabulary shared across the data plane and the compiler."""

from __future__ import annotations

from enum import Enum

__all__ = ["ModuleType", "MODULE_ORDER"]


class ModuleType(Enum):
    """The four reconfigurable Newton modules (paper §4.1)."""

    KEY_SELECTION = "K"
    HASH_CALCULATION = "H"
    STATE_BANK = "S"
    RESULT_PROCESS = "R"

    #: Members are singletons compared by identity, so identity hashes
    #: them: ``(stage, module type)`` slots key the occupancy tallies, and
    #: ``Enum``'s own ``__hash__`` (a Python call) dominated their lookups.
    __hash__ = object.__hash__

    @property
    def symbol(self) -> str:
        return self.value


#: Intra-suite dataflow order: K writes keys read by H, H writes the hash
#: result read by S, S writes the state result read by R (paper Figure 4).
MODULE_ORDER = (
    ModuleType.KEY_SELECTION,
    ModuleType.HASH_CALCULATION,
    ModuleType.STATE_BANK,
    ModuleType.RESULT_PROCESS,
)
