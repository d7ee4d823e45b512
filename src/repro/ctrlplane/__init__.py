"""Transactional control plane (epoch-versioned rule banks + 2PC).

The controller routes every query operation through this subsystem:
:class:`TransactionManager` implements two-phase commit across the
switches a query is sliced onto, :class:`FaultyControlChannel` injects
the seeded loss / timeout / reboot rates of a
:class:`~repro.resilience.FaultPlan`'s ``control`` event (passed as
``build_deployment(faults=...)``) for testing it, and
:class:`TransactionJournal` + the metric registry feed the
``newton-repro txn-stats`` subcommand.
"""

from repro.ctrlplane.channel import (
    ChannelFault,
    ChannelLoss,
    ChannelTimeout,
    FaultyControlChannel,
    SwitchRebooted,
)
from repro.ctrlplane.journal import JournalEntry, TransactionJournal
from repro.ctrlplane.txn import (
    SwitchOps,
    TransactionAborted,
    TransactionManager,
    TxnConfig,
    TxnPlan,
)
from repro.ctrlplane.wal import WalCorruptError, WriteAheadLog

__all__ = [
    "ChannelFault",
    "ChannelLoss",
    "ChannelTimeout",
    "SwitchRebooted",
    "FaultyControlChannel",
    "JournalEntry",
    "TransactionJournal",
    "SwitchOps",
    "TransactionAborted",
    "TransactionManager",
    "TxnConfig",
    "TxnPlan",
    "WalCorruptError",
    "WriteAheadLog",
]
