"""Transactional control plane (epoch-versioned rule banks + 2PC).

The controller routes every query operation through this subsystem:
:class:`TransactionManager` implements two-phase commit across the
switches a query is sliced onto, :class:`FaultyControlChannel` injects
seeded loss / timeout / reboot faults for testing it, and
:class:`TransactionJournal` + the metric registry feed the
``newton-repro txn-stats`` subcommand.
"""

from repro.ctrlplane.channel import (
    ChannelFault,
    ChannelLoss,
    ChannelTimeout,
    FaultPlan,
    FaultyControlChannel,
    SwitchRebooted,
)
from repro.ctrlplane.journal import JournalEntry, TransactionJournal

#: Disambiguating alias: ``repro.resilience.FaultPlan`` is the unified
#: declarative fault schedule; this one only shapes the control channel.
ChannelFaultPlan = FaultPlan
from repro.ctrlplane.txn import (
    SwitchOps,
    TransactionAborted,
    TransactionManager,
    TxnConfig,
    TxnPlan,
    TxnResult,
)
from repro.ctrlplane.wal import WalCorruptError, WriteAheadLog

__all__ = [
    "ChannelFault",
    "ChannelFaultPlan",
    "ChannelLoss",
    "ChannelTimeout",
    "SwitchRebooted",
    "FaultPlan",
    "FaultyControlChannel",
    "JournalEntry",
    "TransactionJournal",
    "SwitchOps",
    "TransactionAborted",
    "TransactionManager",
    "TxnConfig",
    "TxnPlan",
    "TxnResult",
    "WalCorruptError",
    "WriteAheadLog",
]
