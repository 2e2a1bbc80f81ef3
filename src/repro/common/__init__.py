"""Shared primitive types: enums, messages, address helpers."""

from repro.common.types import (
    L1State,
    L2State,
    MemOpKind,
    MsgKind,
)
from repro.common.messages import Message
from repro.common.addresses import AddressMap

__all__ = [
    "AddressMap",
    "L1State",
    "L2State",
    "MemOpKind",
    "Message",
    "MsgKind",
]
