"""Coherence messages and flit accounting.

The simulated NoC moves 32-bit flits (paper Table III). A control message
(request, ack, renew, invalidate) is a handful of flits; a data message adds
the full 128-byte cache block. Flit counts therefore depend only on the
message kind and the configured block size, which is exactly how the paper's
traffic figures (Fig. 9c) are broken down.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.common.types import MsgKind

_msg_ids = itertools.count()

#: Flits in a control-only message: address + command + timestamp metadata.
#: 8 bytes of header/metadata over 32-bit flits.
CONTROL_FLITS = 2


class Message:
    """A single coherence message travelling between an L1, an L2 bank,
    or a memory partition.

    Hand-written rather than a dataclass: one Message is allocated per
    hop of every coherence transaction, and the generated ``__init__``
    (two ``default_factory`` calls, an eager ``meta`` dict that most
    control messages never touch) was measurable in the event loop. The
    ``meta`` dict is materialized on first access instead.

    Attributes
    ----------
    kind:
        The :class:`~repro.common.types.MsgKind` of the message.
    addr:
        Block-aligned address the message concerns.
    src / dst:
        Endpoint ids. Cores are ``("core", i)``; L2 banks ``("l2", j)``;
        memory partitions ``("mem", j)``.
    now / exp / ver:
        Timestamp payloads, used by RCC (logical) and TC (physical)
        protocols; ``None`` when not applicable.
    value:
        The data token carried by data messages. The simulator models block
        contents as opaque, unique store tokens so the SC checker can
        reconstruct reads-from edges.
    meta:
        Protocol-private payload (e.g. MESI sharer lists on invalidate acks).
    """

    __slots__ = ("kind", "addr", "src", "dst", "now", "exp", "ver", "value",
                 "_meta", "msg_id")

    def __init__(self, kind: MsgKind, addr: int, src: Any, dst: Any,
                 now: Optional[int] = None, exp: Optional[int] = None,
                 ver: Optional[int] = None, value: Any = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.kind = kind
        self.addr = addr
        self.src = src
        self.dst = dst
        self.now = now
        self.exp = exp
        self.ver = ver
        self.value = value
        self._meta = meta
        self.msg_id = next(_msg_ids)

    @property
    def meta(self) -> Dict[str, Any]:
        m = self._meta
        if m is None:
            m = self._meta = {}
        return m

    @meta.setter
    def meta(self, value: Dict[str, Any]) -> None:
        self._meta = value

    def flits(self, block_bytes: int = 128, flit_bytes: int = 4) -> int:
        """Number of flits this message occupies on a link."""
        n = CONTROL_FLITS
        if self.kind.carries_data:
            n += (block_bytes + flit_bytes - 1) // flit_bytes
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ts = "".join(
            f" {k}={v}"
            for k, v in (("now", self.now), ("exp", self.exp), ("ver", self.ver))
            if v is not None
        )
        return (
            f"<{self.kind.value} addr=0x{self.addr:x} {self.src}->{self.dst}{ts}>"
        )
