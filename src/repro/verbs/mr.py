"""Memory regions."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.verbs.enums import AccessFlags
from repro.verbs.errors import RemoteAccessError, ResourceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.pd import ProtectionDomain


class MemoryRegion:
    """A registered, pinned region of host memory.

    ``addr`` is the base virtual address; ``lkey``/``rkey`` are the local
    and remote protection keys the RNIC's translation & protection unit
    checks on every access.  ``huge_pages`` mirrors the paper's setup of
    backing MRs with 2 MB pages (Section IV-C) to rule out PTE effects.
    """

    def __init__(
        self,
        pd: "ProtectionDomain",
        addr: int,
        length: int,
        access: AccessFlags,
        lkey: int,
        rkey: int,
        huge_pages: bool = True,
    ) -> None:
        if length <= 0:
            raise ResourceError(f"MR length must be positive, got {length}")
        if addr < 0:
            raise ResourceError(f"MR base address must be non-negative, got {addr}")
        self.pd = pd
        self.addr = addr
        self.length = length
        self.access = access
        self.lkey = lkey
        self.rkey = rkey
        self.huge_pages = huge_pages
        self._destroyed = False
        pd.mrs.append(self)

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    @property
    def end(self) -> int:
        return self.addr + self.length

    def contains(self, addr: int, length: int) -> bool:
        """True if [addr, addr+length) lies inside the MR."""
        return self.addr <= addr and addr + length <= self.end

    def check_remote(self, addr: int, length: int, required: AccessFlags) -> None:
        """Validate a one-sided access: bounds and permission flags."""
        if self._destroyed:
            raise RemoteAccessError("access to deregistered MR")
        if not self.contains(addr, length):
            raise RemoteAccessError(
                f"remote access [{addr:#x}, +{length}) outside MR "
                f"[{self.addr:#x}, {self.end:#x})"
            )
        if required and not (self.access & required):
            raise RemoteAccessError(
                f"MR rkey={self.rkey} lacks {required!r} (has {self.access!r})"
            )

    def deregister(self) -> None:
        if self._destroyed:
            raise ResourceError("MR already deregistered")
        self._destroyed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MR rkey={self.rkey} addr={self.addr:#x} len={self.length} "
            f"access={self.access!r}>"
        )
