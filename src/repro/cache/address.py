"""Address decomposition for set-associative caches."""

from __future__ import annotations

from dataclasses import dataclass


class AddressError(ValueError):
    """Raised on invalid cache geometry or addresses."""


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class AddressMapper:
    """Maps byte addresses to (tag, set index, line offset) and back.

    Both ``line_size`` and ``n_sets`` must be powers of two so the mapping
    is pure bit slicing, as in hardware.
    """

    line_size: int
    n_sets: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_size):
            raise AddressError(
                f"line_size must be a power of two, got {self.line_size}"
            )
        if not _is_pow2(self.n_sets):
            raise AddressError(f"n_sets must be a power of two, got {self.n_sets}")

    @property
    def offset_bits(self) -> int:
        """Bits selecting a byte within the line."""
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Bits selecting the set."""
        return self.n_sets.bit_length() - 1

    def split(self, addr: int) -> tuple[int, int, int]:
        """Decompose ``addr`` into ``(tag, set_index, offset)``."""
        if addr < 0:
            raise AddressError(f"address must be non-negative, got {addr}")
        offset = addr & (self.line_size - 1)
        set_index = (addr >> self.offset_bits) & (self.n_sets - 1)
        tag = addr >> (self.offset_bits + self.index_bits)
        return tag, set_index, offset

    def line_address(self, addr: int) -> int:
        """The address of the first byte of ``addr``'s line."""
        if addr < 0:
            raise AddressError(f"address must be non-negative, got {addr}")
        return addr & ~(self.line_size - 1)

    def rebuild(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Inverse of :meth:`split`."""
        if not 0 <= set_index < self.n_sets:
            raise AddressError(
                f"set_index must be in [0, {self.n_sets}), got {set_index}"
            )
        if not 0 <= offset < self.line_size:
            raise AddressError(
                f"offset must be in [0, {self.line_size}), got {offset}"
            )
        if tag < 0:
            raise AddressError(f"tag must be non-negative, got {tag}")
        return (
            (tag << (self.offset_bits + self.index_bits))
            | (set_index << self.offset_bits)
            | offset
        )

    def spans_lines(self, addr: int, size: int) -> bool:
        """True iff the byte range [addr, addr+size) crosses a line boundary."""
        if size < 1:
            raise AddressError(f"size must be >= 1, got {size}")
        return self.line_address(addr) != self.line_address(addr + size - 1)

    def line_parts(self, addr: int, size: int) -> list[tuple[int, int]]:
        """Split [addr, addr+size) at line boundaries into (addr, size) parts."""
        if size < 1:
            raise AddressError(f"size must be >= 1, got {size}")
        line_size = self.line_size
        parts: list[tuple[int, int]] = []
        while size > 0:
            chunk = min(size, line_size - (addr & (line_size - 1)))
            parts.append((addr, chunk))
            addr += chunk
            size -= chunk
        return parts
