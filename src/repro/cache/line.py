"""Cache-line state."""

from __future__ import annotations

from dataclasses import dataclass, field


class LineError(ValueError):
    """Raised on invalid line operations."""


@dataclass
class CacheLine:
    """One way of one set: tag, status bits and the stored payload.

    ``data`` holds the bytes **as stored in the array** — for an encoded
    cache this is the *encoded* domain.
    """

    line_size: int
    tag: int = 0
    valid: bool = False
    dirty: bool = False
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if self.line_size < 1:
            raise LineError(f"line_size must be >= 1, got {self.line_size}")
        if not self.data:
            self.data = bytearray(self.line_size)
        elif len(self.data) != self.line_size:
            raise LineError(
                f"data must be {self.line_size} bytes, got {len(self.data)}"
            )

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` stored bytes at ``offset``."""
        self._check_range(offset, size)
        return bytes(self.data[offset : offset + size])

    def write(self, offset: int, payload: bytes) -> None:
        """Overwrite stored bytes at ``offset`` (does not set dirty)."""
        self._check_range(offset, len(payload))
        self.data[offset : offset + len(payload)] = payload

    def install(self, tag: int, data: bytes) -> None:
        """Fill this way with a new line."""
        if len(data) != self.line_size:
            raise LineError(
                f"fill data must be {self.line_size} bytes, got {len(data)}"
            )
        self.tag = tag
        self.valid = True
        self.dirty = False
        self.data[:] = data

    def invalidate(self) -> None:
        """Drop the line."""
        self.valid = False
        self.dirty = False

    def _check_range(self, offset: int, size: int) -> None:
        if size < 1:
            raise LineError(f"size must be >= 1, got {size}")
        if offset < 0 or offset + size > self.line_size:
            raise LineError(
                f"range [{offset}, {offset + size}) outside a "
                f"{self.line_size}-byte line"
            )
