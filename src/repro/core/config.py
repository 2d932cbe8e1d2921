"""Configuration of a CNT-Cache (or baseline) simulation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from dataclasses import fields as dataclass_fields
from typing import Any

from repro.cache.replacement import replacement_policy_names
from repro.cnfet.energy import (
    ENCODER_LOGIC_FJ,
    PERIPHERAL_FJ_PER_ACCESS,
    PREDICTOR_LOGIC_FJ,
    BitEnergyModel,
)
from repro.cnfet.leakage import LeakageModel
from repro.predictor.history import history_bits

#: Encoding schemes selectable via :attr:`CNTCacheConfig.scheme`.
#:
#: ``baseline``       unencoded CNFET cache (the paper's comparison point)
#: ``static-invert``  every line stored complemented, unconditionally
#: ``fill-greedy``    direction chosen once at fill (write-preferred), fixed
#: ``dbi``            classic per-word data-bus inversion at write time
#: ``invert``         CNT-Cache with whole-line codec (paper's "baseline
#:                    encoding approach", K = 1)
#: ``cnt``            full CNT-Cache: partitioned codec + Algorithm 1
#: ``cnt-quant``      hardware-cheapened CNT-Cache: the exact Wr_num
#:                    counter is replaced by a 2-bit write-intensity
#:                    counter (extension study, ablation A6)
#: ``cnt-shared``     hardware-cheapened CNT-Cache: one history-counter
#:                    pair shared by all ways of a set, amortising the H
#:                    bits at the cost of inter-line aliasing (A6)
SCHEMES = (
    "baseline",
    "static-invert",
    "fill-greedy",
    "dbi",
    "invert",
    "cnt",
    "cnt-quant",
    "cnt-shared",
)


class ConfigError(ValueError):
    """Raised on inconsistent configuration."""


@dataclass(frozen=True)
class CNTCacheConfig:
    """Full description of one simulated D-Cache instance.

    Geometry defaults follow the usual embedded L1 D-Cache of DATE-era
    evaluations: 32 KiB, 4-way, 64-byte lines, LRU, write-back +
    write-allocate.  Algorithm defaults follow the paper: window ``W = 16``
    (the draft text's "15 accesses" checkpoint rounded to the power of two
    that makes the history counters exactly 4+4 bits), ``K = 8`` partitions,
    no hysteresis.
    """

    # geometry
    size: int = 32 * 1024
    assoc: int = 4
    line_size: int = 64
    replacement: str = "lru"
    #: Write handling: ``wb-wa`` (write-back + write-allocate, the default
    #: and the paper's setting), ``wt-wa`` (write-through + allocate),
    #: ``wt-nwa`` (write-through + no-write-allocate: write misses bypass
    #: the array) or ``wb-nwa``.
    write_policy: str = "wb-wa"

    # encoding scheme
    scheme: str = "cnt"
    window: int = 16
    partitions: int = 8
    delta_t: float = 0.0
    dbi_word_bytes: int = 4

    # deferred-update FIFOs
    fifo_depth: int = 8
    drain_per_access: int = 1

    # energy accounting
    energy: BitEnergyModel = field(default_factory=BitEnergyModel.paper_table1)
    #: ``line``: every demand access activates the whole row, so all L bits
    #: of the line are read (reads) or written (writes) — this is the
    #: granularity the paper's Eq. 4/5 charge and the default.  ``word``:
    #: only the accessed bytes are metered (a divided-wordline array);
    #: provided for the access-granularity ablation.
    access_granularity: str = "line"
    account_metadata: bool = True
    #: Constant energy of the mux/inverter datapath per access, fJ.
    #: Calibration constants live with the device physics in
    #: :mod:`repro.cnfet.energy` (lint rule R002).
    encoder_logic_fj: float = ENCODER_LOGIC_FJ
    #: Constant energy of one predictor table lookup + compare, fJ.
    predictor_logic_fj: float = PREDICTOR_LOGIC_FJ
    #: Value-independent energy of one array activation, fJ — the
    #: repository's single pinned calibration constant (see
    #: :data:`repro.cnfet.energy.PERIPHERAL_FJ_PER_ACCESS` for the full
    #: rationale and the sensitivity ablation pointer).
    peripheral_fj_per_access: float = PERIPHERAL_FJ_PER_ACCESS
    #: Direction word assigned to a line at fill time (adaptive schemes):
    #: ``neutral`` (all uninverted), ``read-greedy`` (per-partition majority
    #: toward stored '1's — cheap reads; the default, since demand reads
    #: dominate), or ``write-greedy`` (toward stored '0's).
    fill_policy: str = "read-greedy"
    #: Optional state-dependent leakage accounting (extension A9).  None
    #: (the default) reproduces the paper's dynamic-only metric; pass
    #: ``LeakageModel.cnfet()`` / ``.cmos()`` to add per-cycle static
    #: energy tracked against the cache's live stored-bit population.
    leakage: LeakageModel | None = None

    # misc
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; known: {SCHEMES}"
            )
        if self.size < 1 or self.assoc < 1 or self.line_size < 1:
            raise ConfigError("size/assoc/line_size must be positive")
        if self.size % (self.assoc * self.line_size) != 0:
            raise ConfigError(
                f"size {self.size} not divisible by assoc*line_size"
            )
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if self.partitions < 1:
            raise ConfigError(
                f"partitions must be >= 1, got {self.partitions}"
            )
        if self.line_size % self.partitions != 0:
            raise ConfigError(
                f"{self.partitions} partitions do not divide a "
                f"{self.line_size}-byte line"
            )
        if not 0.0 <= self.delta_t < 1.0:
            raise ConfigError(f"delta_t must be in [0, 1), got {self.delta_t}")
        if self.fifo_depth < 1:
            raise ConfigError(f"fifo_depth must be >= 1, got {self.fifo_depth}")
        if self.drain_per_access < 0:
            raise ConfigError(
                f"drain_per_access must be >= 0, got {self.drain_per_access}"
            )
        if self.encoder_logic_fj < 0 or self.predictor_logic_fj < 0:
            raise ConfigError("logic energies must be non-negative")
        if self.access_granularity not in ("line", "word"):
            raise ConfigError(
                "access_granularity must be 'line' or 'word', got "
                f"{self.access_granularity!r}"
            )
        if self.peripheral_fj_per_access < 0:
            raise ConfigError("peripheral_fj_per_access must be non-negative")
        if self.fill_policy not in ("neutral", "read-greedy", "write-greedy"):
            raise ConfigError(
                "fill_policy must be 'neutral', 'read-greedy' or "
                f"'write-greedy', got {self.fill_policy!r}"
            )
        if self.write_policy not in ("wb-wa", "wt-wa", "wt-nwa", "wb-nwa"):
            raise ConfigError(
                f"unknown write_policy {self.write_policy!r}; known: "
                "wb-wa, wt-wa, wt-nwa, wb-nwa"
            )
        if self.dbi_word_bytes < 1 or self.line_size % self.dbi_word_bytes:
            raise ConfigError(
                f"dbi_word_bytes {self.dbi_word_bytes} must divide "
                f"line_size {self.line_size}"
            )
        if self.replacement not in replacement_policy_names():
            raise ConfigError(
                f"unknown replacement policy {self.replacement!r}; "
                f"known: {replacement_policy_names()}"
            )
        if not isinstance(self.energy, BitEnergyModel):
            raise ConfigError(
                "energy must be a BitEnergyModel, got "
                f"{type(self.energy).__name__}"
            )
        if not isinstance(self.account_metadata, bool):
            raise ConfigError(
                "account_metadata must be a bool, got "
                f"{type(self.account_metadata).__name__}"
            )
        if self.leakage is not None and not isinstance(
            self.leakage, LeakageModel
        ):
            raise ConfigError(
                "leakage must be a LeakageModel or None, got "
                f"{type(self.leakage).__name__}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def write_through(self) -> bool:
        """True when stores are mirrored straight to memory."""
        return self.write_policy.startswith("wt")

    @property
    def write_allocate(self) -> bool:
        """True when write misses install the line."""
        return self.write_policy.endswith("wa") and not self.write_policy.endswith("nwa")

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.assoc * self.line_size)

    @property
    def n_lines(self) -> int:
        """Total number of lines."""
        return self.size // self.line_size

    @property
    def substrate_key(self) -> tuple:
        """The fields the substrate cache reads: geometry, replacement,
        write policy and seed.

        Two configs with equal keys see the same hits, ways, victims and
        fills on any trace; the scheme, its knobs, the granularity and
        the energy and leakage models only consume those events.
        """
        return (
            self.size,
            self.assoc,
            self.line_size,
            self.replacement,
            self.write_through,
            self.write_allocate,
            self.seed,
        )

    @property
    def line_bits(self) -> int:
        """Data bits per line."""
        return self.line_size * 8

    @property
    def uses_predictor(self) -> bool:
        """True for the adaptive schemes that run Algorithm 1."""
        return self.scheme in ("invert", "cnt", "cnt-quant", "cnt-shared")

    @property
    def shared_history(self) -> bool:
        """True when the history counters are per set, not per line."""
        return self.scheme == "cnt-shared"

    @property
    def direction_bits_per_line(self) -> int:
        """D metadata bits the scheme adds to each line."""
        if self.scheme == "baseline":
            return 0
        if self.scheme in ("static-invert", "invert"):
            return 1
        if self.scheme == "dbi":
            return self.line_size // self.dbi_word_bytes
        if self.scheme == "fill-greedy":
            return self.partitions
        return self.partitions  # cnt, cnt-quant

    @property
    def history_bits_per_line(self) -> int:
        """H metadata bits (the two window counters), adaptive schemes only.

        ``cnt-quant`` replaces the exact ``Wr_num`` counter with a 2-bit
        write-intensity counter, keeping only the ``A_num`` window counter
        at full width.  ``cnt-shared`` stores one full counter pair per
        *set*, so each line carries only the amortised share.
        """
        if not self.uses_predictor:
            return 0
        if self.scheme == "cnt-quant":
            return history_bits(self.window) // 2 + 2
        if self.scheme == "cnt-shared":
            return -(-history_bits(self.window) // self.assoc)  # ceil
        return history_bits(self.window)

    @property
    def metadata_bits_per_line(self) -> int:
        """Total H&D widening of each line."""
        return self.direction_bits_per_line + self.history_bits_per_line

    @property
    def storage_overhead(self) -> float:
        """H&D bits as a fraction of the data bits."""
        return self.metadata_bits_per_line / self.line_bits

    def variant(self, **changes: Any) -> "CNTCacheConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # serialization (exec-engine job fingerprints and result cache)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready snapshot; inverse of :meth:`from_dict`.

        Nested models serialize through their own ``to_dict``; field order
        follows the dataclass declaration, so
        ``json.dumps(config.to_dict(), sort_keys=True)`` is a stable
        canonical form suitable for content hashing.
        """
        payload: dict[str, Any] = {}
        for spec in dataclass_fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("energy", "leakage"):
                payload[spec.name] = None if value is None else value.to_dict()
            else:
                payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CNTCacheConfig":
        """Rebuild (and re-validate) a config from a :meth:`to_dict` snapshot."""
        if not isinstance(payload, dict):
            raise ConfigError(
                f"config payload must be a dict, got {type(payload).__name__}"
            )
        expected = {spec.name for spec in dataclass_fields(cls)}
        unknown = set(payload) - expected
        missing = expected - set(payload)
        if unknown or missing:
            raise ConfigError(
                f"config payload key mismatch: unknown={sorted(unknown)} "
                f"missing={sorted(missing)}"
            )
        kwargs = dict(payload)
        kwargs["energy"] = BitEnergyModel.from_dict(kwargs["energy"])
        if kwargs["leakage"] is not None:
            kwargs["leakage"] = LeakageModel.from_dict(kwargs["leakage"])
        return cls(**kwargs)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.scheme}: {self.size // 1024} KiB {self.assoc}-way, "
            f"{self.line_size} B lines, {self.replacement.upper()}, "
            f"W={self.window}, K={self.partitions}, dT={self.delta_t}, "
            f"H&D={self.metadata_bits_per_line} bits/line "
            f"({100 * self.storage_overhead:.1f}%)"
        )
