"""Machine configurations (Table I baseline and Table II Configuration A)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.cache import CacheConfig
from repro.memory.tlb import TlbConfig


@dataclass(frozen=True)
class MachineConfig:
    """Out-of-order core + memory hierarchy configuration.

    Field defaults correspond to the paper's baseline Alpha 21264-class
    configuration (Table I).  Use :func:`baseline_config` / :func:`config_a`
    to obtain the two configurations evaluated in the paper, or
    ``dataclasses.replace`` to derive custom ones.
    """

    name: str = "baseline"

    # Widths (Table I: fetch/slot/map/issue/commit = 4/4/4/4/4).
    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    memory_issue_width: int = 2  # the 21264 issues at most two memory ops/cycle

    # Functional units.
    int_alus: int = 4
    int_multipliers: int = 1
    alu_latency: int = 1
    multiply_latency: int = 7
    divide_latency: int = 20

    # Queueing structures.
    iq_entries: int = 20
    iq_bits_per_entry: int = 32
    rob_entries: int = 80
    rob_bits_per_entry: int = 76
    lq_entries: int = 32
    sq_entries: int = 32
    lsq_bits_per_entry: int = 128  # split evenly between tag and data arrays
    rename_registers: int = 80
    register_bits: int = 64
    architected_registers: int = 32
    fu_bits_per_unit: int = 64

    # Branch handling.
    branch_predictor_global_entries: int = 4096
    branch_predictor_local_entries: int = 1024
    branch_predictor_choice_entries: int = 4096
    branch_misprediction_penalty: int = 7

    # Memory hierarchy.
    dl1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="dl1", size_bytes=64 * 1024, associativity=2, line_bytes=64, hit_latency=3
        )
    )
    il1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="il1", size_bytes=64 * 1024, associativity=2, line_bytes=64, hit_latency=1
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="l2", size_bytes=1024 * 1024, associativity=1, line_bytes=64, hit_latency=7
        )
    )
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig(entries=256, page_bytes=8 * 1024))
    memory_latency: int = 200
    tlb_miss_penalty: int = 30

    # Flag-gated tracked structures (PR 4).  Zero entries disables both the
    # structure and its SER accounting, leaving the stock paper configurations
    # bit-identical; see the ``extended`` registered config and ARCHITECTURE.md.
    store_buffer_entries: int = 0
    store_buffer_bits_per_entry: int = 128
    store_buffer_drain_cycles: int = 6
    l2_tlb_entries: int = 0
    l2_tlb_hit_latency: int = 8

    def __post_init__(self) -> None:
        if min(self.fetch_width, self.dispatch_width, self.issue_width, self.commit_width) <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.rename_registers <= self.architected_registers:
            raise ValueError(
                f"rename register file must be larger than the architected set: "
                f"{self.rename_registers} rename and {self.architected_registers} architected "
                f"registers leave {self.rename_registers - self.architected_registers} free"
            )
        if min(self.iq_entries, self.rob_entries, self.lq_entries, self.sq_entries) <= 0:
            raise ValueError("queue sizes must be positive")
        if self.store_buffer_entries < 0 or self.l2_tlb_entries < 0:
            raise ValueError("optional structure entry counts must be non-negative")
        if self.store_buffer_entries and (
            self.store_buffer_bits_per_entry <= 0 or self.store_buffer_drain_cycles <= 0
        ):
            raise ValueError("store buffer geometry/latency must be positive when enabled")
        if self.l2_tlb_entries and self.l2_tlb_hit_latency <= 0:
            raise ValueError("L2 TLB hit latency must be positive when enabled")

    @property
    def free_rename_registers(self) -> int:
        """Rename registers available for in-flight (uncommitted) results."""
        return self.rename_registers - self.architected_registers

    @property
    def functional_units(self) -> int:
        return self.int_alus + self.int_multipliers

    @property
    def l2_tlb(self) -> "TlbConfig | None":
        """Geometry of the optional unified second-level TLB (None = disabled)."""
        if self.l2_tlb_entries <= 0:
            return None
        return TlbConfig(
            entries=self.l2_tlb_entries,
            page_bytes=self.dtlb.page_bytes,
            entry_bits=self.dtlb.entry_bits,
        )

    @property
    def lsq_tag_bits(self) -> int:
        return self.lsq_bits_per_entry // 2

    @property
    def lsq_data_bits(self) -> int:
        return self.lsq_bits_per_entry - self.lsq_tag_bits

    def derive(self, **overrides: object) -> "MachineConfig":
        """Return a copy of this configuration with fields overridden."""
        return replace(self, **overrides)


def baseline_config() -> MachineConfig:
    """The paper's baseline configuration (Table I)."""
    return MachineConfig(name="baseline")


def extended_config() -> MachineConfig:
    """Baseline plus the flag-gated tracked structures (store buffer, L2 TLB).

    Demonstrates the pluggable vulnerability model end-to-end: the post-commit
    store buffer and a unified second-level TLB are enabled, so their AVF/SER
    appears in reports, group aggregation and GA fitness.  The paper's
    structure set is unchanged — only the two extensions are added.
    """
    return MachineConfig(
        name="extended",
        store_buffer_entries=32,
        l2_tlb_entries=512,
    )


def config_a() -> MachineConfig:
    """The paper's alternate Configuration A (Table II).

    Larger IQ (32), ROB (96), rename register file (96), four multipliers,
    4-way DL1, 512-entry DTLB and a 2 MB 8-way L2 with 12-cycle latency.
    """
    return MachineConfig(
        name="config_a",
        int_multipliers=4,
        iq_entries=32,
        rob_entries=96,
        rename_registers=96,
        dl1=CacheConfig(
            name="dl1", size_bytes=64 * 1024, associativity=4, line_bytes=64, hit_latency=3
        ),
        dtlb=TlbConfig(entries=512, page_bytes=8 * 1024),
        l2=CacheConfig(
            name="l2", size_bytes=2 * 1024 * 1024, associativity=8, line_bytes=64, hit_latency=12
        ),
    )
