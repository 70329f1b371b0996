"""Two-level data memory hierarchy (DL1 + DTLB [+ L2 TLB] + L2 + memory)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.memory.cache import Cache, CacheConfig
from repro.memory.tlb import Tlb, TlbConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vuln.ledger import VulnerabilityLedger


@dataclass(frozen=True, slots=True)
class MemoryAccessOutcome:
    """Latency and hit/miss breakdown of one data memory access."""

    latency: int
    dl1_hit: bool
    l2_hit: bool
    tlb_hit: bool

    @property
    def is_l2_miss(self) -> bool:
        """True when the access went all the way to main memory."""
        return not self.dl1_hit and not self.l2_hit


class MemoryHierarchy:
    """DL1 + DTLB + unified L2 (+ optional L2 TLB) with writeback propagation.

    The hierarchy exposes a single :meth:`access` entry point used by the
    pipeline's load/store execution.  ACE accounting is event-based: when a
    per-run :class:`~repro.vuln.ledger.VulnerabilityLedger` is attached, each
    cache/TLB drives the lifetime tracker of its registered structure, so the
    AVF module reads everything out of the unified accounts; without a ledger
    (standalone use and unit tests) each component owns a private tracker.
    """

    def __init__(
        self,
        dl1_config: CacheConfig,
        l2_config: CacheConfig,
        dtlb_config: TlbConfig,
        memory_latency: int = 200,
        tlb_miss_penalty: int = 30,
        ledger: Optional["VulnerabilityLedger"] = None,
        l2_tlb_config: Optional[TlbConfig] = None,
        l2_tlb_hit_latency: int = 8,
    ) -> None:
        if memory_latency <= 0 or tlb_miss_penalty < 0:
            raise ValueError("latencies must be positive")
        if l2_tlb_config is not None and l2_tlb_hit_latency <= 0:
            raise ValueError("L2 TLB hit latency must be positive")
        if ledger is None:
            self.dl1 = Cache(dl1_config)
            self.l2 = Cache(l2_config)
            self.dtlb = Tlb(dtlb_config)
            self.l2_tlb = Tlb(l2_tlb_config) if l2_tlb_config is not None else None
        else:
            self.dl1 = Cache(
                dl1_config, tracker=ledger.word_tracker("dl1", dl1_config.word_bytes * 8)
            )
            self.l2 = Cache(
                l2_config, tracker=ledger.word_tracker("l2", l2_config.word_bytes * 8)
            )
            self.dtlb = Tlb(
                dtlb_config, tracker=ledger.residency_tracker("dtlb", dtlb_config.entry_bits)
            )
            self.l2_tlb = None
            if l2_tlb_config is not None:
                self.l2_tlb = Tlb(
                    l2_tlb_config,
                    tracker=ledger.residency_tracker("l2_tlb", l2_tlb_config.entry_bits),
                )
        self.memory_latency = memory_latency
        self.tlb_miss_penalty = tlb_miss_penalty
        self.l2_tlb_hit_latency = l2_tlb_hit_latency
        # Latencies hoisted out of the hot access path.
        self._dl1_hit_latency = dl1_config.hit_latency
        self._l2_hit_latency = l2_config.hit_latency

    def access(self, address: int, is_write: bool, cycle: int, ace: bool = True) -> MemoryAccessOutcome:
        """Perform one data access and return its latency and hit breakdown."""
        latency, dl1_hit, l2_hit, tlb_hit = self.access_parts(address, is_write, cycle, ace)
        return MemoryAccessOutcome(
            latency=latency,
            dl1_hit=dl1_hit,
            l2_hit=l2_hit,
            tlb_hit=tlb_hit,
        )

    def access_parts(
        self, address: int, is_write: bool, cycle: int, ace: bool = True
    ) -> tuple[int, bool, bool, bool]:
        """:meth:`access` returning a plain ``(latency, dl1_hit, l2_hit,
        tlb_hit)`` tuple — the allocation-light form the simulator's per-op
        path (interpreted and kernel alike) uses."""
        if address < 0:
            raise ValueError("addresses must be non-negative")

        tlb_hit = self.dtlb.access(address, cycle, ace=ace)
        if tlb_hit:
            latency = 0
        elif self.l2_tlb is not None:
            # A DTLB miss walks the unified second-level TLB first; only an
            # L2 TLB miss pays the full page-walk penalty.
            if self.l2_tlb.access(address, cycle, ace=ace):
                latency = self.l2_tlb_hit_latency
            else:
                latency = self.tlb_miss_penalty
        else:
            latency = self.tlb_miss_penalty

        dl1_hit, dl1_evicted_dirty, dl1_evicted_address, dl1_evicted_ace = self.dl1.access_parts(
            address, is_write=is_write, cycle=cycle, ace=ace
        )
        latency += self._dl1_hit_latency
        l2_hit = True
        if not dl1_hit:
            # Line fill from L2 (a write miss allocates too: write-allocate).
            l2_hit, _, _, _ = self.l2.access_parts(address, is_write=False, cycle=cycle, ace=ace)
            latency += self._l2_hit_latency
            if not l2_hit:
                latency += self.memory_latency
            # A dirty L2 victim goes to memory; nothing further to track.
        if dl1_evicted_dirty and dl1_evicted_address is not None:
            # Dirty DL1 victim is written back into the L2 (same semantics
            # as Cache.writeback, minus the discarded result object).
            self.l2.access_parts(dl1_evicted_address, is_write=True, cycle=cycle, ace=dl1_evicted_ace)

        return latency, dl1_hit, l2_hit, tlb_hit

    def warm_region(
        self,
        base: int,
        size_bytes: int,
        dirty: bool = True,
        ace: bool = True,
        word_fraction: float = 1.0,
        recurrent: bool = False,
    ) -> None:
        """Functionally warm DL1, L2 and the TLBs for one data region.

        The region is walked at line granularity in address order at cycle 0,
        mimicking an initialisation pass executed before the detailed window
        (the paper's "initialise memory space" setup loop).  Each level
        keeps the tail of the walk it can hold, counted in its own lines or
        pages; a line a level evicts during warm-up is dropped, not written
        back to the next level.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        page_bytes = self.dtlb.config.page_bytes

        # Walking the whole region through each level and letting LRU evict
        # would leave exactly the *tail* of the walk resident, so warm each
        # level with only the portion it can hold — same end state, far fewer
        # eviction events.
        dl1_span = min(size_bytes, self.dl1.config.size_bytes)
        l2_span = min(size_bytes, self.l2.config.size_bytes)
        tlb_span = min(size_bytes, self.dtlb.config.reach_bytes)

        if self.l2_tlb is not None:
            l2_tlb_span = min(size_bytes, self.l2_tlb.config.reach_bytes)
            for offset in range(size_bytes - l2_tlb_span, size_bytes, page_bytes):
                self.l2_tlb.warm_page(base + offset, cycle=0, ace=ace, recurrent=recurrent)
        for offset in range(size_bytes - tlb_span, size_bytes, page_bytes):
            self.dtlb.warm_page(base + offset, cycle=0, ace=ace, recurrent=recurrent)
        self.l2.warm_lines(
            base + size_bytes - l2_span,
            len(range(size_bytes - l2_span, size_bytes, self.l2.config.line_bytes)),
            cycle=0, dirty=dirty, ace=ace, word_fraction=word_fraction,
        )
        self.dl1.warm_lines(
            base + size_bytes - dl1_span,
            len(range(size_bytes - dl1_span, size_bytes, self.dl1.config.line_bytes)),
            cycle=0, dirty=dirty, ace=ace, word_fraction=word_fraction,
        )

    def finalize(self, cycle: int) -> None:
        """Close all lifetime intervals at the end of simulation."""
        self.dl1.finalize(cycle)
        self.l2.finalize(cycle)
        self.dtlb.finalize(cycle)
        if self.l2_tlb is not None:
            self.l2_tlb.finalize(cycle)
