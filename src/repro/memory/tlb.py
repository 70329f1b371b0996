"""Fully-associative data TLB with residency-based ACE tracking.

A TLB entry holds a page translation.  Its contents are ACE between its first
use and its last use while resident (a corrupted translation would be consumed
by those accesses); the tail interval between the last use and the eviction is
un-ACE ("read to evict is un-ACE" in the paper's code-generator discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vuln.ledger import ResidencyTracker


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of the data TLB."""

    entries: int
    page_bytes: int
    entry_bits: int = 64

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.page_bytes <= 0 or self.entry_bits <= 0:
            raise ValueError("TLB geometry values must be positive")

    @property
    def total_bits(self) -> int:
        return self.entries * self.entry_bits

    @property
    def reach_bytes(self) -> int:
        """Total memory covered by a fully-populated TLB."""
        return self.entries * self.page_bytes


@dataclass(slots=True)
class _TlbEntry:
    page: int
    fill_cycle: int
    first_ace_use: int | None
    last_ace_use: int | None
    last_use: int
    recurrent: bool = False


@dataclass
class TlbStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Tlb:
    """Fully-associative TLB with LRU replacement.

    Residency ACE accounting is emitted as retire-credit events into a
    :class:`~repro.vuln.ledger.ResidencyTracker` — the structure's account
    feed when ``tracker`` comes from the per-run ledger, or a private
    accumulator for standalone TLBs.
    """

    def __init__(self, config: TlbConfig, tracker: Optional[ResidencyTracker] = None) -> None:
        self.config = config
        self.stats = TlbStats()
        self._entries: dict[int, _TlbEntry] = {}
        self._residency = tracker if tracker is not None else ResidencyTracker(
            entry_bits=config.entry_bits
        )
        # Geometry hoisted out of the hot access path.
        self._page_bytes = config.page_bytes
        self._capacity = config.entries

    @property
    def ace_entry_cycles(self) -> int:
        """Total ACE entry-cycles credited so far."""
        return self._residency.ace_entry_cycles

    def _page(self, address: int) -> int:
        return address // self._page_bytes

    def _retire_entry(self, entry: _TlbEntry) -> None:
        """Credit the ACE residency interval of an entry leaving the TLB."""
        if entry.first_ace_use is not None and entry.last_ace_use is not None:
            self._residency.credit(entry.last_ace_use - entry.first_ace_use)

    def access(self, address: int, cycle: int, ace: bool = True) -> bool:
        """Translate ``address``; returns True on a TLB hit."""
        self.stats.accesses += 1
        page = address // self._page_bytes
        entry = self._entries.get(page)
        if entry is None:
            self.stats.misses += 1
            if len(self._entries) >= self._capacity:
                victim_page = min(self._entries, key=lambda p: self._entries[p].last_use)
                victim = self._entries.pop(victim_page)
                self._retire_entry(victim)
                self.stats.evictions += 1
            entry = _TlbEntry(
                page=page,
                fill_cycle=cycle,
                first_ace_use=cycle if ace else None,
                last_ace_use=cycle if ace else None,
                last_use=cycle,
            )
            self._entries[page] = entry
            return False
        self.stats.hits += 1
        entry.last_use = cycle
        if ace:
            if entry.first_ace_use is None:
                entry.first_ace_use = cycle
            entry.last_ace_use = cycle
        return True

    def warm_page(self, address: int, cycle: int = 0, ace: bool = True, recurrent: bool = False) -> None:
        """Pre-install the translation for ``address`` as part of warm-up.

        ``recurrent`` marks pages belonging to a cyclic access pattern whose
        period exceeds the simulated window: such translations are treated as
        ACE until the end of the window unless they are evicted first
        (steady-state extrapolation; see DESIGN.md).
        """
        page = self._page(address)
        entry = self._entries.get(page)
        if entry is None:
            if len(self._entries) >= self.config.entries:
                victim_page = min(self._entries, key=lambda p: self._entries[p].last_use)
                victim = self._entries.pop(victim_page)
                self._retire_entry(victim)
                self.stats.evictions += 1
            entry = _TlbEntry(
                page=page,
                fill_cycle=cycle,
                first_ace_use=cycle if ace else None,
                last_ace_use=cycle if ace else None,
                last_use=cycle,
                recurrent=recurrent,
            )
            self._entries[page] = entry
            return
        entry.recurrent = entry.recurrent or recurrent
        if ace and entry.first_ace_use is None:
            entry.first_ace_use = cycle
            entry.last_ace_use = cycle

    def finalize(self, cycle: int) -> None:
        """Close residency intervals of all still-resident entries."""
        for entry in self._entries.values():
            if entry.recurrent and entry.first_ace_use is not None:
                entry.last_ace_use = max(entry.last_ace_use or 0, cycle)
            self._retire_entry(entry)
        self._entries.clear()

    def avf(self, total_cycles: int) -> float:
        """AVF of the TLB over ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        total_entry_cycles = float(self.config.entries) * total_cycles
        return min(1.0, self.ace_entry_cycles / total_entry_cycles)

    def ace_bit_cycles(self) -> float:
        """Total ACE bit-cycles accumulated by the TLB."""
        return self._residency.ace_bit_cycles()

    def resident_entry_count(self) -> int:
        return len(self._entries)
