"""The unified vulnerability ledger: one accounting surface for every structure.

Historically the repository kept two disjoint ACE bookkeeping paths — ad-hoc
``AceAccumulator`` bookkeeping inside the pipeline hot loop for core
structures, and a separate per-cache ``LifetimeTracker`` word-state machine
for storage structures.  The :class:`VulnerabilityLedger` unifies them: one
per-run object holding an account per *registered* structure (see
:mod:`repro.vuln.structures`), fed through two event surfaces:

* **interval events** for core structures — ``add_interval(name, start, end,
  ace_fraction)`` per occupancy interval, or ``credit(name, ...)`` once per
  run for totals the simulator keeps itself (the interpreter's local float
  sums, in per-op addition order; the vector plane's exact integer sums,
  converted once and guarded to equal them), so results stay bit-identical
  to per-op accounting;
* **lifetime events** for storage structures — ``fill`` / ``read`` /
  ``write`` / ``evict`` / ``flush`` keyed by ``(line, word)``, implementing
  the Biswas-style interval classification (Fill/Read/Write=>Read and ACE
  Write=>Evict are ACE; everything ending in a write or a clean eviction is
  not).

Lifetime state lives in per-structure :class:`LifetimeTracker` /
:class:`ResidencyTracker` objects that components obtain once
(:meth:`VulnerabilityLedger.word_tracker` /
:meth:`VulnerabilityLedger.residency_tracker`) and drive with bound methods,
keeping the per-event cost identical to the old embedded trackers.
:meth:`VulnerabilityLedger.collect` folds the trackers' totals into the
accounts at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.registry import RegistryError, suggest
from repro.vuln.structures import (
    STRUCTURES,
    StructureName,
    VulnerableStructure,
    enabled_structures,
)


class AceEvent(Enum):
    """Event types that bound ACE lifetime intervals."""

    FILL = "fill"
    READ = "read"
    WRITE = "write"
    EVICT = "evict"


# ------------------------------------------------------------------ accounts


@dataclass
class AceAccumulator:
    """Occupancy and ACE bit-cycles of one structure (a ledger account).

    Attributes
    ----------
    name:
        Which structure this account belongs to.
    entries:
        Number of entries in the structure.
    bits_per_entry:
        Storage bits per entry.
    """

    name: StructureName
    entries: int
    bits_per_entry: int
    ace_bit_cycles: float = 0.0
    occupied_entry_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.bits_per_entry <= 0:
            raise ValueError("entries and bits_per_entry must be positive")

    @property
    def total_bits(self) -> int:
        """Total storage bits of the structure."""
        return self.entries * self.bits_per_entry

    def add_interval(self, start: int, end: int, ace_fraction: float = 1.0) -> None:
        """Record that one entry was occupied during [start, end).

        ``ace_fraction`` is the fraction of the entry's bits that hold ACE
        state during the interval (e.g. 0.5 for a 32-bit operand in a 64-bit
        data field, or 0.0 for an un-ACE instruction).

        Degenerate inputs are rejected rather than silently accumulated:
        ``end < start`` and ``ace_fraction`` outside [0, 1] raise
        ``ValueError`` (an empty ``end == start`` interval is a no-op).
        """
        if not 0.0 <= ace_fraction <= 1.0:
            raise ValueError("ace_fraction must be within [0, 1]")
        if end < start:
            raise ValueError(f"interval end {end} precedes start {start}")
        if end == start:
            return
        duration = float(end - start)
        self.occupied_entry_cycles += duration
        self.ace_bit_cycles += duration * self.bits_per_entry * ace_fraction

    def add_bit_cycles(self, ace_bit_cycles: float, occupied_entry_cycles: float = 0.0) -> None:
        """Directly add pre-computed ACE bit-cycles (used for caches/TLB)."""
        if ace_bit_cycles < 0.0 or occupied_entry_cycles < 0.0:
            raise ValueError("bit-cycles must be non-negative")
        self.ace_bit_cycles += ace_bit_cycles
        self.occupied_entry_cycles += occupied_entry_cycles

    def avf(self, total_cycles: int) -> float:
        """Architectural Vulnerability Factor over ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.ace_bit_cycles / (self.total_bits * float(total_cycles)))

    def average_occupancy(self, total_cycles: int) -> float:
        """Mean fraction of entries occupied over the run."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.occupied_entry_cycles / (self.entries * float(total_cycles)))


# ------------------------------------------------------- lifetime state machine


class LifetimeTracker:
    """Word-granular lifetime ACE state machine (Biswas et al.).

    For writeback caches, a piece of cached data is ACE during the intervals

        Fill  => Read     (the read would consume corrupted data)
        Read  => Read
        Write => Read
        Write => Evict    (the dirty data must be written back intact)

    and un-ACE during

        Fill/Read => Evict (clean, never read again)
        *         => Write (the data is overwritten before being used)
        idle / invalid

    Events are recorded per *word* (default 8 bytes) so strided access
    patterns that do not touch every word of a line are credited only for
    the words that actually hold live data (Section IV-A.5 of the paper).
    Interval ACE-ness is additionally conditioned on whether the producing/
    consuming instruction is itself ACE: intervals closed by an un-ACE read
    (e.g. a software prefetch or a dynamically dead load) are not ACE, and a
    dirty word whose last write was un-ACE is not ACE at eviction.

    This is the :class:`VulnerabilityLedger`'s storage-structure state
    machine; it is also usable standalone (``repro.memory.lifetime``
    re-exports it for backward compatibility).
    """

    #: Word state is an immutable ``(last_event, last_cycle, last_write_ace)``
    #: tuple.  Immutability lets warm-up share one state object across a whole
    #: range of words (``dict.fromkeys``), and event updates replace the tuple
    #: — all interval credit is *integer* word-cycle arithmetic, so bulk
    #: formulations below are exactly equal to per-event accounting.

    def __init__(self, word_bits: int = 64) -> None:
        self.word_bits = word_bits
        self._live: dict[tuple[int, int], tuple[AceEvent, int, bool]] = {}
        self.ace_word_cycles = 0
        self.total_events = 0

    def record_fill(self, line: int, word: int, cycle: int, ace: bool = True) -> None:
        """A word became resident (brought in from the next level)."""
        self.total_events += 1
        key = (line, word)
        state = self._live.get(key)
        if state is not None:
            # A fill over a still-live word means the previous occupant left
            # without an explicit eviction event (e.g. a replacement the owner
            # did not report).  Close its interval as an eviction so a dirty
            # ACE write keeps its Write=>Evict credit instead of being
            # silently dropped with the overwritten state.
            if state[0] is AceEvent.WRITE and state[2]:
                duration = cycle - state[1]
                if duration > 0:
                    self.ace_word_cycles += duration
        self._live[key] = (AceEvent.FILL, cycle, False)

    def record_read(self, line: int, word: int, cycle: int, ace: bool) -> None:
        """A resident word was read by an instruction (ACE or not).

        Fill=>Read, Read=>Read and Write=>Read intervals are all ACE provided
        the consumer is an ACE instruction.
        """
        self.total_events += 1
        key = (line, word)
        state = self._live.get(key)
        if state is None:
            # A read to a word we never saw filled (e.g. structure warm-up
            # before tracking started): start tracking from this read.
            self._live[key] = (AceEvent.READ, cycle, False)
            return
        if ace:
            duration = cycle - state[1]
            if duration > 0:
                self.ace_word_cycles += duration
        self._live[key] = (AceEvent.READ, cycle, state[2])

    def record_write(self, line: int, word: int, cycle: int, ace: bool) -> None:
        """A resident word was overwritten by a store.

        Whatever was there before the write is dead: the interval leading up
        to a write is never ACE, so the interval simply restarts.
        """
        self.total_events += 1
        self._live[(line, word)] = (AceEvent.WRITE, cycle, ace)

    def warm_words(self, line: int, words: range, cycle: int, dirty: bool, ace: bool) -> None:
        """Bulk-install words during functional warm-up.

        Equivalent to a fill (plus a write when ``dirty``) of every word in
        ``words`` at ``cycle``, but without per-event bookkeeping overhead —
        warm-up touches hundreds of thousands of words, so this path matters
        for end-to-end evaluation time: one shared state tuple is installed
        for the whole range in a single C-level ``dict.update``.
        """
        state = (AceEvent.WRITE if dirty else AceEvent.FILL, cycle, dirty and ace)
        self._live.update(dict.fromkeys([(line, word) for word in words], state))
        self.total_events += len(words)

    def record_evict(self, line: int, word: int, cycle: int) -> None:
        """A resident word left the structure (eviction or invalidation).

        Only dirty data written by an ACE store must survive until writeback
        (Write=>Evict); everything else ends un-ACE.
        """
        self.total_events += 1
        state = self._live.pop((line, word), None)
        if state is None:
            return
        if state[0] is AceEvent.WRITE and state[2]:
            duration = cycle - state[1]
            if duration > 0:
                self.ace_word_cycles += duration

    def evict_words(self, line: int, words, cycle: int) -> None:
        """Evict a batch of words of one line (a cache line replacement).

        Exactly ``record_evict`` per word, without per-word method dispatch;
        interval credit is integer arithmetic, so the bulk sum is identical.
        """
        live = self._live
        pop = live.pop
        credited = 0
        write = AceEvent.WRITE
        count = 0
        for word in words:
            count += 1
            state = pop((line, word), None)
            if state is not None and state[0] is write and state[2]:
                duration = cycle - state[1]
                if duration > 0:
                    credited += duration
        self.total_events += count
        self.ace_word_cycles += credited

    def finalize(self, cycle: int) -> None:
        """Close all open intervals at the end of simulation.

        End-of-simulation is treated like an eviction: dirty ACE data is
        still needed (ACE), anything else is un-ACE.  This matches the
        conservative end-of-window treatment used in ACE analysis tools.
        The bulk pass credits exactly what per-word ``record_evict`` calls
        would (integer word-cycles), without the per-event overhead.
        """
        live = self._live
        self.total_events += len(live)
        credited = 0
        write = AceEvent.WRITE
        for state in live.values():
            if state[0] is write and state[2]:
                duration = cycle - state[1]
                if duration > 0:
                    credited += duration
        self.ace_word_cycles += credited
        live.clear()

    # ``flush`` is the ledger-event name for end-of-run closure.
    flush = finalize

    def live_words(self) -> int:
        """Number of words with an open lifetime interval (used by tests)."""
        return len(self._live)

    def ace_bit_cycles(self) -> float:
        """Total ACE bit-cycles accumulated so far."""
        return float(self.ace_word_cycles) * self.word_bits


class ResidencyTracker:
    """Entry-residency ACE accumulator for TLB-style structures.

    TLB contents are ACE between their first and last ACE use while resident
    ("read to evict is un-ACE"); the owning TLB model reports one credit per
    retiring entry.
    """

    def __init__(self, entry_bits: int = 64) -> None:
        self.entry_bits = entry_bits
        self.ace_entry_cycles = 0
        self.total_events = 0

    def credit(self, duration: int) -> None:
        """Credit one retiring entry's ACE residency interval."""
        self.total_events += 1
        if duration > 0:
            self.ace_entry_cycles += duration

    def ace_bit_cycles(self) -> float:
        """Total ACE bit-cycles accumulated so far."""
        return float(self.ace_entry_cycles) * self.entry_bits


# -------------------------------------------------------------------- ledger


class VulnerabilityLedger:
    """Per-run accounts plus event trackers for every enabled structure.

    Constructed once per simulation from a :class:`~repro.uarch.config.
    MachineConfig`: every registered descriptor whose ``enabled`` predicate
    holds gets an :class:`AceAccumulator` account, in registration order
    (which is therefore the column order of reports).  Core structures are
    fed through :meth:`add_interval` / :meth:`credit`; storage structures
    attach :class:`LifetimeTracker` / :class:`ResidencyTracker` state
    machines whose totals :meth:`collect` folds into the accounts.
    """

    def __init__(self, config, structures: "list[VulnerableStructure] | None" = None) -> None:
        if structures is None:
            structures = enabled_structures(config)
        self.config = config
        self.accounts: dict[StructureName, AceAccumulator] = {}
        self._descriptors: dict[StructureName, VulnerableStructure] = {}
        self._word_trackers: dict[StructureName, LifetimeTracker] = {}
        self._residency_trackers: dict[StructureName, ResidencyTracker] = {}
        self._collected = False
        for descriptor in structures:
            member = descriptor.structure
            self._descriptors[member] = descriptor
            self.accounts[member] = AceAccumulator(
                member, descriptor.entries(config), descriptor.bits_per_entry(config)
            )

    # ------------------------------------------------------------- lookups

    def _resolve(self, name: "str | StructureName") -> StructureName:
        if isinstance(name, str):
            try:
                member = StructureName(name)
            except ValueError:
                raise self._unknown(name) from None
        else:
            member = name
        if member not in self.accounts:
            raise self._unknown(member.value)
        return member

    def _unknown(self, value: str) -> RegistryError:
        known = [member.value for member in self.accounts]
        message = f"structure {value!r} is not tracked by this ledger{suggest(value, known)}"
        if known:
            message += f" (tracked: {', '.join(known)})"
        if value in STRUCTURES:
            message += "; it is registered but disabled for this machine configuration"
        return RegistryError(message)

    def account(self, name: "str | StructureName") -> AceAccumulator:
        """The account of one tracked structure (nearest-match error if unknown)."""
        return self.accounts[self._resolve(name)]

    def __contains__(self, name: object) -> bool:
        try:
            member = StructureName(name) if isinstance(name, str) else name
        except ValueError:
            return False
        return member in self.accounts

    # ------------------------------------------------------ interval events

    def add_interval(
        self, name: "str | StructureName", start: int, end: int, ace_fraction: float = 1.0
    ) -> None:
        """Record one occupancy interval of a core structure."""
        self.account(name).add_interval(start, end, ace_fraction)

    def credit(
        self,
        name: "str | StructureName",
        occupied_entry_cycles: float,
        ace_bit_cycles: float,
    ) -> None:
        """Flush locally batched occupancy/ACE sums into an account.

        Both simulator loops flush once per run: the interpreter's local
        float sums, added in per-op order, and the vector plane's integer
        sums in half bit-cycles, converted to float once and kept below
        2**53 half-units, where every such float sum is exact — so either
        equals per-op accounting bit for bit.  Negative sums raise
        ``ValueError`` — a sign bug must not silently deflate AVF.
        """
        self.account(name).add_bit_cycles(ace_bit_cycles, occupied_entry_cycles)

    # ------------------------------------------------------ lifetime events

    def word_tracker(
        self, name: "str | StructureName", word_bits: "int | None" = None
    ) -> LifetimeTracker:
        """The word-lifetime state machine of a storage structure.

        Components hold onto the returned tracker (and its bound methods) so
        the per-event cost matches the old embedded trackers; one tracker
        exists per structure per ledger.  ``word_bits`` defaults to the
        descriptor's event granularity (``word_bits`` if declared, else the
        full entry); passing a value that contradicts an existing tracker
        raises — one structure cannot be accounted at two granularities.
        """
        member = self._resolve(name)
        tracker = self._word_trackers.get(member)
        if word_bits is None:
            # Resolve from the descriptors this ledger was constructed with
            # (which may include unregistered ones via ``structures=``).
            word_bits = self._descriptors[member].event_word_bits(self.config)
        if tracker is None:
            tracker = LifetimeTracker(word_bits=word_bits)
            self._word_trackers[member] = tracker
        elif tracker.word_bits != word_bits:
            raise ValueError(
                f"structure {member.value!r} is already tracked at "
                f"{tracker.word_bits} bits/event, requested {word_bits}"
            )
        return tracker

    def residency_tracker(self, name: "str | StructureName", entry_bits: int = 64) -> ResidencyTracker:
        """The entry-residency accumulator of a TLB-style structure."""
        member = self._resolve(name)
        tracker = self._residency_trackers.get(member)
        if tracker is None:
            tracker = ResidencyTracker(entry_bits=entry_bits)
            self._residency_trackers[member] = tracker
        return tracker

    def fill(self, name: "str | StructureName", line: int, word: int, cycle: int, ace: bool = True) -> None:
        """Lifetime event: a word became resident."""
        self._existing_word_tracker(name).record_fill(line, word, cycle, ace=ace)

    def read(self, name: "str | StructureName", line: int, word: int, cycle: int, ace: bool = True) -> None:
        """Lifetime event: a resident word was read."""
        self._existing_word_tracker(name).record_read(line, word, cycle, ace=ace)

    def write(self, name: "str | StructureName", line: int, word: int, cycle: int, ace: bool = True) -> None:
        """Lifetime event: a resident word was overwritten."""
        self._existing_word_tracker(name).record_write(line, word, cycle, ace=ace)

    def evict(self, name: "str | StructureName", line: int, word: int, cycle: int) -> None:
        """Lifetime event: a resident word left the structure."""
        self._existing_word_tracker(name).record_evict(line, word, cycle)

    def flush(self, name: "str | StructureName", cycle: int) -> None:
        """Lifetime event: close every open interval of one structure."""
        self._existing_word_tracker(name).finalize(cycle)

    def _existing_word_tracker(self, name: "str | StructureName") -> LifetimeTracker:
        return self.word_tracker(name)

    # ------------------------------------------------------------ totals

    def collect(self) -> dict[StructureName, AceAccumulator]:
        """Fold the lifetime trackers' totals into the accounts (idempotent).

        Call after the owning components have closed their intervals (the
        memory hierarchy's ``finalize``); returns the account mapping.
        """
        if not self._collected:
            self._collected = True
            for member, tracker in self._word_trackers.items():
                self.accounts[member].add_bit_cycles(tracker.ace_bit_cycles())
            for member, tracker in self._residency_trackers.items():
                self.accounts[member].add_bit_cycles(tracker.ace_bit_cycles())
        return self.accounts

    def total_events(self) -> int:
        """Number of lifetime events recorded across all trackers."""
        return sum(t.total_events for t in self._word_trackers.values()) + sum(
            t.total_events for t in self._residency_trackers.values()
        )
