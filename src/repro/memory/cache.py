"""Set-associative writeback cache emitting per-word lifetime ACE events."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.vuln.ledger import LifetimeTracker


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int
    hit_latency: int
    word_bytes: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size must be a multiple of line_bytes * associativity")
        if self.line_bytes % self.word_bytes:
            raise ValueError("line size must be a multiple of the word size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes

    @property
    def total_bits(self) -> int:
        """Data array bits (tag bits are not modelled for SER accounting)."""
        return self.size_bytes * 8


@dataclass(slots=True)
class _Line:
    """One resident cache line."""

    tag: int
    dirty: bool = False
    dirty_ace: bool = False
    last_use: int = 0
    words_touched: set[int] = field(default_factory=set)


@dataclass(frozen=True, slots=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    evicted_dirty: bool
    evicted_address: Optional[int]
    evicted_ace: bool = False


@dataclass
class CacheAccessStats:
    """Hit/miss counters of one simulated cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A set-associative, writeback, write-allocate cache with LRU replacement.

    Every access emits fill/read/write/evict lifetime events.  When the cache
    belongs to a simulated machine, ``tracker`` is the structure's state
    machine obtained from the per-run :class:`~repro.vuln.ledger.
    VulnerabilityLedger` (so the cache's ACE word-cycles land in the unified
    accounts); standalone caches own a private tracker.
    """

    def __init__(self, config: CacheConfig, tracker: Optional[LifetimeTracker] = None) -> None:
        self.config = config
        self.stats = CacheAccessStats()
        self.lifetime = tracker if tracker is not None else LifetimeTracker(
            word_bits=config.word_bytes * 8
        )
        self._sets: list[dict[int, _Line]] = [dict() for _ in range(config.num_sets)]
        # Geometry hoisted out of the hot access path.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._word_bytes = config.word_bytes
        self._associativity = config.associativity
        self._words_per_line = config.words_per_line

    def _decompose(self, address: int) -> tuple[int, int, int]:
        """Return ``(set_index, tag, word_index)`` for a byte address."""
        line_address = address // self._line_bytes
        set_index = line_address % self._num_sets
        tag = line_address // self._num_sets
        word_index = (address % self._line_bytes) // self._word_bytes
        return set_index, tag, word_index

    def line_address(self, address: int) -> int:
        """Aligned line address for a byte address."""
        return (address // self.config.line_bytes) * self.config.line_bytes

    def _evict(self, set_index: int, cycle: int) -> tuple[bool, Optional[int], bool]:
        """Evict the LRU line of a set; returns (dirty, line_address, dirty_ace)."""
        cache_set = self._sets[set_index]
        if not cache_set:
            return False, None, False
        victim_tag = min(cache_set, key=lambda tag: cache_set[tag].last_use)
        victim = cache_set.pop(victim_tag)
        line_number = victim_tag * self._num_sets + set_index
        self.lifetime.evict_words(line_number, victim.words_touched, cycle)
        self.stats.evictions += 1
        if victim.dirty:
            self.stats.dirty_evictions += 1
        evicted_address = line_number * self._line_bytes
        return victim.dirty, evicted_address, victim.dirty_ace

    def access(self, address: int, is_write: bool, cycle: int, ace: bool = True) -> CacheAccessResult:
        """Perform a read or write access of one word at ``address``."""
        return CacheAccessResult(*self.access_parts(address, is_write, cycle, ace))

    def access_parts(
        self, address: int, is_write: bool, cycle: int, ace: bool = True
    ) -> tuple[bool, bool, Optional[int], bool]:
        """:meth:`access` returning a plain ``(hit, evicted_dirty,
        evicted_address, evicted_ace)`` tuple — the allocation-light form the
        memory hierarchy's per-op path uses."""
        self.stats.accesses += 1
        line_address = address // self._line_bytes
        set_index = line_address % self._num_sets
        tag = line_address // self._num_sets
        word_index = (address % self._line_bytes) // self._word_bytes
        line_number = tag * self._num_sets + set_index
        cache_set = self._sets[set_index]
        line = cache_set.get(tag)

        evicted_dirty = False
        evicted_address: Optional[int] = None
        evicted_ace = False
        if line is None:
            self.stats.misses += 1
            if len(cache_set) >= self._associativity:
                evicted_dirty, evicted_address, evicted_ace = self._evict(set_index, cycle)
            line = _Line(tag=tag, last_use=cycle)
            cache_set[tag] = line
            # The whole line is brought in on a miss; only the accessed word
            # is recorded as filled eagerly, remaining words are filled lazily
            # on their first touch so untouched words never accrue ACE time.
            self.lifetime.record_fill(line_number, word_index, cycle, ace=ace)
            line.words_touched.add(word_index)
            hit = False
        else:
            self.stats.hits += 1
            hit = True
            if word_index not in line.words_touched:
                self.lifetime.record_fill(line_number, word_index, cycle, ace=ace)
                line.words_touched.add(word_index)

        line.last_use = cycle
        if is_write:
            self.lifetime.record_write(line_number, word_index, cycle, ace=ace)
            line.dirty = True
            if ace:
                line.dirty_ace = True
        else:
            self.lifetime.record_read(line_number, word_index, cycle, ace=ace)

        return hit, evicted_dirty, evicted_address, evicted_ace

    def warm_line(
        self,
        address: int,
        cycle: int = 0,
        dirty: bool = True,
        ace: bool = True,
        word_fraction: float = 1.0,
    ) -> None:
        """Install a whole line as part of functional warm-up.

        ``word_fraction`` of the line's words are marked as holding live data
        (written if ``dirty``, otherwise filled clean); the rest of the line is
        left untouched so it never accrues ACE time.  Victims evicted by the
        warm-up propagate through :class:`LifetimeTracker` as usual, but since
        warm-up happens at a single cycle they carry no ACE duration.
        """
        if not 0.0 <= word_fraction <= 1.0:
            raise ValueError("word_fraction must be within [0, 1]")
        set_index, tag, _ = self._decompose(address)
        line_number = tag * self._num_sets + set_index
        cache_set = self._sets[set_index]
        line = cache_set.get(tag)
        if line is None:
            if len(cache_set) >= self._associativity:
                self._evict(set_index, cycle)
            line = _Line(tag=tag, last_use=cycle)
            cache_set[tag] = line
        words_to_touch = int(round(word_fraction * self._words_per_line))
        if words_to_touch:
            touched = range(words_to_touch)
            self.lifetime.warm_words(line_number, touched, cycle, dirty=dirty, ace=ace)
            line.words_touched.update(touched)
        line.last_use = cycle
        if dirty and words_to_touch:
            line.dirty = True
            if ace:
                line.dirty_ace = True

    def warm_lines(
        self,
        first_address: int,
        count: int,
        cycle: int = 0,
        dirty: bool = True,
        ace: bool = True,
        word_fraction: float = 1.0,
    ) -> None:
        """Install ``count`` consecutive lines starting at ``first_address``.

        Bulk form of :meth:`warm_line` for functional region warm-up: the
        per-line geometry math and word-count rounding are hoisted out of the
        loop.  Equivalent to calling ``warm_line`` once per line in address
        order (warm-up walks hundreds of thousands of words, so this path
        matters for end-to-end evaluation time).
        """
        if not 0.0 <= word_fraction <= 1.0:
            raise ValueError("word_fraction must be within [0, 1]")
        if count <= 0:
            return
        num_sets = self._num_sets
        associativity = self._associativity
        sets = self._sets
        warm_words = self.lifetime.warm_words
        words_to_touch = int(round(word_fraction * self._words_per_line))
        touched = range(words_to_touch)
        mark_dirty = bool(dirty and words_to_touch)
        first_line = first_address // self._line_bytes
        for line_number in range(first_line, first_line + count):
            set_index = line_number % num_sets
            tag = line_number // num_sets
            cache_set = sets[set_index]
            line = cache_set.get(tag)
            if line is None:
                if len(cache_set) >= associativity:
                    self._evict(set_index, cycle)
                line = _Line(tag=tag, last_use=cycle)
                cache_set[tag] = line
            if words_to_touch:
                warm_words(line_number, touched, cycle, dirty=dirty, ace=ace)
                line.words_touched.update(touched)
            line.last_use = cycle
            if mark_dirty:
                line.dirty = True
                if ace:
                    line.dirty_ace = True

    def writeback(self, address: int, cycle: int, ace: bool = True) -> CacheAccessResult:
        """Install a dirty line arriving from the level above (victim writeback)."""
        return self.access(address, is_write=True, cycle=cycle, ace=ace)

    def finalize(self, cycle: int) -> None:
        """Close all open lifetime intervals at the end of simulation."""
        self.lifetime.finalize(cycle)

    def avf(self, total_cycles: int) -> float:
        """AVF of the cache data array over ``total_cycles``."""
        if total_cycles <= 0:
            return 0.0
        total_bit_cycles = float(self.config.total_bits) * total_cycles
        return min(1.0, self.lifetime.ace_bit_cycles() / total_bit_cycles)

    def resident_line_count(self) -> int:
        """Number of currently resident lines (used by tests)."""
        return sum(len(s) for s in self._sets)
