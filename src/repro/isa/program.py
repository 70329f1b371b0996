"""Program container: an inner loop body plus its warm-up footprint.

Both the AVF stressmark and the synthetic workload proxies have the same
shape the paper's code-generator framework uses: an initialisation pass
that touches the data region once, followed by an inner loop executed many
times.  The initialisation pass is declared as :class:`WarmupRegion`
footprints, which the simulator warms functionally; its timing loop then
runs the body ``iterations`` times, up to its dynamic instruction budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from repro.isa.instructions import Instruction, InstructionClass


@dataclass(frozen=True)
class WarmupRegion:
    """A data region whose steady-state cache/TLB contents are pre-established.

    The paper's stressmark initialises its whole array (page_size × DTLB
    entries) before the measured loop and dumps it to a file afterwards, so in
    steady state the caches hold dirty ACE data for the array and the DTLB
    holds its translations.  A short simulation window cannot reach that
    steady state by itself, so programs declare their initialised footprint
    here and the simulator warms the memory hierarchy functionally before the
    detailed window (see DESIGN.md, "Scaled evaluation defaults").

    Attributes
    ----------
    base, size_bytes:
        Address range of the region.
    dirty:
        Whether the warmed lines hold data written by the program (dirty in
        the caches, hence ACE until written back).
    ace:
        Whether the region's contents are live program data.
    word_fraction:
        Fraction of each line's words actually holding live data (captures
        fragmented, strided footprints).
    recurrent:
        True when the program's steady-state access pattern revisits the
        region cyclically with a period longer than the simulated window;
        DTLB entries for such regions are treated as ACE until the end of the
        window unless they are evicted (steady-state extrapolation).
    """

    base: int
    size_bytes: int
    dirty: bool = True
    ace: bool = True
    word_fraction: float = 1.0
    recurrent: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("warmup region size must be positive")
        if not 0.0 <= self.word_fraction <= 1.0:
            raise ValueError("word_fraction must be within [0, 1]")


class BranchBehavior(Enum):
    """How a branch's dynamic outcome is produced.

    ``LOOP_CLOSING`` branches are taken on every iteration except the last
    one (highly predictable); ``BIASED`` branches are taken with the static
    ``taken_probability`` drawn independently per dynamic instance.
    """

    LOOP_CLOSING = "loop_closing"
    BIASED = "biased"


@dataclass
class Program:
    """A synthetic program: a repeated loop body and its warm-up footprint.

    Attributes
    ----------
    name:
        Human-readable identifier (used in reports and experiment tables).
    body:
        Instructions of the inner loop, executed ``iterations`` times.
    iterations:
        Number of loop iterations available; the simulator may stop earlier
        when it reaches its dynamic instruction budget.
    branch_behaviors:
        Optional mapping from body index to :class:`BranchBehavior` for
        branches; unmapped branches default to ``BIASED``.
    pointer_chase_indices:
        Body indices of loads that are serialised against their own previous
        dynamic instance (the paper's self-dependent strided load that defeats
        memory-level parallelism).
    warmup_regions:
        Data regions whose steady-state cache/TLB contents are established
        before the detailed simulation window (see :class:`WarmupRegion`).
    metadata:
        Free-form metadata (knob values, workload profile parameters).
    """

    name: str
    body: list[Instruction]
    iterations: int = 1_000_000
    branch_behaviors: dict[int, BranchBehavior] = field(default_factory=dict)
    pointer_chase_indices: frozenset[int] = frozenset()
    warmup_regions: list[WarmupRegion] = field(default_factory=list)
    metadata: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("program body must contain at least one instruction")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        for index in self.pointer_chase_indices:
            if not 0 <= index < len(self.body):
                raise ValueError(f"pointer_chase index {index} out of body range")
            if self.body[index].opclass is not InstructionClass.LOAD:
                raise ValueError("pointer_chase indices must refer to loads")

    @property
    def body_size(self) -> int:
        """Number of static instructions in the loop body."""
        return len(self.body)

    def branch_behavior(self, body_index: int) -> BranchBehavior:
        """Behaviour of the branch at ``body_index`` (default: BIASED)."""
        return self.branch_behaviors.get(body_index, BranchBehavior.BIASED)

    def instruction_mix(self) -> Mapping[str, float]:
        """Static fraction of each instruction class in the loop body."""
        counts: dict[str, int] = {}
        for instruction in self.body:
            counts[instruction.opclass.value] = counts.get(instruction.opclass.value, 0) + 1
        total = float(len(self.body))
        return {name: count / total for name, count in counts.items()}

    def ace_instruction_fraction(self) -> float:
        """Fraction of body instructions whose results can reach the output."""
        ace_count = sum(1 for instruction in self.body if instruction.ace)
        return ace_count / float(len(self.body))

    def static_footprint_bytes(self) -> int:
        """Upper bound on the data footprint of all memory instructions."""
        footprint = 0
        for instruction in self.body:
            if instruction.address_pattern is not None:
                footprint = max(footprint, instruction.address_pattern.footprint_bytes())
        return footprint
