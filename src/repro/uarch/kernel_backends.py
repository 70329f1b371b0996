"""Kernel backends: the two planes a simulation can run on.

* :data:`VECTOR` — the reference loop transcribed onto precomputed operand
  columns, against a flat-array hierarchy replica whose cache sets are
  warmed on first touch (:func:`repro.uarch.kernel_vector.vector_run`).
  Every simulation runs here: :meth:`OutOfOrderCore.run
  <repro.uarch.pipeline.OutOfOrderCore.run>` sends a single program as a
  population of one, and :meth:`StressmarkEvaluator.evaluate_batch
  <repro.stressmark.generator.StressmarkEvaluator.evaluate_batch>` sends a
  GA population.  Programs the column lowering cannot express — bodies over
  :data:`~repro.uarch.kernel_vector.MAX_KERNEL_BODY`, runs over
  :data:`~repro.uarch.kernel_vector.VECTOR_MAX_OPS`, more than one warm-up
  region — run the interpreted reference per program.
* :data:`INTERPRETED` — the reference loop, the semantics oracle the vector
  plane is differentially tested against.  Tests, gates and perfbench name
  it explicitly; nothing else selects it.

Both planes are bit-identical by construction, so no evaluation or
fitness-cache digest names a plane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Imported eagerly, so the vector plane loads with ``import repro``, before
# any pool worker forks, and not on each worker's first evaluation.  It needs
# no numpy: ``import repro`` takes 196 ms and 26.7 MB resident, where it took
# 338 ms and 38.0 MB while this import loaded numpy (medians of 8 alternating
# fresh processes, shared 2-core x86_64, Python 3.11.7).
from repro.uarch import kernel_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.pipeline import OutOfOrderCore, SimulationResult


class KernelBackend:
    """One way of executing a simulation (and batches of them).

    ``run_one`` simulates a single program; ``run_many`` a batch.  Every
    backend must be bit-identical to the interpreted reference — the
    differential suite and the kernel-smoke and batch-smoke gates enforce
    it.
    """

    name = "base"

    def run_one(
        self, core: "OutOfOrderCore", program: "Program", max_instructions: int
    ) -> "SimulationResult":
        raise NotImplementedError

    def run_many(
        self, core: "OutOfOrderCore", programs: list["Program"], max_instructions: int
    ) -> list["SimulationResult"]:
        return [self.run_one(core, program, max_instructions) for program in programs]


class InterpretedBackend(KernelBackend):
    """The reference loop — the oracle the vector plane diffs against."""

    name = "interpreted"

    def run_one(self, core, program, max_instructions):
        return core.run_interpreted(program, max_instructions, True)


class VectorKernelBackend(KernelBackend):
    """The plane every simulation runs on, over precomputed operand columns.

    ``run_many`` lowers every vectorizable program to operand columns and
    runs :func:`~repro.uarch.kernel_vector.vector_run`; programs the column
    lowering cannot express run the interpreted reference per program.
    """

    name = "vector"

    def run_many(self, core, programs, max_instructions):
        return kernel_vector.run_many(core, programs, max_instructions)


INTERPRETED = InterpretedBackend()

# Routing by measurement (2-core x86_64, Python 3.11.7, numpy 2.4.6):
# ga_search_spec(1, 0..1) populations -> vector 2.2 / 1.4 s, the since-deleted
#   batch kernel 5.2 / 4.4 s (Session.run cold / warm, one process per plane)
# workload_suite single programs -> vector 1.15 / 1.22 s at 70 MB, the
#   interpreter 4.32 / 6.64 s at 105 MB (perfbench seed 1, cold / warm,
#   medians of 10 alternating pairs); serve_mixed 49 vs 17 req/s — so
#   OutOfOrderCore.run sends single programs to VECTOR.run_many too.
VECTOR = VectorKernelBackend()


def resolve(name: object = None) -> KernelBackend:
    """The plane simulations run on: always :data:`VECTOR`.

    ``name`` is ignored; perfbench stamps ``resolve(None).name`` into every
    run it records.
    """
    return VECTOR
