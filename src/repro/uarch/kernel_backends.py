"""Kernel backends: the two planes a simulation can run on.

* :data:`VECTOR` — the reference loop transcribed onto operand columns
  precomputed by numpy array arithmetic, against a flat-array hierarchy
  replica warmed once per footprint
  (:func:`repro.uarch.kernel_vector.vector_run`).  Every simulation runs
  here: :meth:`OutOfOrderCore.run <repro.uarch.pipeline.OutOfOrderCore.run>`
  sends a single program as a population of one, and
  :meth:`StressmarkEvaluator.evaluate_batch
  <repro.stressmark.generator.StressmarkEvaluator.evaluate_batch>` sends a
  GA population.  Programs the column lowering cannot express — bodies over
  :data:`~repro.uarch.kernel_vector.MAX_KERNEL_BODY`, runs over
  :data:`~repro.uarch.kernel_vector.VECTOR_MAX_OPS`, more than one warm-up
  region, address streams or a region past the int64 window — run the
  interpreted reference per program.
* :data:`INTERPRETED` — the reference loop, the semantics oracle the vector
  plane is differentially tested against.  Tests, gates and perfbench name
  it explicitly; nothing else selects it.

Both planes are bit-identical by construction, so no evaluation or
fitness-cache digest names a plane.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# Imported eagerly, so numpy loads with ``import repro`` (~155 ms of ~370-430
# ms) and not on the first simulation: loaded lazily, every forked pool worker
# imports it on its first evaluation.  perfbench serve_mixed seed 1, 6
# rotations of numpy loaded by the ledger (as before) / this import / numpy
# on first use, medians (shared 2-core x86_64, Python 3.11.7, numpy 2.4.6):
#   cold_wall_s  0.224 / 0.223 / 0.324 s
#   setup_s      0.457 / 0.470 / 0.397 s
#   warm_wall_s  0.100 / 0.082 / 0.100 s
# This import with the plane selector deleted, against the ledger's import
# and the selector: 10 alternating pairs, seed 1, medians of setup_s /
# cold_wall_s / peak RSS:
#   serve_mixed     0.434 -> 0.448 s, 0.229 -> 0.176 s, 66.6 -> 66.6 MB
#   workload_suite  0.421 -> 0.426 s, 1.17  -> 1.07 s,  71.7 -> 71.1 MB
#   ga_search       0.394 -> 0.425 s, 1.38  -> 1.42 s,  61.0 -> 60.9 MB
from repro.uarch import kernel_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.pipeline import OutOfOrderCore, SimulationResult


class KernelBackend:
    """One way of executing a simulation (and batches of them).

    ``run_one`` simulates a single program; ``run_many`` a batch sharing
    whatever the backend can share (warm state).  Every backend must be
    bit-identical to the interpreted reference — the differential suite and
    the kernel-smoke and batch-smoke gates enforce it.
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
    """The plane every simulation runs on, over numpy-precomputed columns.

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
