"""Kernel backends: how a population of simulations becomes machine code.

Experiment components (configs, fault rates, suites, objectives, scales,
evaluation backends, vulnerable structures) are named registry entries; so
is the innermost layer.  Two planes are registered, selectable for
population evaluation (:meth:`StressmarkEvaluator.evaluate_batch
<repro.stressmark.generator.StressmarkEvaluator.evaluate_batch>` →
``run_many``) per spec (``kernel_backend``), CLI (``--kernel-backend``) or
environment (``REPRO_KERNEL_BACKEND``):

* ``vector`` (default) — one config-specialized compiled kernel per
  machine configuration, operand columns precomputed by numpy array
  arithmetic, and a flat-array hierarchy replica warmed once per footprint
  (:mod:`repro.uarch.kernel_vector`).  Programs the column lowering cannot
  express — explicit setup sections, bodies over
  :data:`~repro.uarch.kernel_vector.MAX_KERNEL_BODY`, runs over
  :data:`~repro.uarch.kernel_vector.VECTOR_MAX_OPS`, address streams past
  the int64 window — run the interpreted reference per program.
* ``interpreted`` — the reference loop, the semantics oracle every fast
  path is differentially tested against.

Single-program runs (:meth:`OutOfOrderCore.run
<repro.uarch.pipeline.OutOfOrderCore.run>`) always execute through
:meth:`InterpretedBackend.run_one`; no pin applies to them.

Both planes are bit-identical by construction; selection is purely about
speed, which is why evaluation/fitness-cache digests deliberately do *not*
include the backend name — results cached under one plane are valid under
the other.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.pipeline import OutOfOrderCore, SimulationResult

#: Environment selector for population evaluation.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

# Routing by measurement (2-core x86_64, Python 3.11, numpy 2.4.6; one
# process per plane, Session.run cold / warm):
# ga_search_spec(1, 0..1) populations -> vector 2.2 / 1.4 s, the since-deleted
#   batch kernel 5.2 / 4.4 s
# workload_suite_spec(1, 0..1) single programs -> interpreter 4.6 / 7.1 s at
#   105 MB, per-program source kernels 10.4 / 13.5 s at 175 MB (~200 ms compile
#   per ~70 ms proxy) — so OutOfOrderCore.run stays on the interpreter.
DEFAULT_BACKEND = "vector"

KERNEL_BACKENDS = Registry("kernel backend")


class KernelBackend:
    """One way of executing a simulation (and batches of them).

    ``run_one`` simulates a single program; ``run_many`` a batch sharing
    whatever the backend can share (compiled code, warm state).  Every
    backend must be bit-identical to the interpreted reference — the
    differential suite and the batch-smoke gate enforce it.
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
    """The reference loop — the oracle the compiled planes diff against."""

    name = "interpreted"

    def run_one(self, core, program, max_instructions):
        return core.run_interpreted(program, max_instructions, True)


class VectorKernelBackend(KernelBackend):
    """Population plane over numpy-precomputed operand columns.

    ``run_many`` lowers every vectorizable genome through the config's
    vector kernel; genomes the column lowering cannot express run the
    interpreted reference per program.  Single programs never reach this
    plane.
    """

    name = "vector"

    def run_many(self, core, programs, max_instructions):
        from repro.uarch import kernel_vector

        return kernel_vector.run_many(core, programs, max_instructions)


INTERPRETED = InterpretedBackend()
VECTOR = VectorKernelBackend()

KERNEL_BACKENDS.register("interpreted", lambda: INTERPRETED)
KERNEL_BACKENDS.register("vector", lambda: VECTOR)


def resolve(name: Optional[str] = None) -> KernelBackend:
    """The kernel backend a population evaluation runs through.

    Precedence: an explicit ``name`` (spec/CLI pin), then
    ``REPRO_KERNEL_BACKEND``, then the default (``vector``).  Unknown names
    — including the removed ``source`` and ``batch`` planes — raise
    :class:`~repro.registry.RegistryError` listing the registered choices.
    """
    if not name:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    return KERNEL_BACKENDS.create(name)
