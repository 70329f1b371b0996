"""Where simulations execute: every route ends at ``VECTOR.run_many``.

GA populations (``StressmarkEvaluator.evaluate_batch``) and single programs
(``OutOfOrderCore.run``) both run the vector plane, and no setting sends
them elsewhere.  ``VectorKernelBackend.run_many`` is monkeypatched with a
recorder that appends one line per call to a file, so calls made inside
forked pool workers (which inherit the patch) are seen too.  Every setting
the deleted kernel-backend selector read is now dropped or refused.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.uarch import kernel_vector
from repro.uarch.kernel_backends import VECTOR, VectorKernelBackend, resolve

#: A search small enough for a unit test (two generations of four genomes).
SEARCH_OVERRIDES = {
    "stressmark_instructions": 1_500,
    "ga_population": 4,
    "ga_generations": 2,
}

#: The names the deleted selector accepted, and the planes it already refused.
PLANE_NAMES = ["source", "batch", "interpreted", "vector"]


@pytest.fixture
def plane_log(tmp_path, monkeypatch):
    """Record ``<programs> <pid>`` per ``VECTOR.run_many`` call; yields the log reader."""
    log_path = tmp_path / "planes.log"
    run_many = VectorKernelBackend.run_many

    def recording(self, core, programs, max_instructions):
        with open(log_path, "a") as log:
            log.write(f"{len(programs)} {os.getpid()}\n")
        return run_many(self, core, programs, max_instructions)

    monkeypatch.setattr(VectorKernelBackend, "run_many", recording)

    def read() -> list[tuple[int, int]]:
        if not log_path.exists():
            return []
        return [
            (int(count), int(pid))
            for count, pid in (line.split() for line in log_path.read_text().splitlines())
        ]

    return read


def _search(**legacy: object) -> RunSpec:
    """A small stressmark search, loaded from JSON the way a stored spec is."""
    return RunSpec.from_json_dict(
        {"kind": "stressmark", "name": "routing", "scale_overrides": SEARCH_OVERRIDES, **legacy}
    )


class TestPopulationRouting:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_populations_reach_vector(self, plane_log, jobs):
        """A spec that pinned the interpreter runs its populations on vector."""
        with Session(jobs=jobs) as session:
            session.run(_search(kernel_backend="interpreted"))
        populations = [pid for count, pid in plane_log() if count > 1]
        assert populations, "no population evaluation was recorded"
        if jobs > 1:
            assert all(pid != os.getpid() for pid in populations), "ran outside the pool"

    def test_unpinned_spec_reaches_vector(self, plane_log, monkeypatch):
        """``REPRO_KERNEL_BACKEND=interpreted`` no longer reaches the interpreter."""
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "interpreted")
        kernel_vector.STATS.reset()
        with Session(jobs=1) as session:
            session.run(_search())
        assert any(count > 1 for count, _ in plane_log())
        assert kernel_vector.STATS.vector_runs > 0
        assert kernel_vector.STATS.fallbacks == 0

    def test_single_programs_ignore_the_pin(self, plane_log):
        """Each program of a simulate spec is a population of one on vector."""
        spec = RunSpec.from_json_dict({
            "kind": "simulate", "name": "single", "workloads": ["crc32_proxy"],
            "kernel_backend": "interpreted",
        })
        kernel_vector.STATS.reset()
        with Session(jobs=1) as session:
            session.run(spec)
        assert plane_log() == [(1, os.getpid())]
        assert (kernel_vector.STATS.vector_runs, kernel_vector.STATS.fallbacks) == (1, 0)


@pytest.mark.parametrize("plane", PLANE_NAMES)
class TestRemovedPlanes:
    def test_spec_field(self, plane):
        """A spec naming ``kernel_backend`` loads as its unpinned twin, digest included."""
        twin = {"kind": "stressmark", "name": "legacy", "scale_overrides": SEARCH_OVERRIDES}
        spec = RunSpec.from_json_dict({**twin, "kernel_backend": plane}).validate()
        assert spec == RunSpec.from_json_dict(twin)
        assert spec.digest == RunSpec.from_json_dict(twin).digest
        # Sweeps drop it at every level: the sweep, its base and its runs.
        plain_sweep = {"kind": "sweep", "name": "legacy-sweep", "base": twin,
                       "axes": {"seed": [1, 2]}, "runs": [twin]}
        pinned = {**twin, "kernel_backend": plane}
        pinned_sweep = {**plain_sweep, "kernel_backend": plane, "base": pinned, "runs": [pinned]}
        sweep = RunSpec.from_json_dict(pinned_sweep).validate()
        assert sweep.digest == RunSpec.from_json_dict(plain_sweep).digest

    def test_cli_option(self, plane, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table1", "--kernel-backend", plane])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --kernel-backend" in capsys.readouterr().err

    def test_environment(self, plane, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", plane)
        assert resolve(None) is VECTOR
        Session(jobs=1).close()


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this source tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout.strip()


def test_import_repro_loads_the_vector_plane():
    """The vector plane loads with ``import repro``, not on each pool
    worker's first evaluation."""
    code = "import sys, repro; print('repro.uarch.kernel_vector' in sys.modules)"
    assert _run_python(code) == "True"


def test_simulations_load_no_numpy():
    """``import repro``, a simulate run and a GA population never load numpy."""
    code = textwrap.dedent("""
        import sys
        import repro
        from repro.api.session import Session
        from repro.api.spec import RunSpec
        from repro.ga.individual import Individual
        from repro.stressmark.generator import (
            StressmarkEvaluator, StressmarkGenerator, reference_knobs)
        from repro.stressmark.knobs import KnobSpace
        from repro.uarch.config import baseline_config

        with Session(jobs=1) as session:
            session.run(RunSpec.from_json_dict(
                {"kind": "simulate", "name": "no-numpy", "workloads": ["crc32_proxy"]}))
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=2_000)
        evaluator = StressmarkEvaluator(
            config=config, fault_rates=generator.fault_rates, fitness=generator.fitness,
            knob_space=KnobSpace(config), max_instructions=2_000, simulation_seed=1)
        population = [
            Individual(genome=reference_knobs(config).derive(random_seed=seed).to_genome())
            for seed in (1, 2)
        ]
        assert len(evaluator.evaluate_batch(population)) == 2
        print("numpy" in sys.modules)
    """)
    assert _run_python(code) == "False"
