"""Where simulations execute: populations follow the kernel-backend pin.

GA populations go through the resolved kernel backend's ``run_many``
(``vector`` unless pinned); single programs run the vector plane directly,
whatever the pin.  A recording wrapper registered over both planes appends
one line per ``run_many`` call to a file, so calls made inside forked pool
workers are seen too.  Removed plane names must fail loudly wherever they
can be given.
"""

from __future__ import annotations

import os

import pytest

from repro import cli
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.registry import RegistryError
from repro.stressmark.generator import StressmarkGenerator
from repro.uarch import kernel_vector
from repro.uarch.config import baseline_config
from repro.uarch.kernel_backends import (
    BACKEND_ENV_VAR,
    INTERPRETED,
    KERNEL_BACKENDS,
    VECTOR,
    KernelBackend,
    resolve,
)

#: A search small enough for a unit test (two generations of four genomes).
SEARCH_OVERRIDES = {
    "stressmark_instructions": 1_500,
    "ga_population": 4,
    "ga_generations": 2,
}

VALID_CHOICES = "registered: interpreted, vector"


class RecordingBackend(KernelBackend):
    """Delegates to a real plane, logging ``<plane> <pid>`` per ``run_many``."""

    def __init__(self, plane: KernelBackend, log_path) -> None:
        self.plane = plane
        self.name = plane.name
        self.log_path = log_path

    def run_many(self, core, programs, max_instructions):
        with open(self.log_path, "a") as log:
            log.write(f"{self.name} {os.getpid()}\n")
        return self.plane.run_many(core, programs, max_instructions)


@pytest.fixture
def plane_log(tmp_path, monkeypatch):
    """Register recording wrappers over both planes; yields the log reader."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    log_path = tmp_path / "planes.log"
    originals = dict(KERNEL_BACKENDS.items())
    for plane in (INTERPRETED, VECTOR):
        recording = RecordingBackend(plane, log_path)
        KERNEL_BACKENDS.register(plane.name, lambda recording=recording: recording, replace=True)

    def read() -> list[tuple[str, int]]:
        if not log_path.exists():
            return []
        return [
            (name, int(pid))
            for name, pid in (line.split() for line in log_path.read_text().splitlines())
        ]

    try:
        yield read
    finally:
        for name, factory in originals.items():
            KERNEL_BACKENDS.register(name, factory, replace=True)


def _search(kernel_backend: str = "") -> RunSpec:
    return RunSpec(
        kind="stressmark",
        name="routing",
        scale_overrides=SEARCH_OVERRIDES,
        kernel_backend=kernel_backend,
    )


class TestPopulationRouting:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pinned_spec_reaches_the_interpreter(self, plane_log, jobs):
        with Session(jobs=jobs) as session:
            session.run(_search("interpreted"))
        calls = plane_log()
        assert calls, "no population evaluation was recorded"
        assert {name for name, _ in calls} == {"interpreted"}
        if jobs > 1:
            assert all(pid != os.getpid() for _, pid in calls), "ran outside the pool"

    def test_unpinned_spec_reaches_vector(self, plane_log):
        with Session(jobs=1) as session:
            session.run(_search())
        calls = plane_log()
        assert calls and {name for name, _ in calls} == {"vector"}

    def test_single_programs_ignore_the_pin(self, plane_log):
        """A simulate spec runs single programs, which the pin does not reach.

        ``OutOfOrderCore.run`` sends each program to the vector plane itself,
        not through the resolved backend: under an ``interpreted`` pin no
        recorded plane is called and the vector plane counts the run.
        """
        spec = RunSpec(kind="simulate", name="single", workloads=("crc32_proxy",),
                       kernel_backend="interpreted")
        kernel_vector.STATS.reset()
        with Session(jobs=1) as session:
            session.run(spec)
        assert plane_log() == []
        assert (kernel_vector.STATS.vector_runs, kernel_vector.STATS.fallbacks) == (1, 0)


@pytest.mark.parametrize("removed", ["source", "batch"])
class TestRemovedPlanes:
    def test_spec_field(self, removed):
        with pytest.raises(RegistryError, match=VALID_CHOICES):
            RunSpec(kind="stressmark", name="removed", kernel_backend=removed).validate()

    def test_cli_option(self, removed, capsys):
        with pytest.raises(RegistryError, match=VALID_CHOICES):
            Session(kernel_backend=removed)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["table1", "--kernel-backend", removed])
        assert exit_info.value.code == 2
        assert VALID_CHOICES in capsys.readouterr().err

    def test_environment(self, removed, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, removed)
        with pytest.raises(RegistryError, match=VALID_CHOICES):
            resolve(None)
        with pytest.raises(RegistryError, match=VALID_CHOICES):
            Session(jobs=1)
        # Library use without a Session fails before any evaluation either.
        with pytest.raises(RegistryError, match=VALID_CHOICES):
            StressmarkGenerator(config=baseline_config(), max_instructions=500).generate()
