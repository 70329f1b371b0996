"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.experiments.runner import ExperimentContext, ExperimentScale
from repro.isa import (
    BranchBehavior,
    LineCoverPattern,
    PointerChasePattern,
    Program,
    WarmupRegion,
    make_alu,
    make_branch,
    make_load,
    make_store,
)
from repro.memory.cache import CacheConfig
from repro.memory.tlb import TlbConfig
from repro.uarch.config import MachineConfig, baseline_config, config_a


@pytest.fixture(scope="session")
def baseline() -> MachineConfig:
    """The paper's baseline configuration (Table I)."""
    return baseline_config()


@pytest.fixture(scope="session")
def alternate() -> MachineConfig:
    """The paper's Configuration A (Table II)."""
    return config_a()


@pytest.fixture(scope="session")
def small_config() -> MachineConfig:
    """A scaled-down configuration for fast pipeline unit tests.

    Small caches keep functional warm-up and lifetime tracking cheap while
    preserving every structural behaviour of the model.
    """
    return MachineConfig(
        name="small",
        iq_entries=8,
        rob_entries=24,
        lq_entries=8,
        sq_entries=8,
        rename_registers=64,
        dl1=CacheConfig(name="dl1", size_bytes=4 * 1024, associativity=2, line_bytes=64, hit_latency=3),
        il1=CacheConfig(name="il1", size_bytes=4 * 1024, associativity=2, line_bytes=64, hit_latency=1),
        l2=CacheConfig(name="l2", size_bytes=32 * 1024, associativity=1, line_bytes=64, hit_latency=7),
        dtlb=TlbConfig(entries=16, page_bytes=4 * 1024),
        memory_latency=100,
    )


@pytest.fixture(scope="session")
def tiny_scale() -> ExperimentScale:
    """Very small experiment scale used by integration tests."""
    return ExperimentScale(
        name="tiny",
        workload_instructions=1_500,
        stressmark_instructions=2_500,
        ga_population=4,
        ga_generations=3,
    )


@pytest.fixture(scope="session")
def shared_session(tiny_scale: ExperimentScale):
    """Session-wide Session at the tiny scale so figure tests share cached runs."""
    with Session(scale=tiny_scale) as session:
        yield session


@pytest.fixture(scope="session")
def shared_context(shared_session: Session) -> ExperimentContext:
    """The experiment context behind ``shared_session`` (its caches included)."""
    return shared_session.context_for(RunSpec(kind="simulate"))


def build_stressmark_like_program(config: MachineConfig, loop_loads: int = 6, loop_stores: int = 6) -> Program:
    """A small, hand-built stressmark-shaped program used by pipeline tests."""
    region = config.dtlb.reach_bytes
    line = config.dl1.line_bytes
    body = [
        make_load(1, PointerChasePattern(base=0, stride=line, region=region), srcs=[1], label="chase"),
        make_alu(2, [2], label="index"),
    ]
    slots = loop_loads + loop_stores
    for index in range(loop_loads):
        body.append(
            make_load(
                3 + index,
                LineCoverPattern(base=0, line_bytes=line, region=region, slots=slots, slot=index,
                                 iteration_offset=-1),
                srcs=[2],
                label="cover_load",
            )
        )
    for index in range(loop_stores):
        body.append(
            make_store(
                LineCoverPattern(base=0, line_bytes=line, region=region, slots=slots,
                                 slot=loop_loads + index, iteration_offset=-1),
                srcs=[3 + (index % loop_loads), 2],
                label="cover_store",
            )
        )
    branch_index = len(body)
    body.append(make_branch(srcs=[2], label="loop"))
    return Program(
        name="test_stressmark_like",
        body=body,
        iterations=10**9,
        branch_behaviors={branch_index: BranchBehavior.LOOP_CLOSING},
        warmup_regions=[WarmupRegion(base=0, size_bytes=region, dirty=True, ace=True, recurrent=True)],
    )


@pytest.fixture(scope="session")
def stressmark_like_program(small_config: MachineConfig) -> Program:
    """Stressmark-shaped program sized for the small test configuration."""
    return build_stressmark_like_program(small_config)
