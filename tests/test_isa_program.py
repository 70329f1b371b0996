"""Tests for the Program container and warm-up regions."""

from __future__ import annotations

import pytest

from repro.isa.instructions import make_alu, make_branch, make_load, make_nop, make_store
from repro.isa.memoryref import FixedPattern, StridedPattern
from repro.isa.program import BranchBehavior, Program, WarmupRegion


PATTERN = FixedPattern(address=0)


def simple_body():
    return [
        make_load(1, PATTERN, srcs=[2]),
        make_alu(3, [1]),
        make_store(PATTERN, srcs=[3]),
        make_branch(srcs=[3]),
    ]


class TestProgramValidation:
    def test_requires_body(self):
        with pytest.raises(ValueError):
            Program(name="empty", body=[])

    def test_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            Program(name="p", body=simple_body(), iterations=0)

    def test_pointer_chase_must_be_load(self):
        with pytest.raises(ValueError):
            Program(name="p", body=simple_body(), pointer_chase_indices=frozenset({1}))

    def test_pointer_chase_index_range(self):
        with pytest.raises(ValueError):
            Program(name="p", body=simple_body(), pointer_chase_indices=frozenset({99}))

    def test_valid_pointer_chase(self):
        program = Program(name="p", body=simple_body(), pointer_chase_indices=frozenset({0}))
        assert 0 in program.pointer_chase_indices


class TestWarmupRegion:
    def test_defaults(self):
        region = WarmupRegion(base=0, size_bytes=4096)
        assert region.dirty and region.ace
        assert region.word_fraction == 1.0
        assert not region.recurrent

    def test_size_validation(self):
        with pytest.raises(ValueError):
            WarmupRegion(base=0, size_bytes=0)

    def test_word_fraction_validation(self):
        with pytest.raises(ValueError):
            WarmupRegion(base=0, size_bytes=64, word_fraction=1.5)


class TestProgramIntrospection:
    def test_instruction_mix(self):
        program = Program(name="p", body=simple_body(), iterations=1)
        mix = program.instruction_mix()
        assert mix["load"] == pytest.approx(0.25)
        assert mix["store"] == pytest.approx(0.25)
        assert mix["int_alu"] == pytest.approx(0.25)
        assert mix["branch"] == pytest.approx(0.25)

    def test_ace_fraction_all_ace(self):
        program = Program(name="p", body=simple_body(), iterations=1)
        assert program.ace_instruction_fraction() == pytest.approx(1.0)

    def test_ace_fraction_with_nops(self):
        body = simple_body() + [make_nop()] * 4
        program = Program(name="p", body=body, iterations=1)
        assert program.ace_instruction_fraction() == pytest.approx(0.5)

    def test_branch_behavior_default(self):
        program = Program(name="p", body=simple_body(), iterations=1)
        assert program.branch_behavior(3) is BranchBehavior.BIASED

    def test_branch_behavior_override(self):
        program = Program(
            name="p", body=simple_body(), iterations=1,
            branch_behaviors={3: BranchBehavior.LOOP_CLOSING},
        )
        assert program.branch_behavior(3) is BranchBehavior.LOOP_CLOSING

    def test_static_footprint(self):
        body = [
            make_load(1, StridedPattern(base=0, stride=8, region=4096), srcs=[2]),
            make_store(StridedPattern(base=0, stride=8, region=1024), srcs=[1]),
            make_branch(srcs=[1]),
        ]
        program = Program(name="p", body=body, iterations=1)
        assert program.static_footprint_bytes() == 4096

    def test_body_size(self):
        program = Program(name="p", body=simple_body(), iterations=1)
        assert program.body_size == 4
