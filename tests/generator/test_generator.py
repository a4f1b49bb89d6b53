"""Tests for the pseudo-random racy program generator."""

import pytest

from repro.generator.config import GeneratorConfig, InstructionMix
from repro.generator.generator import generate_program
from repro.model.ops import (
    IBlockLoad,
    IBlockStore,
    IBranch,
    ICas,
    ILoad,
    IMembar,
    INonFaultingLoad,
    IStore,
    ISwap,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        GeneratorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nprocs": 0},
            {"ops_per_proc": 0},
            {"shared_words": 0},
            {"stride_words": 0},
            {"base": 4},          # not 64-byte aligned
            {"loop_prob": 1.5},
            {"size_weights": {2: 1.0}},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_word_addresses_follow_stride(self):
        config = GeneratorConfig(shared_words=4, stride_words=16)
        assert config.word_addresses() == [0, 64, 128, 192]

    def test_faulting_address_outside_shared_region(self):
        config = GeneratorConfig(shared_words=32)
        assert config.faulting_address not in set(config.word_addresses())
        assert config.faulting_address % 0x1000 == 0

    def test_empty_mix_rejected(self):
        mix = InstructionMix(
            load=0, store=0, swap=0, cas=0, membar=0, block_load=0,
            block_store=0, nonfaulting_load=0, prefetch=0, flush=0, branch=0,
            interrupt=0, nc_load=0, nc_store=0,
        )
        with pytest.raises(ValueError, match="empty"):
            mix.weights()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            InstructionMix(load=-1.0).weights()


class TestGeneration:
    def test_deterministic(self):
        config = GeneratorConfig(nprocs=3, ops_per_proc=40)
        a = generate_program(config, seed=9)
        b = generate_program(config, seed=9)
        assert a.threads == b.threads

    def test_different_seeds_differ(self):
        config = GeneratorConfig(nprocs=3, ops_per_proc=40)
        a = generate_program(config, seed=1)
        b = generate_program(config, seed=2)
        assert a.threads != b.threads

    def test_exact_instruction_budget(self):
        config = GeneratorConfig(nprocs=5, ops_per_proc=73)
        program = generate_program(config, seed=4)
        assert [len(t) for t in program.threads] == [73] * 5

    def test_generated_programs_validate(self):
        for seed in range(20):
            generate_program(GeneratorConfig(nprocs=4, ops_per_proc=60), seed=seed)

    def test_all_shared_words_initialised(self):
        config = GeneratorConfig(shared_words=5)
        program = generate_program(config, seed=0)
        assert set(program.initial) == set(
            config.word_addresses() + config.nc_addresses()
        )

    def test_data_accesses_confined_near_shared_region(self):
        config = GeneratorConfig(nprocs=2, ops_per_proc=200, shared_words=8)
        program = generate_program(config, seed=3)
        limit = config.faulting_address + 0x1000
        for addr in program.addresses():
            assert 0 <= addr < limit

    def test_cas_always_paired_with_load(self):
        mix = InstructionMix(load=1, store=1, cas=50)
        config = GeneratorConfig(nprocs=2, ops_per_proc=60, mix=mix)
        program = generate_program(config, seed=7)
        found = 0
        for thread in program.threads:
            for idx, instr in enumerate(thread.instrs):
                if isinstance(instr, ICas):
                    found += 1
                    companion = thread.instrs[instr.compare_from]
                    assert isinstance(companion, ILoad)
                    assert companion.addr == instr.addr
                    assert companion.size == instr.size
                    assert instr.compare_from == idx - 1
        assert found > 0

    def test_zero_weight_suppresses_type(self):
        mix = InstructionMix(
            load=1.0, store=1.0, swap=0, cas=0, membar=0, block_load=0,
            block_store=0, nonfaulting_load=0, prefetch=0, flush=0, branch=0,
            interrupt=0,
        )
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=100, mix=mix), seed=1
        )
        for thread in program.threads:
            for instr in thread:
                assert isinstance(instr, (ILoad, IStore))

    def test_requested_types_appear(self):
        mix = InstructionMix(
            load=5, store=5, swap=5, cas=5, membar=5, block_load=5,
            block_store=5, nonfaulting_load=5, prefetch=5, flush=5, branch=5,
            interrupt=5,
        )
        program = generate_program(
            GeneratorConfig(nprocs=4, ops_per_proc=300, shared_words=32, mix=mix),
            seed=2,
        )
        types = {type(i) for t in program.threads for i in t}
        for expected in (
            ILoad, IStore, ISwap, ICas, IMembar, IBlockLoad, IBlockStore,
            INonFaultingLoad, IBranch,
        ):
            assert expected in types, expected

    def test_branches_stay_in_bounds(self):
        mix = InstructionMix(load=1, branch=20)
        program = generate_program(
            GeneratorConfig(nprocs=2, ops_per_proc=50, mix=mix), seed=5
        )
        for thread in program.threads:
            for idx, instr in enumerate(thread.instrs):
                if isinstance(instr, IBranch):
                    assert idx + instr.skip < len(thread)

    def test_loops_repeat_identical_bodies(self):
        config = GeneratorConfig(
            nprocs=1, ops_per_proc=200, loop_prob=1.0,
            loop_body_max=3, loop_count_max=4,
        )
        program = generate_program(config, seed=8)
        # With loop_prob=1 nearly all instructions come from unrolled
        # loops: look for at least one immediate repetition of a
        # non-trivial window.
        instrs = program.threads[0].instrs
        repeated = any(
            instrs[i] == instrs[i + 1] or instrs[i : i + 2] == instrs[i + 2 : i + 4]
            for i in range(len(instrs) - 4)
        )
        assert repeated

    def test_multiword_accesses_are_aligned(self):
        config = GeneratorConfig(
            nprocs=2, ops_per_proc=150, shared_words=16,
            size_weights={8: 5.0, 16: 5.0},
        )
        program = generate_program(config, seed=6)
        for thread in program.threads:
            for instr in thread:
                size = getattr(instr, "size", None)
                if size and not isinstance(instr, INonFaultingLoad):
                    assert instr.addr % size == 0

    def test_single_proc_single_word_minimal_config(self):
        program = generate_program(
            GeneratorConfig(nprocs=1, ops_per_proc=1, shared_words=1), seed=0
        )
        assert len(program.threads[0]) == 1


class TestWeightedDraw:
    """The generator's precomputed-weight draw is ``random.choices``."""

    def test_matches_random_choices_draw_for_draw(self):
        import random
        from itertools import accumulate

        from repro.generator.generator import _weighted

        population = ["a", "b", "c", "d"]
        weights = [35.0, 0.5, 4.0, 1.5]
        cum = list(accumulate(weights))
        ours, library = random.Random(9), random.Random(9)
        for _ in range(2000):
            assert _weighted(ours, population, cum) == library.choices(
                population, weights=weights, k=1
            )[0]

    def test_zero_total_weight_is_rejected(self):
        import random

        from repro.generator.generator import _weighted

        with pytest.raises(ValueError):
            _weighted(random.Random(0), [4, 8], [0.0, 0.0])
