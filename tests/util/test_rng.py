"""Tests for the deterministic random source."""

import pathlib
import subprocess
import sys

import pytest

from repro.util.rng import DeterministicRng

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent.parent / "src")


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.randint(0, 100) for _ in range(20)] == \
            [b.randint(0, 100) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint(0, 10_000) for _ in range(10)] != \
            [b.randint(0, 10_000) for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(5).fork("child")
        b = DeterministicRng(5).fork("child")
        assert a.uniform(0, 1) == b.uniform(0, 1)

    def test_fork_labels_independent(self):
        root = DeterministicRng(5)
        assert root.fork("x").randint(0, 10**9) != root.fork("y").randint(0, 10**9)

    def test_fork_unaffected_by_parent_draws(self):
        a = DeterministicRng(5)
        a.randint(0, 100)  # consume parent state
        b = DeterministicRng(5)
        assert a.fork("c").uniform(0, 1) == b.fork("c").uniform(0, 1)

    def test_seed_property(self):
        assert DeterministicRng(123).seed == 123

    def test_fork_is_stable_across_processes(self):
        """fork() must not depend on PYTHONHASHSEED.

        Regression: forked seeds were once derived with ``hash()``,
        whose per-process string-hash randomization silently made every
        "deterministic" experiment vary run to run.
        """
        script = ("from repro.util.rng import DeterministicRng; "
                  "print(DeterministicRng(5).fork('child').seed)")
        seeds = set()
        for hashseed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONHASHSEED": hashseed, "PYTHONPATH": SRC_DIR},
                capture_output=True, text=True, check=True,
            )
            seeds.add(int(out.stdout))
        assert len(seeds) == 1
        assert seeds == {DeterministicRng(5).fork("child").seed}


class TestHelpers:
    def test_randint_bounds(self):
        rng = DeterministicRng(0)
        values = [rng.randint(3, 5) for _ in range(200)]
        assert set(values) == {3, 4, 5}

    def test_uniform_bounds(self):
        rng = DeterministicRng(0)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_choice(self):
        rng = DeterministicRng(0)
        options = ("a", "b", "c")
        assert all(rng.choice(options) in options for _ in range(50))

    def test_sample_distinct(self):
        rng = DeterministicRng(0)
        sample = rng.sample(list(range(100)), 10)
        assert len(sample) == len(set(sample)) == 10

    def test_shuffle_permutes(self):
        rng = DeterministicRng(0)
        data = list(range(50))
        rng.shuffle(data)
        assert sorted(data) == list(range(50))

    def test_zipf_uniform_when_zero_skew(self):
        rng = DeterministicRng(0)
        values = [rng.zipf_index(5, 0.0) for _ in range(500)]
        assert set(values) == {0, 1, 2, 3, 4}

    def test_zipf_skews_to_head(self):
        rng = DeterministicRng(0)
        values = [rng.zipf_index(10, 2.0) for _ in range(1000)]
        head = sum(1 for v in values if v == 0)
        tail = sum(1 for v in values if v == 9)
        assert head > tail * 5

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).zipf_index(0, 1.0)

    def test_noise_factor_centered(self):
        rng = DeterministicRng(0)
        values = [rng.noise_factor(0.05) for _ in range(500)]
        mean = sum(values) / len(values)
        assert 0.95 < mean < 1.05

    def test_noise_factor_floored(self):
        rng = DeterministicRng(0)
        assert all(rng.noise_factor(1.0) >= 0.5 for _ in range(200))

    def test_noise_factor_zero_sigma(self):
        assert DeterministicRng(0).noise_factor(0.0) == 1.0


class TestStreamMatchesRandom:
    """``randint``/``choice`` draw through ``Random._randbelow`` directly;
    the stream must stay the one ``random.Random``'s public methods give
    on every supported Python version (TPC-H rows are built from it)."""

    DRAWS = 100_000

    @pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
    @pytest.mark.parametrize("low,high", [(0, 0), (1, 7), (-999, 9999),
                                          (0, 2**40)])
    def test_randint(self, seed, low, high):
        import random

        ours, theirs = DeterministicRng(seed), random.Random(seed)
        assert [ours.randint(low, high) for _ in range(self.DRAWS)] == \
            [theirs.randint(low, high) for _ in range(self.DRAWS)]

    @pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
    @pytest.mark.parametrize("seq", ["OFP", tuple(range(25)), [None]])
    def test_choice(self, seed, seq):
        import random

        ours, theirs = DeterministicRng(seed), random.Random(seed)
        assert [ours.choice(seq) for _ in range(self.DRAWS)] == \
            [theirs.choice(seq) for _ in range(self.DRAWS)]

    @pytest.mark.parametrize("seed", [0, 42])
    def test_interleaved_with_uniform(self, seed):
        import random

        ours, theirs = DeterministicRng(seed), random.Random(seed)
        draw_ours = [(ours.randint(1, 50), ours.uniform(900.0, 2000.0),
                      ours.choice("AB")) for _ in range(self.DRAWS // 3)]
        draw_theirs = [(theirs.randint(1, 50), theirs.uniform(900.0, 2000.0),
                        theirs.choice("AB")) for _ in range(self.DRAWS // 3)]
        assert draw_ours == draw_theirs

    def test_empty_ranges_raise_like_random(self):
        rng = DeterministicRng(0)
        with pytest.raises(ValueError):
            rng.randint(5, 4)
        with pytest.raises(IndexError):
            rng.choice([])
