"""The sequential probability ratio test behind burn-in promotion."""

import math
import random

import pytest

from repro.testing.sprt import (
    Decision,
    SprtConfig,
    SprtTest,
    run_sprt,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SprtConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_stable": 0.5, "p_flaky": 0.5},
            {"p_stable": 0.2, "p_flaky": 0.7},
            {"p_flaky": 0.0},
            {"p_stable": 1.0},
            {"alpha": 0.0},
            {"alpha": 0.5},
            {"beta": 0.7},
            {"max_trials": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SprtConfig(**kwargs)

    def test_boundaries_bracket_zero(self):
        config = SprtConfig()
        assert config.promote_boundary < 0 < config.demote_boundary
        assert config.pass_increment < 0 < config.fail_increment


class TestDecisions:
    def test_default_promotion_takes_nine_passes(self):
        """With the defaults the llr needs ⌈|promote|/|pass|⌉ = 9
        consecutive passes — the number the committed promotion
        records pin."""
        config = SprtConfig()
        needed = math.ceil(
            config.promote_boundary / config.pass_increment
        )
        assert needed == 9
        test = SprtTest(config=config)
        for _ in range(needed - 1):
            assert test.update(True) is Decision.UNDECIDED
        assert test.update(True) is Decision.PROMOTE
        assert test.trials == 9
        assert test.flake_rate == 0.0

    def test_default_demotes_on_first_failure(self):
        test = SprtTest()
        assert test.update(False) is Decision.DEMOTE
        assert test.failures == 1
        assert test.flake_rate == 1.0

    def test_undecided_when_trial_cap_runs_out(self):
        # Weak hypotheses: single trials barely move the llr.
        config = SprtConfig(
            p_stable=0.6, p_flaky=0.4, max_trials=3
        )
        stream = iter([True, False, True])
        test = run_sprt(lambda i: next(stream), config)
        assert test.decision is Decision.UNDECIDED
        assert test.trials == 3

    def test_update_after_decision_is_an_error(self):
        test = SprtTest()
        test.update(False)
        assert test.done
        with pytest.raises(RuntimeError):
            test.update(True)

    def test_run_sprt_passes_trial_indices(self):
        seen = []

        def trial(index):
            seen.append(index)
            return True

        test = run_sprt(trial, SprtConfig())
        assert test.decision is Decision.PROMOTE
        assert seen == list(range(test.trials))

    def test_history_records_every_trial(self):
        config = SprtConfig(p_stable=0.6, p_flaky=0.4, max_trials=4)
        stream = iter([True, True, False, True])
        test = run_sprt(lambda i: next(stream), config)
        assert test.history == [True, True, False, True]
        assert test.failures == 1
        assert test.flake_rate == pytest.approx(0.25)


class TestErrorBounds:
    """Wald's guarantee, checked empirically on seeded streams."""

    def test_stable_streams_rarely_demote(self):
        rng = random.Random(7)
        config = SprtConfig()
        demoted = sum(
            run_sprt(
                lambda i: rng.random() < 0.995, config
            ).decision
            is Decision.DEMOTE
            for _ in range(200)
        )
        # alpha = 0.05; a perfectly stable-ish stream demoting more
        # than ~10% of the time would mean the math is wrong.
        assert demoted <= 20

    def test_flaky_streams_rarely_promote(self):
        rng = random.Random(11)
        config = SprtConfig()
        promoted = sum(
            run_sprt(
                lambda i: rng.random() < 0.5, config
            ).decision
            is Decision.PROMOTE
            for _ in range(200)
        )
        assert promoted <= 20
