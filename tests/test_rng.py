import numpy as np
import pytest

from threshmatch import (
    DgpConfig,
    InputError,
    bootstrap_att,
    estimate_att_crossfit,
    generate,
    monte_carlo_att,
    split_three_way,
)
from threshmatch.rng import derive_seed, rng_from

from conftest import make_null_obs


class TestStreams:
    def test_streams_are_seed_sequence_children(self):
        ss = np.random.SeedSequence(entropy=[7, 2, 1])
        assert derive_seed(7, 2, 1) == int(ss.generate_state(1, np.uint64)[0])
        expected = np.random.default_rng(np.random.SeedSequence(entropy=[7, 2, 1]))
        assert rng_from(7, 2, 1).integers(0, 2**62) == expected.integers(0, 2**62)


class TestNegativeSeeds:
    # a fractional seed would otherwise become another seed's stream
    @pytest.mark.parametrize(
        "path", [(-1,), (0, -1), (3, 0, -2), (1.5,), (0, np.float64(2.0))]
    )
    def test_rng_rejects_negative_entries(self, path):
        with pytest.raises(InputError, match="non-negative"):
            derive_seed(*path)
        with pytest.raises(InputError, match="non-negative"):
            rng_from(*path)

    @pytest.mark.parametrize(
        "seed", [-1, 1.5, np.float64(2.0)], ids=["negative", "fractional", "float64"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda seed: generate(DgpConfig(n=30, seed=seed)),
            lambda seed: split_three_way(30, seed=seed),
            lambda seed: bootstrap_att(make_null_obs(seed=0, n=30), b=5, seed=seed),
            lambda seed: estimate_att_crossfit(make_null_obs(seed=0, n=30), seed=seed),
            # DgpConfig checks its seed, so this fails before any replicate
            lambda seed: monte_carlo_att(DgpConfig(n=600, seed=seed), reps=30),
        ],
        ids=["generate", "split_three_way", "bootstrap_att", "estimate_att_crossfit",
             "monte_carlo_att"],
    )
    def test_entry_points_raise_input_error(self, call, seed):
        with pytest.raises(InputError, match="non-negative") as err:
            call(seed)
        assert err.value.split is None
