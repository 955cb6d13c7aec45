"""Matching when the score is discrete: the test bed for match-quality work.

On the generator, ``eta_hat`` is continuous and each control serves a few
treated rows.  With ``q`` on a 0.5 grid and ``x4`` drawn as +-1
(``conftest.generate_discrete``), ``eta_hat`` falls into tight clusters
where treated and control rows barely overlap, and one control at a
cluster's edge serves hundreds of treated rows.  The bands (median max
K(i) at least 5x, median effective controls at most 1/5 of the
generator's) were fixed before the first run.
"""

import numpy as np

from threshmatch import DgpConfig, estimate_att, generate, split_three_way

from conftest import generate_discrete

SEEDS = range(10)
N = 12_000


def _reuse(obs, seed):
    """Max K(i) and effective controls ``(sum K)^2 / sum K^2`` of one run."""
    k = estimate_att(obs, split_three_way(obs.n, seed=seed)).matches.reuse_counts()[1]
    return k.max(), k.sum() ** 2 / (k.astype(np.float64) ** 2).sum()


def test_variant_keeps_the_generators_draws_on_a_discrete_score():
    config = DgpConfig(n=600, seed=4)
    base, disc = generate(config), generate_discrete(config)
    assert np.array_equal(disc.x, base.x)
    assert set(np.unique(disc.z[:, 3])) == {-1.0, 1.0}
    assert np.array_equal(disc.q * 2.0, np.round(disc.q * 2.0))
    assert (disc.q >= 0.0).any() and (disc.q < 0.0).any()


def test_discrete_score_concentrates_matches_on_few_controls():
    cont = np.median([_reuse(generate(DgpConfig(n=N, seed=s)), s) for s in SEEDS], axis=0)
    disc = np.median([_reuse(generate_discrete(DgpConfig(n=N, seed=s)), s) for s in SEEDS], axis=0)
    max_k, effective = disc / cont
    assert max_k >= 5.0, (cont, disc)
    assert effective <= 1.0 / 5.0, (cont, disc)
