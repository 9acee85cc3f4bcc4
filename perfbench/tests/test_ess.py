import numpy as np
import pytest

from ess import average_ranks, bulk_ess, chains_from_columns


def ar1(phi: float, chains: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.75])
def test_bulk_ess_matches_ar1_autocorrelation_time(phi):
    # AR(1) has integrated autocorrelation time (1 + phi) / (1 - phi)
    chains, draws = 8, 5000
    expected = chains * draws * (1.0 - phi) / (1.0 + phi)
    assert bulk_ess(ar1(phi, chains, draws, seed=1)) == pytest.approx(expected, rel=0.1)


def test_bulk_ess_is_rank_based():
    x = ar1(0.5, 4, 2000, seed=2)
    assert bulk_ess(np.exp(3.0 * x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_bulk_ess_sees_chains_that_disagree():
    x = ar1(0.0, 4, 2000, seed=3)
    x[0] += 3.0  # one chain stuck elsewhere
    assert bulk_ess(x) < 0.2 * x.size


def test_average_ranks_share_ties():
    assert average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


def test_chains_from_columns_orders_by_step_and_cuts_to_shortest():
    # step-major, chain-minor, last step only partly filled
    chain = np.array([0, 1, 0, 1, 0])
    step = np.array([9, 9, 19, 19, 29])
    values = np.array([1.0, 10.0, 2.0, 20.0, 3.0])
    assert chains_from_columns(chain, step, values).tolist() == [[1.0, 2.0], [10.0, 20.0]]
