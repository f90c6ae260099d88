import numpy as np
import pytest

from passivelsm import seeding
from passivelsm.seeding import substream


def first_draws(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy)).random(8)


@pytest.mark.parametrize("words", [
    [0, 5, 0],
    [2 ** 32, 7],
    [2 ** 64 - 1, 2 ** 33 + 1, 0],
    [12345, 0xDEADBEEF12345678, 799],
])
def test_prebuilt_entropy_gives_the_list_stream(words):
    entropy = seeding._entropy(words)
    assert entropy.dtype == np.uint32
    assert first_draws(entropy).tobytes() == first_draws(words).tobytes()
    state = np.random.SeedSequence(words).generate_state(8)
    np.testing.assert_array_equal(np.random.SeedSequence(entropy).generate_state(8), state)


def test_words_split_least_significant_first():
    assert seeding._entropy([0]).tolist() == [0]
    assert seeding._entropy([2 ** 32, 7]).tolist() == [0, 1, 7]
    assert seeding._entropy([2 ** 64 - 1]).tolist() == [2 ** 32 - 1, 2 ** 32 - 1]


@pytest.mark.parametrize("r", [0, 7, 799])
def test_substream_is_the_seed_sequence_of_its_words(r):
    words = [12345, seeding._tag_word("covariance-noise"), r]
    assert (substream(12345, "covariance-noise", r).random(8).tobytes()
            == first_draws(words).tobytes())
