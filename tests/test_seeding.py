import pytest

from passivelsm.seeding import substream

# The first two raw 64-bit words of every substream the package draws from
# with a fixed tag, for seeds 0, 7, -1 and 2**40 + 3.  A change here moves
# source layouts, measurement noise or the validate instances.
FIRST_WORDS = {
    "circle-points": {
        0: (0x05b81711c44699ae, 0x49ec9fb9ec1c1c66),
        7: (0x6df5568d602f5649, 0xc13b6234c75cc354),
        -1: (0x3f9a45d502b472e2, 0x261af2198852a7b5),
        2 ** 40 + 3: (0x9db8b5c02bfee47b, 0xd2e2d0fd83f0a8fb),
    },
    "circle-points-uniform": {
        0: (0x5b30237382a57711, 0xb576012b4adcb408),
        7: (0xc126876237971b7a, 0xa942c5fc6410c59a),
        -1: (0xc62ea3ee941d0a18, 0x4efc56e4becd784e),
        2 ** 40 + 3: (0xef0d10d43b9a6875, 0xee3c894aaa8f3bbb),
    },
    "measurement-noise": {
        0: (0xf7f7b696ab532fd7, 0x6421677724f30652),
        7: (0x6fcc25cd59841caf, 0x6b38d0694099c696),
        -1: (0xc43a0d9bbb93a3e5, 0x9f45446d1065dfd4),
        2 ** 40 + 3: (0x829591dfa0a7eea5, 0x6f006f2148e6cc80),
    },
    "morozov-instances": {
        0: (0x3cba30417c1e2506, 0x40e43fc5a380add0),
        7: (0x9c2b716f260b7c7e, 0x6eb4961566bec23f),
        -1: (0x8f24ccb79ddbe1ca, 0xdc8ce7691fcfed6e),
        2 ** 40 + 3: (0x12b33e6a0a6c3675, 0xd8ab34a95478f260),
    },
    "svd-instances": {
        0: (0x293bf9d7dc69a44f, 0x5868315c5a48d8ae),
        7: (0x020eab14f2d652ed, 0x82821f6d3cdf1972),
        -1: (0x9897779791f0fdd6, 0x05608688f8c00e82),
        2 ** 40 + 3: (0x715448cd1c45e3fb, 0x6c6d48878601b442),
    },
}


@pytest.mark.parametrize("tag, seed, words", [
    (tag, seed, words) for tag, by_seed in FIRST_WORDS.items()
    for seed, words in by_seed.items()
])
def test_first_draws_are_frozen(tag, seed, words):
    assert tuple(int(w) for w in substream(seed, tag).bit_generator.random_raw(2)) == words

