"""numpy's own seeded draws, pinned as literals.

NEP 19 freezes only the legacy `RandomState` stream, so a numpy release may
change what `default_rng(seed).multinomial` draws.  The sampling tests compare
the package's draws with draws they make from the same numpy, so such a
change passes them all and fails only the sampled goldens and the identity
digest, where it reads as a fault in qlinsys.  This test names it.
"""

import numpy as np

NOT_QLINSYS = (
    f"numpy {np.__version__} changed what default_rng(seed).multinomial draws; qlinsys did not change. "
    "Regenerate the sampled goldens (run_a1324_default.json, run_a1342_noise.json, table1_default.csv, "
    "tomo_a1234_sampled.json, tomo_a1342_noise_sqrt.json) with tests/make_golden.py, and expect new "
    "lines from tests/identity_digest.py."
)


def test_a_vector_draw():
    counts = np.random.default_rng(0).multinomial(1024, [0.25] * 4)
    assert counts.tolist() == [275, 251, 253, 245], NOT_QLINSYS


def test_a_block_draw():
    block = np.arange(1.0, 37.0).reshape(9, 4)
    counts = np.random.default_rng(1).multinomial(1024, block / block.sum(axis=1, keepdims=True))
    assert counts.tolist() == [
        [102, 187, 316, 419],
        [206, 254, 256, 308],
        [212, 246, 266, 300],
        [230, 240, 262, 292],
        [250, 226, 283, 265],
        [244, 250, 248, 282],
        [258, 249, 269, 248],
        [253, 250, 243, 278],
        [232, 261, 271, 260],
    ], NOT_QLINSYS
