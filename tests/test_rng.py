import numpy as np

from cmlab.rng import derive_rng, derive_seed, derive_seed_sequence


def test_same_tags_give_identical_streams():
    a = derive_rng(123, "alpha", 4).standard_normal(16)
    b = derive_rng(123, "alpha", 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_different_tags_give_different_streams():
    a = derive_rng(123, "alpha", 4).standard_normal(16)
    b = derive_rng(123, "alpha", 5).standard_normal(16)
    c = derive_rng(123, "beta", 4).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_root_seeds_differ():
    a = derive_rng(1, "tag").standard_normal(8)
    b = derive_rng(2, "tag").standard_normal(8)
    assert not np.array_equal(a, b)


def test_seed_sequence_is_deterministic():
    s1 = derive_seed_sequence(77, "x", 0).generate_state(4)
    s2 = derive_seed_sequence(77, "x", 0).generate_state(4)
    assert np.array_equal(s1, s2)


def test_derive_seed_is_the_first_63_bit_draw_of_the_stream():
    for root, tags in [(0, ("inject-seed",)), (21057, ("eps-cm", 3)),
                       (2**64 - 1, ("hess", 0)), (7, ())]:
        seed = derive_seed(root, *tags)
        assert type(seed) is int
        assert seed == int(derive_rng(root, *tags).integers(2**63))
