import pytest
from hypothesis import given, strategies as st

from sinkeq.profiles import ProfileCodec, validate_profile


def test_codec_round_trip_small():
    codec = ProfileCodec((2, 3, 2))
    assert codec.num_profiles == 12
    seen = set()
    for k in range(codec.num_profiles):
        profile = codec.decode(k)
        assert codec.encode(profile) == k
        seen.add(profile)
    assert len(seen) == 12


def test_codec_little_endian_order():
    codec = ProfileCodec((2, 3))
    assert codec.decode(0) == (0, 0)
    assert codec.decode(1) == (1, 0)  # player 0 varies fastest
    assert codec.decode(2) == (0, 1)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
       st.data())
def test_codec_bijection(counts, data):
    codec = ProfileCodec(counts)
    index = data.draw(st.integers(min_value=0, max_value=codec.num_profiles - 1))
    profile = codec.decode(index)
    assert codec.encode(profile) == index
    assert all(0 <= c < n for c, n in zip(profile, counts))


@pytest.mark.parametrize("counts", [(), (1,), (2, 3, 2), (1, 3, 1, 2), (4, 1), (1, 1, 1)])
def test_all_profiles_lists_the_codes_in_order(counts):
    codec = ProfileCodec(counts)
    assert codec.all_profiles() == [codec.decode(i) for i in range(codec.num_profiles)]


def test_validate_profile_bounds():
    assert validate_profile((2, 2), [1, 0]) == (1, 0)
    with pytest.raises(ValueError):
        validate_profile((2, 2), (0, 2))
    with pytest.raises(ValueError):
        validate_profile((2, 2), (0,))
    with pytest.raises(ValueError, match=r"^player 0: strategy index 1\.0 is not an integer$"):
        validate_profile((2, 2), (1.0, 0))
    with pytest.raises(ValueError, match=r"^player 0: strategy index True is not an integer$"):
        validate_profile((2, 2), (True, 0))


@pytest.mark.parametrize("counts", [(2.9, 3), (2.0,), (True,)])
def test_codec_refuses_a_strategy_count_that_is_not_an_int(counts):
    with pytest.raises(ValueError, match=rf"^player 0: strategy count {counts[0]!r} is not a"):
        ProfileCodec(counts)
    with pytest.raises(ValueError, match=r"^player 1: strategy count 0 is not a positive int$"):
        ProfileCodec((2, 0))


def test_profiles_are_value_keyed():
    assert (0, 1) == (0, 1)
    assert len({(0, 1), (0, 1), (1, 0)}) == 2
