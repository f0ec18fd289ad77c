"""SplitMix64 streams: published outputs, and block draws against the
scalar loop they replace, bit for bit."""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from ccrlab.suites import _e0_if_zero
from ccrlab.rng import SplitMix64, unit_doubles

_MASK = (1 << 64) - 1


class ScalarSplitMix64:
    """The generator as one output per call, on Python ints: the reference
    every block draw must reproduce."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return self.next_u64() / 2.0**64

    def randint(self, low: int, high: int) -> int:
        return low + self.next_u64() % (high - low + 1)

    def block(self, n: int) -> np.ndarray:
        return np.array([self.next_u64() for _ in range(n)], dtype=np.uint64)

    def complex_components(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=complex)
        for j in range(n):
            re = 2.0 * self.uniform() - 1.0
            im = 2.0 * self.uniform() - 1.0
            out[j] = re + 1j * im
        return out

    def ragged_components(self, count: int, bounds: tuple, size: int):
        block = np.zeros((bounds[size] + 1, count), dtype=complex)
        heads = np.empty((len(bounds), count), dtype=int)
        for j in range(count):
            heads[:, j] = [self.randint(0, b) for b in bounds]
            block[: heads[size, j] + 1, j] = self.complex_components(heads[size, j] + 1)
        return block, heads


def test_next_u64_known_answers():
    # the published SplitMix64 outputs (Vigna's splitmix64.c) of seeds 0 and 1234567
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(3)] == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_unit_doubles_round_as_int_division():
    # ties at the top binade round to even, and outputs within 2^10 of 2^64 give 1.0
    edges = [0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**63 + 2**10, 2**63 + 3 * 2**10, 2**64 - 2**10 - 1,
             2**64 - 2**10, 2**64 - 1]
    got = unit_doubles(np.array(edges, dtype=np.uint64))
    assert got.tobytes() == np.array([z / 2.0**64 for z in edges]).tobytes()
    assert got[-1] == 1.0


_seeds = st.one_of(st.sampled_from((0, 1, 2**63, _MASK)), st.integers(0, _MASK))
_calls = st.lists(
    st.one_of(
        st.tuples(st.just("next_u64")),
        st.tuples(st.just("randint"), st.integers(-5, 5), st.integers(0, 2**64)),
        st.tuples(st.just("complex_components"), st.integers(0, 40)),
        st.tuples(st.just("block"), st.integers(0, 70)),
        st.lists(st.integers(0, 12), min_size=1, max_size=3).flatmap(lambda bounds: st.tuples(
            st.just("ragged_components"), st.integers(0, 30), st.just(tuple(bounds)),
            st.integers(0, len(bounds) - 1))),
    ),
    max_size=12,
)


def _bits(value) -> bytes:
    if isinstance(value, tuple):
        return b"".join(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return str(value.dtype).encode() + str(value.shape).encode() + value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    return str(value).encode()


@given(_seeds, _calls)
@settings(max_examples=150, deadline=None)
def test_block_draws_are_the_scalar_loop(seed, calls):
    gen, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for name, *args in calls:
        if name == "randint":
            args = [args[0], args[0] + args[1]]
        assert _bits(getattr(gen, name)(*args)) == _bits(getattr(ref, name)(*args)), (name, args)
        assert gen._state == ref.state
    assert gen.next_u64() == ref.next_u64()


def test_growth_layout_is_the_loop_over_vectors():
    # the analytic suite's 1000 (mode, power, vector) draws, e_0 for a zero vector
    for seed in range(21):
        block, heads = SplitMix64(seed).ragged_components(1000, (8, 12), 0)
        gen, want = ScalarSplitMix64(seed), np.zeros((9, 1000), dtype=complex)
        powers = np.empty(1000, dtype=int)
        for j in range(1000):
            mode = gen.randint(0, 8)
            powers[j] = gen.randint(0, 12)
            coeffs = gen.complex_components(mode + 1)
            if not np.any(coeffs):
                coeffs[0] = 1.0
            want[: mode + 1, j] = coeffs
        assert block.flags.c_contiguous and block.shape == (9, 1000)
        assert _e0_if_zero(block).tobytes() == want.tobytes()
        assert heads[1].dtype == powers.dtype and np.array_equal(heads[1], powers)
