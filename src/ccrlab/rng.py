"""Deterministic random streams for reproducible property checks.

All randomized checks in this package draw from SplitMix64 so that any
run with the same seed produces bit-identical test vectors, independent
of numpy version or platform.  The generator is fully specified by its
constants:

    state      += 0x9E3779B97F4A7C15            (mod 2^64)
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Uniform doubles are output / 2^64 in [0, 1], the int rounded to the
nearest double as Python's int / float rounds it (so an output within
2^10 of 2^64 gives 1.0).

The stream is counter-based (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): output j after state s is
the mix of s + j * gamma mod 2^64.  So `block(n)` draws n outputs as one
uint64 numpy expression, the same bits as n calls of `next_u64`, and
`complex_components` and `ragged_components` are built on it.  Their
doubles come from `unit_doubles`, which splits each output into its high
and low 32 bits: both convert to float64 exactly, hi * 2^32 is exact, and
the sum hi * 2^32 + lo is one IEEE-754 add, rounded to nearest even as
every platform and numpy version does it.  A direct uint64 -> float64
cast is left to the C compiler and the CPU, so the conversion does not
rest on it.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the same constants as numpy scalars, made once: each call of `block` is a few array ops
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U27, _U30, _U31, _U32 = np.uint64(27), np.uint64(30), np.uint64(31), np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def unit_doubles(z: np.ndarray) -> np.ndarray:
    """z / 2^64 in float64 for uint64 z, each rounded as Python rounds
    int / 2.0**64: hi * 2^32 + lo is exact up to one rounded add."""
    out = (z >> _U32).astype(np.float64)
    out *= 2.0**32
    out += (z & _LOW32).astype(np.float64)
    out *= 2.0**-64
    return out


def _signed_doubles(z: np.ndarray) -> np.ndarray:
    """2 z / 2^64 - 1 for uint64 z, each as 2.0 * (z / 2.0**64) - 1.0 rounds it."""
    out = unit_doubles(z)
    out *= 2.0
    out -= 1.0
    return out


class SplitMix64:
    """Minimal 64-bit SplitMix generator with a documented algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def block(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, the state advanced by n."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _U_GAMMA  # uint64 arrays wrap mod 2^64
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        return z

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError("empty range")
        return low + self.next_u64() % (high - low + 1)

    def complex_components(self, n: int) -> np.ndarray:
        """n complex numbers with re, im uniform in [-1, 1]: each re, im
        pair is 2 output / 2^64 - 1 of two outputs in turn."""
        return _signed_doubles(self.block(2 * n)).view(complex)

    def ragged_components(self, count: int, bounds: tuple, size: int) -> tuple[np.ndarray, np.ndarray]:
        """What `count` turns of

            heads = [randint(0, b) for b in bounds]
            vector = complex_components(heads[size] + 1)

        draw, as the columns of a (bounds[size] + 1, count) block, each
        vector above zeros, and the heads as a (len(bounds), count) int
        array; the state ends where those turns leave it.  A turn takes at
        most len(bounds) + 2 bounds[size] + 2 outputs, so one block of that
        many per turn holds them all: the turns' offsets follow from the
        residues mod bounds[size] + 1 alone, and the vectors are gathered
        in one step."""
        top = bounds[size]
        if not 0 <= top < 256:
            raise ValueError(f"bounds[size] must be in 0..255, got {top}")
        state, slot = self._state, len(bounds) + 2 * top + 2
        z = self.block(count * slot)
        sizes = (z % np.uint64(top + 1)).astype(np.uint8)
        residues = sizes.tobytes()  # small ints, read one per turn
        starts = []
        at = 0
        for _ in range(count):
            starts.append(at)
            at += len(bounds) + 2 * residues[at + size] + 2
        self._state = (state + at * _GAMMA) & _MASK
        first = np.array(starts, dtype=np.intp)
        heads = np.array([z[first + j] % np.uint64(b + 1) for j, b in enumerate(bounds)]).astype(int)
        rows = np.arange(top + 1)[:, None]
        # rows past a turn's size read the next turn's outputs, or unused ones, and are zeroed
        re = first + len(bounds) + 2 * rows
        u = _signed_doubles(z)
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = u[re], u[re + 1]
        out[rows > sizes[first + size]] = 0.0
        return out, heads
