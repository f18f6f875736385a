"""Deterministic pseudo-random numbers with a frozen algorithm.

`random.Random` does not promise bit-identical method behaviour across
Python versions, and reproducibility of generated graphs is a hard
requirement here, so a small fixed generator is carried along instead:
SplitMix64 for the stream, rejection sampling for bounded draws.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream with unbiased bounded integers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Largest multiple of bound that fits in 64 bits; draws at or
        # above it would bias the result, so they are rejected.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound
