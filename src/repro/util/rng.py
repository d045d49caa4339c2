"""Deterministic random number generation.

Everything in the library that needs randomness (data generation,
execution noise, workload synthesis) draws from a
:class:`DeterministicRng` so that every experiment is reproducible from
a single integer seed. The class wraps :class:`random.Random` rather
than the module-level functions so independent components never share
state.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng:
    """A seedable random source with convenience helpers.

    Child generators created with :meth:`fork` are independent of the
    parent and of each other, and are themselves deterministic: forking
    with the same label always yields the same stream.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._random = random.Random(self._seed)
        # The draw random.Random.randint/choice make (3.10-3.13), bound
        # once instead of through their two wrapper layers per call.
        self._randbelow = self._random._randbelow

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Return an independent child generator derived from *label*.

        The child's stream depends only on this generator's seed and the
        label, not on how many values have been drawn so far, so
        components can be re-ordered without perturbing each other.

        The derivation must be stable across processes, so it uses a
        cryptographic digest rather than ``hash()`` (whose string
        hashing is randomized per process by ``PYTHONHASHSEED``, which
        would make "deterministic" streams differ run to run).
        """
        digest = hashlib.sha256(f"{self._seed}:{label}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFFFFFF
        return DeterministicRng(child_seed)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._randbelow(high - low + 1)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        return self._random.gauss(mu, sigma)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        if not len(seq):
            raise IndexError("cannot choose from an empty sequence")
        return seq[self._randbelow(len(seq))]

    def sample(self, seq, k: int):
        """Sample *k* distinct elements."""
        return self._random.sample(seq, k)

    def shuffle(self, seq) -> None:
        """Shuffle *seq* in place."""
        self._random.shuffle(seq)

    def zipf_index(self, n: int, skew: float) -> int:
        """Zipf-distributed index in ``[0, n)``.

        Uses the inverse-CDF rejection-free approximation adequate for
        workload synthesis; ``skew == 0`` degenerates to uniform.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if skew <= 0:
            return self._random.randrange(n)
        # Inverse transform on the (truncated) Zipf CDF.
        u = self._random.random()
        # Weights 1/(i+1)^skew; walk the CDF. n is small in our uses.
        total = sum(1.0 / (i + 1) ** skew for i in range(n))
        acc = 0.0
        for i in range(n):
            acc += (1.0 / (i + 1) ** skew) / total
            if u <= acc:
                return i
        return n - 1

    def noise_factor(self, relative_sigma: float) -> float:
        """A multiplicative noise factor centered on 1.0, floored at 0.5.

        Used to perturb simulated measurements the way host jitter
        perturbs wall-clock measurements; deterministic given the seed.
        """
        if relative_sigma <= 0:
            return 1.0
        return max(0.5, self._random.gauss(1.0, relative_sigma))
