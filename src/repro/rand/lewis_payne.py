"""Lewis–Payne generalised feedback shift register (GFSR) generator.

The OCB paper (Section 3.2, note under Fig. 2) mandates that *"the random
numbers used in the database creation are generated by the Lewis-Payne
random generator"*.  Lewis & Payne (JACM 1973) generate pseudo-random words
with the recurrence over GF(2)::

    x[n] = x[n - p]  XOR  x[n - q]

built on a primitive trinomial ``x^p + x^q + 1``.  The classic parameters —
used here as defaults — are ``p = 98, q = 27``.

The implementation keeps a circular buffer of the last ``p`` 32-bit words.
Seeding fills the buffer from a small linear congruential generator, forces
linear independence of the initial words by planting a sliding diagonal bit
(Ripley's recipe), and then discards ``warmup`` outputs so the state is well
mixed before the first visible draw.

The class offers the handful of conveniences the benchmark needs on top of
raw words: floats in ``[0, 1)``, bias-free bounded integers, Fisher–Yates
shuffling, sampling, Box–Muller gaussians, and reproducible *substreams*
(:meth:`spawn`) so that independent benchmark phases (schema generation,
object generation, each workload client, ...) consume independent sequences.
"""

from __future__ import annotations

import math
from typing import Iterable, List, MutableSequence, Sequence, Tuple, TypeVar

from repro.errors import ParameterError

__all__ = ["LewisPayne", "DEFAULT_SEED"]

_T = TypeVar("_T")

#: Seed used across the library when the caller does not provide one.
DEFAULT_SEED = 19980326  # EDBT'98, March 26 — the paper's conference date.

_WORD_BITS = 32
_WORD_MASK = 0xFFFFFFFF
_TWO_32 = float(1 << 32)

# Marsaglia's classic full-period multiplier for a 32-bit LCG; only used to
# expand the scalar seed into the initial GFSR table.
_LCG_MULTIPLIER = 69069
_LCG_INCREMENT = 1234567


def _mix64(value: int) -> int:
    """SplitMix64 finalizer; used to derive well-spread substream seeds."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class LewisPayne:
    """Lewis–Payne GFSR pseudo-random generator.

    Parameters
    ----------
    seed:
        Any integer.  Two generators built with the same ``(seed, p, q)``
        produce identical sequences.
    p, q:
        Exponents of the primitive trinomial ``x^p + x^q + 1``; must satisfy
        ``0 < q < p``.
    warmup:
        Number of initial outputs discarded after seeding.
    """

    __slots__ = ("_p", "_q", "_seed", "_state", "_index", "_taps", "_gauss_spare")

    def __init__(self, seed: int = DEFAULT_SEED, p: int = 98, q: int = 27,
                 warmup: int = 1000) -> None:
        if not isinstance(seed, int):
            raise ParameterError(f"seed must be an int, got {type(seed).__name__}")
        if not 0 < q < p:
            raise ParameterError(f"need 0 < q < p, got p={p}, q={q}")
        if warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {warmup}")
        self._p = p
        self._q = q
        self._seed = seed
        self._taps = [(i + p - q) % p for i in range(p)]
        self._state = self._initial_state(seed, p)
        self._index = 0
        self._gauss_spare: float | None = None
        for _ in range(warmup):
            self.next_word()

    # ------------------------------------------------------------------ #
    # Seeding / state management
    # ------------------------------------------------------------------ #

    @staticmethod
    def _initial_state(seed: int, p: int) -> List[int]:
        """Fill the ``p``-word table from an LCG and force full rank."""
        value = (seed ^ 0x5DEECE66D) & _WORD_MASK
        if value == 0:
            value = 0x1F2E3D4C
        words: List[int] = []
        for _ in range(p):
            value = (value * _LCG_MULTIPLIER + _LCG_INCREMENT) & _WORD_MASK
            words.append(value)
        # Plant a sliding diagonal of guaranteed-set bits in the first 32
        # words so the initial bit columns are linearly independent.
        for k in range(min(p, _WORD_BITS)):
            words[k] |= 1 << (_WORD_BITS - 1 - k)
        return words

    @property
    def seed(self) -> int:
        """The scalar seed this generator was created with."""
        return self._seed

    @property
    def trinomial(self) -> Tuple[int, int]:
        """The ``(p, q)`` exponents of the generator's trinomial."""
        return (self._p, self._q)

    def getstate(self) -> Tuple[int, Tuple[int, ...], "float | None"]:
        """Return an opaque, copyable snapshot of the generator state."""
        return (self._index, tuple(self._state), self._gauss_spare)

    def setstate(self, state: Tuple[int, Tuple[int, ...], "float | None"]) -> None:
        """Restore a snapshot produced by :meth:`getstate`."""
        index, words, spare = state
        if len(words) != self._p:
            raise ParameterError(
                f"state has {len(words)} words; this generator needs {self._p}")
        if not 0 <= index < self._p:
            raise ParameterError(f"state index {index} out of range [0, {self._p})")
        self._index = index
        self._state = list(words)
        self._gauss_spare = spare

    def spawn(self, key: int) -> "LewisPayne":
        """Create an independent substream deterministically derived from *key*.

        ``rng.spawn(k)`` always yields the same stream for the same parent
        seed and *key*; different keys yield streams that are (statistically)
        independent of the parent and of each other.
        """
        child_seed = _mix64((self._seed << 32) ^ _mix64(key)) & 0x7FFFFFFFFFFFFFFF
        return LewisPayne(child_seed, p=self._p, q=self._q)

    # ------------------------------------------------------------------ #
    # Core draws
    # ------------------------------------------------------------------ #

    def next_word(self) -> int:
        """Return the next raw 32-bit word of the GFSR sequence."""
        state = self._state
        i = self._index
        value = state[i] ^ state[self._taps[i]]
        state[i] = value
        self._index = i + 1 if i + 1 < self._p else 0
        return value

    def random(self) -> float:
        """Return a float uniformly distributed in ``[0, 1)`` (32-bit grain)."""
        return self.next_word() / _TWO_32

    def random53(self) -> float:
        """Return a float in ``[0, 1)`` with full double precision (53 bits)."""
        high = self.next_word() >> 5   # 27 bits
        low = self.next_word() >> 6    # 26 bits
        return (high * 67108864.0 + low) / 9007199254740992.0

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniform on the *inclusive* range ``[low, high]``.

        Uses rejection sampling, so the result is exactly uniform (no modulo
        bias) for any span up to 2^32.
        """
        if low > high:
            raise ParameterError(f"empty range: low={low} > high={high}")
        span = high - low + 1
        if span == 1:
            return low
        if span > (1 << _WORD_BITS):
            raise ParameterError(f"span {span} exceeds 32-bit generator range")
        limit = (1 << _WORD_BITS) - ((1 << _WORD_BITS) % span)
        while True:
            word = self.next_word()
            if word < limit:
                return low + (word % span)

    def randints(self, low: int, high: int, count: int) -> List[int]:
        """Return *count* successive :meth:`randint` draws on ``[low, high]``.

        The values, the words consumed and the final state are exactly those
        of *count* calls to :meth:`randint`; the GFSR loop runs inline, which
        saves two Python calls per draw.
        """
        if low > high:
            raise ParameterError(f"empty range: low={low} > high={high}")
        span = high - low + 1
        if span == 1:
            return [low] * count
        if span > (1 << _WORD_BITS):
            raise ParameterError(f"span {span} exceeds 32-bit generator range")
        limit = (1 << _WORD_BITS) - ((1 << _WORD_BITS) % span)
        state = self._state
        taps = self._taps
        p = self._p
        i = self._index
        out: List[int] = []
        append = out.append
        while count > 0:
            value = state[i] ^ state[taps[i]]
            state[i] = value
            i += 1
            if i == p:
                i = 0
            if value < limit:
                append(low + value % span)
                count -= 1
        self._index = i
        return out

    # ------------------------------------------------------------------ #
    # Derived draws
    # ------------------------------------------------------------------ #

    def choice(self, seq: Sequence[_T]) -> _T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ParameterError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: MutableSequence[_T]) -> None:
        """Shuffle *seq* in place with the Fisher–Yates algorithm."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, population: Sequence[_T], k: int) -> List[_T]:
        """Return *k* distinct elements sampled without replacement."""
        n = len(population)
        if not 0 <= k <= n:
            raise ParameterError(f"cannot sample {k} items from {n}")
        # Selection sampling keeps memory at O(k) and determinism exact.
        chosen: List[_T] = []
        seen = set()
        while len(chosen) < k:
            idx = self.randint(0, n - 1)
            if idx not in seen:
                seen.add(idx)
                chosen.append(population[idx])
        return chosen

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed value with the given *rate*."""
        if rate <= 0.0:
            raise ParameterError(f"rate must be > 0, got {rate}")
        u = self.random53()
        # random53() may return 0.0; 1 - u is then 1.0 and log() is safe.
        return -math.log(1.0 - u) / rate

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Return a normal deviate via Box–Muller (with cached spare)."""
        if sigma < 0.0:
            raise ParameterError(f"sigma must be >= 0, got {sigma}")
        spare = self._gauss_spare
        if spare is not None:
            self._gauss_spare = None
            return mu + sigma * spare
        while True:
            u1 = self.random53()
            if u1 > 0.0:
                break
        u2 = self.random53()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._gauss_spare = radius * math.sin(theta)
        return mu + sigma * radius * math.cos(theta)

    def geometric_half(self, max_value: int) -> "int | None":
        """Draw N with p(N) = 1/2^N, as OCB's stochastic traversal requires.

        Returns ``None`` when the draw exceeds *max_value* (the residual
        probability mass), letting the caller decide whether to retry or to
        treat the state as absorbing.
        """
        if max_value < 1:
            raise ParameterError(f"max_value must be >= 1, got {max_value}")
        u = self.random()
        # p(N) = 1/2^N  <=>  N = floor(-log2(u)) + 1 for u in (0, 1).
        if u <= 0.0:
            return None
        n = int(math.floor(-math.log(u, 2.0))) + 1
        return n if 1 <= n <= max_value else None

    def words(self, count: int) -> Iterable[int]:
        """Yield *count* raw words (testing / statistics helper)."""
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        for _ in range(count):
            yield self.next_word()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LewisPayne(seed={self._seed}, p={self._p}, q={self._q}, "
                f"index={self._index})")
