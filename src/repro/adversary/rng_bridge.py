"""Bit-exact state sharing between ``random.Random`` and NumPy.

Both CPython's ``random.Random`` and :class:`numpy.random.RandomState`
sit on the same Mersenne-Twister core (MT19937), and both derive
uniform doubles from it with the identical ``genrand_res53`` recipe
(``(a * 2**26 + b) / 2**53`` from two consecutive 32-bit words).  The
:class:`RngBridge` exploits that: it lifts a ``random.Random``'s
internal state into a ``RandomState`` via ``getstate()`` /
``set_state(("MT19937", key, pos))``, draws whole vectorised blocks of
variates, and writes the advanced state back — so a planner can consume
thousands of uniforms in one NumPy call while the wrapped
``random.Random`` observes *exactly* the stream it would have produced
call by call.

Only draw patterns whose word consumption is data-independent can be
vectorised this way.  ``random()`` qualifies (two words per double,
always); ``randint``/``sample``/``choice`` do not — their
``_randbelow`` rejection loops consume a data-dependent number of
words, and NumPy's bounded-integer sampling rejects differently.  Those
calls replay scalar-side: :meth:`RngBridge.scalar` flushes the bridged
state back first, so interleaved scalar and vector draws read one
unbroken stream.

NumPy is optional here as everywhere: the module imports without it and
:func:`numpy_available` answers ``False``; constructing a bridge then
raises.
"""

from __future__ import annotations

import math
import random
from typing import Any, List, Optional, Sequence, Tuple, Union

try:  # NumPy is optional: without it batch planners never register,
    import numpy as np  # so no bridge is ever constructed.
except ImportError:  # pragma: no cover - exercised by the numpy-less CI leg
    np = None

#: The ``random.Random.getstate()`` version every CPython since 2.3
#: emits for the Mersenne-Twister generator.
_STATE_VERSION = 3

#: MT19937 state words (the 625th element of the internal tuple is the
#: word position within the current block).
_KEY_WORDS = 624


def numpy_available() -> bool:
    """Whether the optional NumPy dependency is importable."""
    return np is not None


class RngBridge:
    """Vectorised draws from a ``random.Random``'s exact MT19937 stream.

    The bridge is lazy and sticky: the first vector draw lifts the
    wrapped generator's state into a persistent
    :class:`numpy.random.RandomState` (``_load``), subsequent draws
    advance it NumPy-side without touching Python tuples, and
    :meth:`flush` writes the advanced state back into the wrapped
    ``random.Random``.  While the bridge holds the state, the wrapped
    generator is *stale* — callers must route scalar draws through
    :meth:`scalar` (which flushes first) rather than calling methods on
    a kept reference.

    The cached Gaussian variate (``gauss_next``) is carried across the
    bridge untouched: uniform draws never invalidate it scalar-side, so
    a bridged stream is indistinguishable from a never-bridged one even
    for a caller holding a pending ``gauss()`` value.
    """

    __slots__ = ("rng", "_state", "_gauss")

    def __init__(self, rng: random.Random) -> None:
        if np is None:
            raise RuntimeError(
                "RngBridge requires numpy, which is not importable; "
                "keep scalar draws on the wrapped random.Random instead"
            )
        self.rng = rng
        self._state: Optional["np.random.RandomState"] = None
        self._gauss: Optional[float] = None

    @property
    def bridged(self) -> bool:
        """Whether the live state is currently held NumPy-side."""
        return self._state is not None

    def _load(self) -> "np.random.RandomState":
        """Lift the wrapped generator's state into a ``RandomState``."""
        state = self._state
        if state is None:
            version, internal, gauss = self.rng.getstate()
            if version != _STATE_VERSION or len(internal) != _KEY_WORDS + 1:
                raise RuntimeError(
                    f"unrecognised random.Random state (version {version}); "
                    f"cannot bridge a non-MT19937 generator"
                )
            state = np.random.RandomState()
            state.set_state(
                ("MT19937", np.asarray(internal[:_KEY_WORDS], dtype=np.uint32), internal[_KEY_WORDS])
            )
            self._state = state
            self._gauss = gauss
        return state

    def random_block(self, size: Union[int, Tuple[int, ...]]) -> "np.ndarray":
        """``size`` uniform doubles, bit-equal to successive ``random()`` calls.

        Both generators derive doubles with ``genrand_res53`` from the
        same word stream, so element ``k`` of the block (C order) equals
        the ``k``-th ``rng.random()`` the scalar path would have drawn.
        """
        return self._load().random_sample(size)

    def flush(self) -> random.Random:
        """Write the advanced MT state back into the wrapped generator.

        Idempotent; returns the wrapped ``random.Random``, now exactly
        as far along its stream as the vector draws consumed.
        """
        state = self._state
        if state is not None:
            _kind, key, pos, _has_gauss, _cached = state.get_state()
            self.rng.setstate(
                (_STATE_VERSION, tuple(int(word) for word in key) + (pos,), self._gauss)
            )
            self._state = None
            self._gauss = None
        return self.rng

    def scalar(self) -> random.Random:
        """The wrapped generator, flushed — for draws the bridge cannot
        express exactly (``randint``/``sample``/``choice`` rejection
        loops).  The next vector draw re-lifts the state lazily."""
        return self.flush()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RngBridge {'bridged' if self.bridged else 'scalar'} over {self.rng!r}>"


#: ``1 / 2**53`` — the exact power-of-two factor ``genrand_res53``
#: multiplies by, so the Python-side product is bit-identical.
_RECIP53 = 1.0 / 9007199254740992.0


#: Minimum words fetched per buffer refill; chosen so hot replay loops
#: touch NumPy once per ~thousand draws while cold streams stay cheap.
_MIN_PREFETCH = 1024


class WordStream:
    """Scalar draw patterns replayed over prefetched raw MT output words.

    The bridge's :meth:`~RngBridge.random_block` covers draws that map
    onto fixed-size uniform blocks.  Rejection-sampled draws
    (``randint``/``sample``) consume a *data-dependent* number of
    32-bit words, which no block shape can express — but the word
    stream itself is expressible: one ``RandomState`` integer draw over
    the full 32-bit range consumes exactly one MT word, identical to
    ``getrandbits(32)``.  This class prefetches whole word blocks
    NumPy-side and replays the CPython derivations the batch planners
    use (``random``/``_randbelow``/``sample``) over the buffer — scalar
    methods for arbitrary interleavings, and the vectorised
    :meth:`chain_values` / :meth:`chain_walk` decoders that resolve
    whole sequences of rejection chains with a couple of NumPy calls
    instead of a Python call per word — with bit-identical results and
    bit-identical word consumption.

    :meth:`flush` hands the wrapped ``random.Random`` a stream position
    as if each draw had happened scalar-side: the original state is
    snapshotted when the stream first loads, the total consumed word
    count is tracked exactly, and flushing re-derives the final state
    by advancing a fresh ``RandomState`` from the snapshot by exactly
    that many words (unconsumed prefetch is simply discarded).

    The ports mirror CPython 3.10–3.12 ``random`` internals.
    :func:`word_replay_matches` verifies them against the running
    interpreter's own generator; callers must gate on it (the batch
    planners simply don't register their word-stream paths when it
    answers ``False``), so a future interpreter change degrades to
    scalar planning instead of silently diverging.  The stream owns its
    generator while it holds prefetched words: route every draw through
    this class until :meth:`flush`.
    """

    __slots__ = ("rng", "_origin", "_state", "_words", "_idx", "_consumed")

    def __init__(self, rng: random.Random) -> None:
        if np is None:
            raise RuntimeError(
                "WordStream requires numpy, which is not importable; "
                "keep scalar draws on the wrapped random.Random instead"
            )
        self.rng = rng
        self._origin: Optional[Tuple[Any, ...]] = None
        self._state: Optional["np.random.RandomState"] = None
        self._words: "np.ndarray" = np.empty(0, dtype=np.int64)
        self._idx = 0
        self._consumed = 0

    def _more(self, count: int) -> None:
        """Extend the buffer by at least ``count`` unconsumed words."""
        state = self._state
        if state is None:
            origin = self.rng.getstate()
            version, internal, _gauss = origin
            if version != _STATE_VERSION or len(internal) != _KEY_WORDS + 1:
                raise RuntimeError(
                    f"unrecognised random.Random state (version {version}); "
                    f"cannot word-stream a non-MT19937 generator"
                )
            state = np.random.RandomState()
            state.set_state(
                ("MT19937", np.asarray(internal[:_KEY_WORDS], dtype=np.uint32), internal[_KEY_WORDS])
            )
            self._origin = origin
            self._state = state
        want = count if count > _MIN_PREFETCH else _MIN_PREFETCH
        # One word per value across the full 32-bit range — the
        # getrandbits(32) stream.
        block = state.randint(0, 1 << 32, size=want, dtype=np.int64)
        if self._idx:
            self._consumed += self._idx
        tail = self._words[self._idx :]
        self._idx = 0
        self._words = np.concatenate([tail, block]) if len(tail) else block

    def _word(self) -> int:
        idx = self._idx
        words = self._words
        if idx >= len(words):
            self._more(1)
            idx = self._idx
            words = self._words
        self._idx = idx + 1
        return int(words[idx])

    def _segment(self, count: int) -> "np.ndarray":
        """At least ``count`` look-ahead words as an array (not consumed)."""
        if len(self._words) - self._idx < count:
            self._more(count - (len(self._words) - self._idx))
        start = self._idx
        return self._words[start : start + count]

    def random(self) -> float:
        """Bit-identical to ``random.Random.random`` (genrand_res53)."""
        a = self._word() >> 5
        b = self._word() >> 6
        return (a * 67108864 + b) * _RECIP53

    def randbelow(self, n: int) -> int:
        """``random.Random._randbelow_with_getrandbits`` for ``n >= 1``."""
        shift = 32 - n.bit_length()
        r = self._word() >> shift
        while r >= n:
            r = self._word() >> shift
        return r

    def sample(self, population: Sequence[Any], k: int) -> List[Any]:
        # Port of random.Random.sample's selection core (the setsize
        # heuristic decides pool-swap vs rejection-set, both replayed).
        n = len(population)
        randbelow = self.randbelow
        result: List[Any] = [None] * k
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            pool = list(population)
            for i in range(k):
                j = randbelow(n - i)
                result[i] = pool[j]
                pool[j] = pool[n - i - 1]
        else:
            selected: set = set()
            selected_add = selected.add
            for i in range(k):
                j = randbelow(n)
                while j in selected:
                    j = randbelow(n)
                selected_add(j)
                result[i] = population[j]
        return result

    def chain_values(self, count: int, bound: int) -> List[int]:
        """``count`` successive ``randbelow(bound)`` results, vectorised.

        The chains are independent geometric rejection loops over the
        same acceptance predicate, so the whole sequence resolves from
        one look-ahead segment: shift every word, keep the positions
        that accept, and the first ``count`` acceptances are the draws
        (everything before the last one is consumed, rejections
        included) — two NumPy calls instead of a Python call per word.
        """
        if count <= 0:
            return []
        shift = 32 - bound.bit_length()
        need = 2 * count + 16
        while True:
            seg = self._segment(need)
            vals = seg >> shift
            ok = np.flatnonzero(vals < bound)
            if len(ok) >= count:
                self._idx += int(ok[count - 1]) + 1
                if bound == 1:  # every accepted draw is necessarily 0
                    return [0] * count
                return vals[ok[:count]].tolist()
            need *= 2

    def chain_walk(
        self, reps: int, skip: int, bounds: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Decode ``reps`` repetitions of a fixed skip-then-chains pattern.

        Each repetition consumes ``skip`` raw words (e.g. one
        ``random()`` double is two skipped words when only consumption
        matters, not the value) followed by one full ``randbelow(b)``
        rejection chain per bound ``b`` in ``bounds``; the drawn values
        come back as one tuple per repetition.  For every bound a
        next-acceptance jump table over the look-ahead segment is built
        with one ``searchsorted`` (overflow entries point at the
        segment length, an absorbing sentinel), so the sequential walk
        is two list indexings per chain rather than a Python call per
        word.
        """
        if reps <= 0:
            return []
        need = reps * (skip + 2 * len(bounds)) + 32
        while True:
            seg = self._segment(need)
            length = len(seg)
            chains = []
            for bound in bounds:
                vals = seg >> (32 - bound.bit_length())
                ok = np.flatnonzero(vals < bound)
                jump = np.full(length + 1, length, dtype=np.int64)
                if len(ok):
                    upto = int(ok[-1]) + 1
                    jump[:upto] = ok[np.searchsorted(ok, np.arange(upto))]
                chains.append((jump.tolist(), vals.tolist()))
            out: List[Tuple[int, ...]] = []
            position = 0
            overflow = False
            for _ in range(reps):
                position += skip
                if position > length:
                    overflow = True
                    break
                drawn = []
                for jump, vals_list in chains:
                    accepted = jump[position]
                    if accepted >= length:
                        overflow = True
                        break
                    drawn.append(vals_list[accepted])
                    position = accepted + 1
                if overflow:
                    break
                out.append(tuple(drawn))
            if overflow:  # ran past the segment: widen and retry
                need *= 2
                continue
            self._idx += position
            return out

    def flush(self) -> random.Random:
        """Write the exactly-consumed stream position back to the generator.

        Advances a fresh ``RandomState`` from the origin snapshot by
        precisely the consumed word count (discarding any unconsumed
        prefetch), then installs that state — the wrapped
        ``random.Random`` ends up exactly where scalar draws would have
        left it.  Idempotent; returns the wrapped generator.
        """
        origin = self._origin
        if origin is not None:
            total = self._consumed + self._idx
            if total:
                _version, internal, gauss = origin
                state = np.random.RandomState()
                state.set_state(
                    ("MT19937", np.asarray(internal[:_KEY_WORDS], dtype=np.uint32), internal[_KEY_WORDS])
                )
                remaining = total
                while remaining:
                    chunk = remaining if remaining < (1 << 20) else (1 << 20)
                    state.randint(0, 1 << 32, size=chunk, dtype=np.int64)
                    remaining -= chunk
                _kind, key, pos, _hg, _gc = state.get_state()
                self.rng.setstate(
                    (_STATE_VERSION, tuple(int(word) for word in key) + (pos,), gauss)
                )
            self._origin = None
            self._state = None
        self._words = np.empty(0, dtype=np.int64)
        self._idx = 0
        self._consumed = 0
        return self.rng


def chain_walk_many_array(
    streams: Sequence[WordStream],
    reps: int,
    skip: int,
    bounds: Sequence[int],
) -> "np.ndarray":
    """:meth:`WordStream.chain_walk` across many independent streams at once.

    Every stream decodes the same repetition pattern, so their
    look-ahead segments stack into one matrix, the per-bound shift,
    acceptance test, and next-acceptance jump tables (a suffix-minimum
    over accepted positions) are computed for the whole fleet in a
    handful of NumPy calls, and even the sequential walk vectorises
    *across* streams: its state is one position vector advanced by
    fancy-index gathers, so a round costs ``reps × len(bounds)`` array
    steps instead of a Python step per stream per chain.  Jump tables
    are padded with an absorbing out-of-words sentinel; streams whose
    walk hits it (the shared segment width ran dry) consume nothing
    matrix-side and fall back to their own
    :meth:`~WordStream.chain_walk`, which widens and retries.

    Returns the drawn values as an ``(len(streams), reps, len(bounds))``
    ``int64`` array, which feeds the batch planners' fully vectorised
    staging directly.
    """
    rows = len(streams)
    if reps <= 0 or not streams:
        return np.zeros((rows, max(reps, 0), len(bounds)), dtype=np.int64)
    width = reps * (skip + 2 * len(bounds)) + 32
    matrix = np.stack([stream._segment(width) for stream in streams])
    positions = np.arange(width, dtype=np.int64)
    row_index = np.arange(rows)
    pad = skip + 2  # index headroom past the sentinel
    chains = []
    for bound in bounds:
        vals = matrix >> (32 - bound.bit_length())
        accepted_at = np.where(vals < bound, positions, width)
        jump = np.minimum.accumulate(accepted_at[:, ::-1], axis=1)[:, ::-1]
        jump = np.concatenate(
            [jump, np.full((rows, pad), width, dtype=np.int64)], axis=1
        )
        chains.append((jump, vals))
    cursor = np.zeros(rows, dtype=np.int64)
    overflow = np.zeros(rows, dtype=bool)
    drawn_columns = []
    for _ in range(reps):
        cursor += skip
        np.minimum(cursor, width, out=cursor)  # keep sentinel rows absorbed
        for jump, vals in chains:
            accepted = jump[row_index, cursor]
            overflow |= accepted == width
            drawn_columns.append(vals[row_index, np.minimum(accepted, width - 1)])
            cursor = accepted + 1
    values = np.ascontiguousarray(
        np.stack(drawn_columns).reshape(reps, len(bounds), rows).transpose(2, 0, 1)
    )
    consumed = cursor.tolist()
    for row, flag in enumerate(overflow.tolist()):
        if flag:
            values[row] = np.asarray(
                streams[row].chain_walk(reps, skip, bounds), dtype=np.int64
            ).reshape(reps, len(bounds))
        else:
            streams[row]._idx += consumed[row]
    return values


def chain_values_many(
    streams: Sequence[WordStream],
    counts: Sequence[int],
    bound: int,
) -> List[List[int]]:
    """:meth:`WordStream.chain_values` across many streams in one sweep.

    All chains share one acceptance predicate, so a single cumulative
    sum over the stacked segments locates every stream's last accepted
    draw; streams needing more words than the shared segment width fall
    back to their own :meth:`~WordStream.chain_values`.
    """
    top = max(counts, default=0)
    if top <= 0 or not streams:
        return [[] for _ in streams]
    width = 2 * top + 16
    shift = 32 - bound.bit_length()
    matrix = np.stack([stream._segment(width) for stream in streams])
    vals = matrix >> shift
    ok = vals < bound
    acceptances = np.cumsum(ok, axis=1)
    wanted = np.asarray(counts, dtype=np.int64)[:, None]
    consumed = (acceptances < wanted).sum(axis=1) + 1
    enough = (acceptances[:, -1] >= wanted[:, 0]).tolist()
    consumed_list = consumed.tolist()
    results: List[List[int]] = []
    for row, stream in enumerate(streams):
        count = counts[row]
        if count <= 0:
            results.append([])
            continue
        if not enough[row]:
            results.append(stream.chain_values(count, bound))
            continue
        stream._idx += consumed_list[row]
        if bound == 1:  # every accepted draw is necessarily 0
            results.append([0] * count)
        else:
            row_vals = vals[row]
            results.append(row_vals[np.flatnonzero(ok[row])[:count]].tolist())
    return results


def word_replay_matches() -> bool:
    """Whether :class:`WordStream`'s ports match this interpreter.

    Replays a mixed draw sequence — every port a batch planner calls:
    uniforms, ``randbelow``, both ``sample`` branches, the vectorised
    chain decoders and the fleet decoders — against a real
    ``random.Random`` twin, including the final state write-back.
    ``False`` — NumPy missing, or a CPython whose ``random`` internals
    changed — means word-stream planners must stay unregistered.
    """
    if np is None:
        return False
    reference = random.Random(0xC0FFEE)
    mirror = random.Random(0xC0FFEE)
    stream = WordStream(mirror)
    population = list(range(23))
    try:
        for step in range(48):
            if reference.random() != stream.random():
                return False
            # randint(1, k) is 1 + randbelow(k).
            if reference.randint(1, 5) - 1 != stream.randbelow(5):
                return False
            k = (step % 7) + 1
            if reference.sample(population, k) != stream.sample(population, k):
                return False
        # randbelow(b) equals sample(range(b), 1)[0] for any scalar b
        # (single pool-swap draw), which keeps the checks on public API.
        expected = [reference.sample(range(7), 1)[0] for _ in range(6)]
        if stream.chain_values(6, 7) != expected:
            return False
        walked = []
        for _ in range(5):
            reference.random()  # two skipped words
            low = reference.randint(1, 1) - 1  # one randbelow(1) chain
            walked.append((low, reference.sample(population, 1)[0]))
        if stream.chain_walk(5, 2, (1, len(population))) != walked:
            return False
        stream.flush()
        if mirror.getstate() != reference.getstate():
            return False
        # The fleet decoders share the per-stream derivations but their
        # bookkeeping (stacked segments, jump tables, fallbacks) is
        # separate code — verify them over a two-stream fleet as well.
        references = [random.Random(1234), random.Random(5678)]
        mirrors = [random.Random(1234), random.Random(5678)]
        streams = [WordStream(m) for m in mirrors]
        expected_many = [
            [ref.sample(range(9), 1)[0] for _ in range(4)] for ref in references
        ]
        if chain_values_many(streams, [4, 4], 9) != expected_many:
            return False
        walked_many = []
        for ref in references:
            row = []
            for _ in range(3):
                ref.random()
                low = ref.randint(1, 1) - 1
                row.append([low, ref.sample(population, 1)[0]])
            walked_many.append(row)
        picks = chain_walk_many_array(streams, 3, 2, (1, len(population)))
        if picks.tolist() != walked_many:
            return False
        for ref, mirrored, stream in zip(references, mirrors, streams):
            stream.flush()
            if mirrored.getstate() != ref.getstate():
                return False
        return True
    except Exception:  # pragma: no cover - future interpreters
        return False


__all__ = [
    "RngBridge",
    "WordStream",
    "chain_values_many",
    "chain_walk_many_array",
    "numpy_available",
    "word_replay_matches",
]
