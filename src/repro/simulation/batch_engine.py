"""The batch backend: whole seed sweeps as vectorised NumPy kernels.

The fast engine (:mod:`repro.simulation.fast_engine`) removed the
per-message dict traffic of the reference engine but still executes one
run at a time: a 1000-seed campaign cell pays the per-receiver Python
``Counter`` loop 1000 times.  This module executes an entire batch of
runs *simultaneously*:

* process state lives in NumPy arrays shaped ``(runs, n)`` of integer
  *value codes* (a per-group codebook maps arbitrary hashable payloads
  to dense codes and back);
* reception is a ``(runs, n, n)`` boolean matrix built from the packed
  drop words of each round's :class:`~repro.adversary.plan.BatchRoundPlan`;
* the ``A_{T,E}`` and ``U_{T,E,alpha}`` step kernels are vectorised
  across the run axis — received-multiset counts come from one stacked
  ``matmul`` of the reception matrix with one-hot sent codes, sparse
  corruption adjustments are applied with :func:`numpy.add.at`, and the
  exact ``min``-by-key tie-breaks of the scalar kernels are reproduced
  with per-code rank arrays (one for the value order of ``_sort_key``,
  one for the decision order of ``_decision_key``);
* runs exit early through an *active-runs* mask: a run whose processes
  have all decided stops planning rounds, stops appending records and
  is never mutated again, exactly like its single-run execution.

Adversary planning has one format.  Each exact adversary class in a
group is planned by one :class:`~repro.adversary.plan.BatchPlanner`
covering all its runs, which returns a round's drop schedule as packed
words and its corrupt edges as COO arrays
(:class:`~repro.adversary.plan.BatchRoundPlan`) that this engine
consumes directly — ``HO`` words come out of one XOR, reception rows
are scattered in bulk and count adjustments assemble as whole arrays.
Reliable, random-omission and random-corruption runs have registered
batch planners that plan array-at-a-time, each run's RNG stream still
consumed bit-exactly (via the :mod:`~repro.adversary.rng_bridge` where
draws vectorise, scalar replay where they cannot).  Every other class,
rotating-sender and block faults included, keeps one RNG-stream-exact
:class:`~repro.adversary.plan.MaskPlanner` per run behind the private
``_PerRunPlanner`` adapter, which turns each run's
:class:`~repro.adversary.plan.RoundPlan` into the same format.  Either
way fault schedules (and therefore the ``HO``/``SHO`` collections) are
bit-for-bit identical to the other lockstep engines; the differential
tests empty the batch-planner registry
(``repro.adversary.plan._BATCH_PLANNERS``) to diff the two.  For
:class:`~repro.adversary.base.ReliableAdversary` planning is free and
the whole round is a single vectorised step.

Reception has two representations.  Below ``n = 128`` it is the dense
``(runs, n, n)`` float32 matrix described above and counts come from the
stacked ``matmul``.  From ``n = 128`` on the engine switches to the
*packed tier*: reception is carried as
``(runs, n, ceil(n / 64))`` uint64 words in the
:func:`~repro.core.heardof.pack_mask_rows` layout, senders of each value
code pack into per-run bit-planes, and ``count(v heard by p)`` is
``popcount(recv_words & plane)`` — ~32x less memory and O(n/64) word
ops per tally instead of O(n) floats.  Batch planners emit drop
schedules directly as packed words (scattering ``edge -> word index +
bit shift``), so no dense ``(m, n, n)`` intermediate is ever built.  On
top of either tier, a fixed memory budget (``_MEMORY_BUDGET``, 2 GiB)
chunks a group's *run axis* so the peak working set stays under it;
per-run RNG streams make the split invisible in the records, and the
runner reports splits as its ``batch_chunks`` stat.

Like the fast engine, the backend is *semantically invisible*:
decisions, decision rounds, per-round ``HO``/``SHO``/``AHO`` sets,
payloads and final process states are identical to the reference engine
for every supported run, so records and reduced records are
byte-identical and cache entries are shared across backends — asserted
by the differential grid in
``tests/simulation/test_batch_engine_differential.py``.

NumPy is an *optional* dependency: the module imports without it,
:func:`batch_supported` then answers ``False`` for every run, and the
``batch`` backend (which is always registered) degrades to its ``fast``
fallback.

Two rare value shapes force a run group off the vectorised path and
through a per-run fast-engine replay (after resetting each adversary's
seeded schedule): payloads that are ``==``-equal across runs but of
different types (``1`` vs ``True`` — the scalar engines keep each run's
own first-encountered representative, a global codebook cannot), and
payload domains that are not totally ordered under the kernels' sort
keys (``nan``).  Both are detected, never silently mis-executed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

try:  # NumPy is optional: without it the batch backend just reports
    import numpy as np  # unsupported and the dispatcher falls back.
except ImportError:  # pragma: no cover - exercised by the numpy-less CI leg
    np = None

from repro.adversary.base import Adversary, ReliableAdversary
from repro.adversary.plan import BatchPlanner, BatchRoundPlan, batch_planner_for, planner_for
from repro.algorithms.kernels import (
    AteKernel,
    UteKernel,
    _decision_key,
    registered_kernel_factory,
)
from repro.algorithms.ute import QUESTION_MARK
from repro.algorithms.voting import _sort_key
from repro.core.algorithm import HOAlgorithm
from repro.core.consensus import ConsensusSpec, DecisionRecord
from repro.core.heardof import (
    HeardOfCollection,
    MaskRoundRecord,
    pack_mask_rows,
    unpack_mask_rows,
    words_per_mask,
    words_to_mask,
)
from repro.core.process import Payload, ProcessId, Value
from repro.simulation.engine import RoundObserver, SimulationConfig, SimulationResult
from repro.simulation.fast_engine import fast_supported, run_algorithm_fast
from repro.simulation.metrics import metrics_from_collection


def numpy_available() -> bool:
    """Whether the optional NumPy dependency is importable."""
    return np is not None


#: Below this system size the packed tier's per-word bookkeeping costs
#: more than the dense matmul it replaces, so groups stay dense.  Tests
#: patch it (to 0, or past any ``n``) to pin both tiers against each other.
_PACKED_MIN_N = 128

if np is not None and not hasattr(np, "bitwise_count"):
    # Pre-2.x NumPy has no popcount ufunc: count per byte through a
    # 256-entry table instead (same result, one extra temp).
    _BYTE_BITS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _word_counts(words: "np.ndarray") -> "np.ndarray":
    """Popcount summed over the trailing word axis, as int64.

    ``words`` is a little-endian uint64 array ``(..., W)``; the result
    is the per-row set-bit count ``(...,)`` — the packed tier's
    cardinality primitive (``|HO|``, per-value tallies).
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _BYTE_BITS[as_bytes].sum(axis=-1, dtype=np.int64)


def _packed_tier(n: int) -> bool:
    """Whether groups of size ``n`` execute on the packed uint64 tier.

    Packs from ``n >= 128``, where reception words are ~256x smaller
    than the dense float matrix, and stays dense below it, where the
    matmul kernel is faster.  Both tiers are byte-identical — the
    differential grid pins them against each other.
    """
    return n >= _PACKED_MIN_N


#: Per-chunk working-set budget of a batch group, in bytes.  A group
#: whose modelled footprint (:func:`_per_run_bytes` per run) exceeds it
#: splits its run axis into chunks.  No bench workload's group comes near
#: it; tests patch it, like :data:`_PACKED_MIN_N`, to force splits.
_MEMORY_BUDGET = 2 * 1024**3


def _per_run_bytes(n: int, packed: bool) -> int:
    """Estimated peak per-run working set of one group member, in bytes.

    Deliberately a coarse model — it only has to make the chunk count
    scale correctly with ``n`` and the representation:

    * packed: the uint64 reception row (``n * W * 8``), one popcount
      band temporary of the same shape, the planner's drop words and
      pad (x4 total), plus per-receiver count/heard columns (~96 bytes
      per receiver covers a dozen value codes at int64).
    * dense: the float32 reception matrix plus the one-hot operand,
      matmul temporaries and count output, ~10 floats per edge.
    """
    if packed:
        return 4 * n * words_per_mask(n) * 8 + 96 * n
    return 10 * n * n * 4


@dataclass
class SimulationRequest:
    """One run of a batch: the argument tuple of ``run_simulation``.

    ``run_batch`` implementations receive a sequence of these;
    :func:`repro.simulation.backends.run_simulations_batched` builds
    them for callers that hold plain argument tuples.
    """

    algorithm: HOAlgorithm
    initial_values: Mapping[ProcessId, Value]
    adversary: Optional[Adversary] = None
    config: Optional[SimulationConfig] = None
    observers: Optional[Sequence[RoundObserver]] = None
    spec: Optional[ConsensusSpec] = None

    def normalised(self) -> "SimulationRequest":
        """A copy with the same defaults the engines apply."""
        return SimulationRequest(
            algorithm=self.algorithm,
            initial_values=self.initial_values,
            adversary=self.adversary if self.adversary is not None else ReliableAdversary(),
            config=self.config if self.config is not None else SimulationConfig(),
            observers=self.observers,
            spec=self.spec if self.spec is not None else ConsensusSpec(),
        )


def _family_of(algorithm: HOAlgorithm) -> Optional[str]:
    """Which vectorised kernel family executes ``algorithm``, if any.

    The batch engine vectorises the two built-in kernel families; an
    algorithm whose registered factory is *not* the stock
    :class:`AteKernel`/:class:`UteKernel` (a custom kernel registered
    over it, or a third-party algorithm) is refused so it cannot
    silently diverge from its scalar kernel.
    """
    factory = registered_kernel_factory(type(algorithm))
    if factory is AteKernel:
        return "ate"
    if factory is UteKernel:
        return "ute"
    return None


def batch_supported(
    algorithm: HOAlgorithm,
    adversary: Optional[Adversary] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[RoundObserver]] = None,
) -> bool:
    """Whether a run can execute on the batch backend.

    Requires NumPy, everything :func:`fast_supported` requires, and an
    algorithm executed by one of the two vectorised kernel families.
    """
    if np is None:
        return False
    if not fast_supported(algorithm, adversary, config, observers):
        return False
    return _family_of(algorithm) is not None


class _BatchFallback(Exception):
    """Raised when a run group's values defeat vectorisation.

    Carries no data: the group is re-executed run by run on the fast
    engine after resetting each adversary's seeded schedule.
    """


class _Codebook:
    """Bidirectional map between payload objects and dense int codes.

    Lookup is by equality (like ``Counter``), so ``==``-equal payloads
    share a code and the stored representative is the first one
    encountered — which is also what ``Counter`` keeps.  A collision
    between equal values of *different* types (``1`` vs ``True``) is
    refused with :class:`_BatchFallback`: the scalar kernels would keep
    per-run representatives that a group-wide codebook cannot.
    """

    def __init__(self) -> None:
        self.values: List[Value] = []
        self._codes: Dict[Value, int] = {}
        self._sort_ranks = None
        self._decision_ranks = None

    def encode(self, value: Value) -> int:
        code = self._codes.get(value, -1)
        if code >= 0:
            existing = self.values[code]
            if existing is value or type(existing) is type(value):
                return code
            raise _BatchFallback(
                f"equal payloads of different types ({existing!r} vs {value!r})"
            )
        code = len(self.values)
        self.values.append(value)
        self._codes[value] = code
        self._sort_ranks = None
        self._decision_ranks = None
        return code

    @property
    def none_code(self) -> int:
        """The code of a ``None`` payload, or ``-2`` if never encoded.

        ``-2`` can never equal a stored decision code (codes are >= 0,
        "undecided" is ``-1``), so comparisons against it are safe.
        """
        return self._codes.get(None, -2)

    def _ranks(self, key) -> "np.ndarray":
        keys = [key(value) for value in self.values]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        # The scalar kernels take min() over *iteration order*; a rank
        # array reproduces that only if the key is a strict total order
        # over the codebook.  nan-like or repr-colliding values are not
        # — fall back to per-run execution rather than guess.
        for left, right in zip(order, order[1:]):
            if not keys[left] < keys[right]:
                raise _BatchFallback(
                    f"payload domain is not totally ordered "
                    f"({self.values[left]!r} vs {self.values[right]!r})"
                )
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[order] = np.arange(len(keys), dtype=np.int64)
        return ranks

    def sort_ranks(self) -> "np.ndarray":
        """Per-code ranks under the x-update order (``_sort_key``)."""
        if self._sort_ranks is None or len(self._sort_ranks) != len(self.values):
            self._sort_ranks = self._ranks(_sort_key)
        return self._sort_ranks

    def decision_ranks(self) -> "np.ndarray":
        """Per-code ranks under the decision order (``_decision_key``)."""
        if self._decision_ranks is None or len(self._decision_ranks) != len(self.values):
            self._decision_ranks = self._ranks(_decision_key)
        return self._decision_ranks


def _select_min(mask, ranks, sentinel):
    """Per (run, receiver): the code with minimal rank among ``mask``.

    Returns ``(has_candidate, code)``; ``code`` is meaningless where
    ``has_candidate`` is False (callers mask it out).
    """
    has = mask.any(axis=2)
    code = np.where(mask, ranks[None, None, :], sentinel).argmin(axis=2)
    return has, code


class _BatchKernel:
    """Decision bookkeeping shared by both vectorised kernel families.

    Decision state is two ``(runs, n)`` arrays: ``dec_code`` (``-1`` =
    never decided; the codebook's None code marks the degenerate
    "decided None" state that leaves a process formally undecided) and
    ``dec_round``.
    """

    def __init__(self, runs: int, n: int, book: _Codebook) -> None:
        self.runs = runs
        self.n = n
        self.book = book
        self.dec_code = np.full((runs, n), -1, dtype=np.int64)
        self.dec_round = np.full((runs, n), -1, dtype=np.int64)

    def all_decided(self) -> "np.ndarray":
        """Per run: has every process *really* decided (non-None value)?"""
        none_code = self.book.none_code
        real = (self.dec_code != -1) & (self.dec_code != none_code)
        return real.all(axis=1)

    def _counts(self, sent_act, recv, adjust, writable=False):
        """Received-value counts ``(A, n|1, V)`` plus heard counts.

        ``recv`` is ``None`` when no active run dropped anything this
        round: every receiver of a run then sees the same multiset, so
        counts collapse to ``(A, 1, V)`` and broadcast — the fully
        vectorised path a reliable sweep stays on.  A uint64 ``recv``
        is the packed tier's word array ``(A, n, W)``: counts come out
        of popcounts against per-value sender bit-planes instead of the
        dense matmul (see :meth:`_packed_counts`).  Corruption arrives
        as sparse COO adjustments (``-1`` at the intended code, ``+1``
        at the injected one, per corrupted edge).

        Dense counts are float32, packed counts int64; both are exact
        (tallies are small integers, thresholds compare identically in
        either dtype), so the two tiers decide byte-identically.
        """
        V = len(self.book.values)
        A = sent_act.shape[0]
        codes = np.arange(V, dtype=sent_act.dtype)
        if recv is not None and recv.dtype == np.uint64:
            return self._packed_counts(sent_act, recv, adjust, codes)
        onehot = (sent_act[:, :, None] == codes).astype(np.float32)
        if recv is None:
            counts = onehot.sum(axis=1)[:, None, :]
            if adjust is not None:
                counts = np.repeat(counts, self.n, axis=1)
            heard = np.full((A, 1), float(self.n), dtype=np.float32)
        else:
            counts = recv @ onehot
            heard = recv.sum(axis=2)
        if adjust is not None:
            runs_ix, recv_ix, code_ix, deltas = adjust
            np.add.at(
                counts,
                (np.asarray(runs_ix), np.asarray(recv_ix), np.asarray(code_ix)),
                np.asarray(deltas, dtype=np.float32),
            )
        elif writable and not counts.flags.writeable:  # pragma: no cover - safety
            counts = counts.copy()
        return counts, heard

    def _packed_counts(self, sent_act, recv, adjust, codes):
        """Count-space tallies from packed reception words.

        Per value code ``v`` the senders broadcasting ``v`` pack into a
        per-run bit-plane ``(A, W)``; ``count(v heard by p)`` is then
        ``popcount(recv_words[p] & plane)`` — ``O(V * n/64)`` per
        receiver with no dense intermediate.  The loop is over the
        handful of distinct value codes, so the big operands stay
        array-shaped; the one ``(A, n, W)`` band temporary is the peak
        allocation and is reused by the garbage collector between
        values.
        """
        A = sent_act.shape[0]
        V = codes.size
        counts = np.empty((A, self.n, V), dtype=np.int64)
        for v in range(V):
            plane = pack_mask_rows(sent_act == codes[v])  # (A, W)
            counts[:, :, v] = _word_counts(recv & plane[:, None, :])
        heard = _word_counts(recv)
        if adjust is not None:
            runs_ix, recv_ix, code_ix, deltas = adjust
            np.add.at(
                counts,
                (np.asarray(runs_ix), np.asarray(recv_ix), np.asarray(code_ix)),
                np.asarray(deltas, dtype=np.int64),
            )
        return counts, heard

    def _decide(self, act, eligible, win_mask, round_num):
        """Apply the shared decide step: min-by-decision-key winners."""
        has, code = _select_min(win_mask, self.book.decision_ranks(), len(self.book.values))
        decide = eligible & has
        dec = self.dec_code[act]
        self.dec_code[act] = np.where(decide, code, dec)
        self.dec_round[act] = np.where(decide, round_num, self.dec_round[act])

    def _decision_eligible(self, act):
        """Processes whose ``decisions[p] is None`` (never or None-decided)."""
        dec = self.dec_code[act]
        return (dec == -1) | (dec == self.book.none_code)

    def _apply_decision(self, proc, code: int, round_num: int, values: List[Value]) -> None:
        # Mirrors StepKernel._apply_decision: a real decision flips the
        # process, a degenerate None decision only records the round.
        if code == -1:
            return
        value = values[code]
        if value is not None:
            proc._decide(value, round_num)
        else:
            proc._decision_round = round_num

    def decision_records(self, run: int) -> List[DecisionRecord]:
        values = self.book.values
        dec_row = self.dec_code[run].tolist()
        rnd_row = self.dec_round[run].tolist()
        return [
            DecisionRecord(process=pid, value=values[dec_row[pid]], round_num=rnd_row[pid])
            for pid in range(self.n)
            if dec_row[pid] != -1 and values[dec_row[pid]] is not None
        ]


class _BatchAteKernel(_BatchKernel):
    """``A_{T,E}`` across the run axis (mirrors :class:`AteKernel`)."""

    def __init__(self, requests: Sequence[SimulationRequest], n: int, book: _Codebook) -> None:
        super().__init__(len(requests), n, book)
        self.threshold = np.array(
            [[float(r.algorithm.params.threshold)] for r in requests], dtype=np.float32
        )
        self.enough = np.array(
            [[float(r.algorithm.params.enough)] for r in requests], dtype=np.float32
        )
        self.nested = np.array(
            [[bool(r.algorithm.nested_decision_guard)] for r in requests], dtype=bool
        )
        self.xs = np.array(
            [
                [book.encode(r.initial_values[p]) for p in range(n)]
                for r in requests
            ],
            dtype=np.int64,
        )

    def sends(self, round_num: int) -> "np.ndarray":
        return self.xs

    def step_round(self, round_num, act, recv, adjust, sent_act) -> None:
        counts, heard = self._counts(sent_act, recv, adjust)
        update_flag = heard > self.threshold[act]
        x_update = update_flag & (heard > 0)
        best = counts.max(axis=2)
        candidates = (counts == best[..., None]) & (counts > 0)
        _, x_code = _select_min(candidates, self.book.sort_ranks(), len(self.book.values))
        self.xs[act] = np.where(x_update, x_code, self.xs[act])

        eligible = self._decision_eligible(act) & (update_flag | ~self.nested[act])
        win_mask = (counts > self.enough[act][..., None]) & (counts > 0)
        self._decide(act, eligible, win_mask, round_num)

    def finalise(self, run: int, processes) -> None:
        values = self.book.values
        xs_row = self.xs[run].tolist()
        dec_row = self.dec_code[run].tolist()
        rnd_row = self.dec_round[run].tolist()
        for pid in range(self.n):
            proc = processes[pid]
            proc.x = values[xs_row[pid]]
            self._apply_decision(proc, dec_row[pid], rnd_row[pid], values)


class _BatchUteKernel(_BatchKernel):
    """``U_{T,E,alpha}`` across the run axis (mirrors :class:`UteKernel`)."""

    def __init__(self, requests: Sequence[SimulationRequest], n: int, book: _Codebook) -> None:
        super().__init__(len(requests), n, book)
        self.threshold = np.array(
            [[float(r.algorithm.params.threshold)] for r in requests], dtype=np.float32
        )
        self.enough = np.array(
            [[float(r.algorithm.params.enough)] for r in requests], dtype=np.float32
        )
        self.witness_floor = np.array(
            [[float(r.algorithm.params.alpha) + 1.0] for r in requests], dtype=np.float32
        )
        self.default_code = np.array(
            [[book.encode(r.algorithm.default_value)] for r in requests], dtype=np.int64
        )
        self.qmark_code = book.encode(QUESTION_MARK)
        self.xs = np.array(
            [
                [book.encode(r.initial_values[p]) for p in range(n)]
                for r in requests
            ],
            dtype=np.int64,
        )
        self.votes = np.full((self.runs, n), self.qmark_code, dtype=np.int64)

    def sends(self, round_num: int) -> "np.ndarray":
        return self.xs if round_num % 2 == 1 else self.votes

    def step_round(self, round_num, act, recv, adjust, sent_act) -> None:
        counts, _heard = self._counts(sent_act, recv, adjust, writable=True)
        # "Proper" values exclude the QUESTION_MARK placeholder; zeroing
        # its column after the corruption adjustments matches the
        # isinstance filter of the scalar kernel (an adversary may
        # inject the placeholder itself).
        counts[..., self.qmark_code] = 0.0

        if round_num % 2 == 1:
            win_mask = (counts > self.threshold[act][..., None]) & (counts > 0)
            has, code = _select_min(
                win_mask, self.book.decision_ranks(), len(self.book.values)
            )
            self.votes[act] = np.where(has, code, self.votes[act])
            return

        witnessed = (counts >= self.witness_floor[act][..., None]) & (counts > 0)
        best = np.where(witnessed, counts, -1.0).max(axis=2)
        candidates = witnessed & (counts == best[..., None])
        has_witness, x_code = _select_min(
            candidates, self.book.decision_ranks(), len(self.book.values)
        )
        self.xs[act] = np.where(has_witness, x_code, self.default_code[act])

        eligible = self._decision_eligible(act)
        win_mask = (counts > self.enough[act][..., None]) & (counts > 0)
        self._decide(act, eligible, win_mask, round_num)

        self.votes[act] = self.qmark_code

    def finalise(self, run: int, processes) -> None:
        values = self.book.values
        xs_row = self.xs[run].tolist()
        votes_row = self.votes[run].tolist()
        dec_row = self.dec_code[run].tolist()
        rnd_row = self.dec_round[run].tolist()
        for pid in range(self.n):
            proc = processes[pid]
            proc.x = values[xs_row[pid]]
            proc.vote = values[votes_row[pid]]
            self._apply_decision(proc, dec_row[pid], rnd_row[pid], values)


_BATCH_KERNELS = {"ate": _BatchAteKernel, "ute": _BatchUteKernel}


def _rows_from_words(words: "np.ndarray") -> List[List[int]]:
    """Per-member, per-receiver HO mask ints from ``(m, n, W)`` uint64 words.

    Bit ``s`` of ``out[member][receiver]`` is bit ``s & 63`` of word
    ``s >> 6`` — the :func:`repro.core.heardof.pack_mask_rows` layout.
    Single-word masks fall straight out of the array; wider masks
    recombine across words per cell.
    """
    if words.shape[-1] == 1:
        return words[:, :, 0].tolist()
    rows = words.tolist()
    return [
        [words_to_mask(cell) for cell in row]
        for row in rows
    ]


class _PerRunPlanner(BatchPlanner):
    """Per-run mask planners behind the batch-plan interface.

    Adversary classes without a registered batch planner keep one
    :func:`~repro.adversary.plan.planner_for` planner per member (native,
    or the :class:`~repro.adversary.plan.MatrixPlanAdapter`), each
    consuming its adversary's RNG exactly as a per-run execution would.
    Every live member's :class:`~repro.adversary.plan.RoundPlan` becomes
    its slice of one :class:`~repro.adversary.plan.BatchRoundPlan`: the
    drop masks' little-endian bytes are its packed word rows, and the
    corrupt bits its drops leave standing become COO edges in
    ascending-sender order, payloads encoded through the codebook.
    """

    def __init__(self, adversaries: Sequence[Adversary], n: int) -> None:
        super().__init__(adversaries, n)
        self._planners = [planner_for(adversary, n) for adversary in self.adversaries]

    def plan_rounds(
        self,
        round_num: int,
        sent: Sequence[Sequence[Payload]],
        live: Sequence[int],
        encode: Callable[[Payload], int],
        codes: Any = None,
        values: Any = None,
    ) -> BatchRoundPlan:
        n = self.n
        full = (1 << n) - 1
        row_bytes = words_per_mask(n) * 8
        drop_words: Optional["np.ndarray"] = None
        e_pos: List[int] = []
        e_recv: List[int] = []
        e_send: List[int] = []
        e_code: List[int] = []
        for pos, j in enumerate(live):
            plan = self._planners[j].plan_round(round_num, sent[pos])
            drop_masks = plan.drop_masks
            if any(drop_masks):
                if drop_words is None:
                    drop_words = np.zeros((len(live), n, row_bytes // 8), dtype=np.uint64)
                drop_words[pos] = np.frombuffer(
                    b"".join((mask & full).to_bytes(row_bytes, "little") for mask in drop_masks),
                    dtype="<u8",
                ).reshape(n, -1)
            corrupt_values = plan.corrupt_values
            for receiver, cmask in enumerate(plan.corrupt_masks):
                if not cmask:
                    continue
                cmask &= full & ~drop_masks[receiver]
                payloads = corrupt_values[receiver]
                while cmask:
                    low = cmask & -cmask
                    sender = low.bit_length() - 1
                    cmask ^= low
                    e_pos.append(pos)
                    e_recv.append(receiver)
                    e_send.append(sender)
                    e_code.append(encode(payloads[sender]))
        corrupt = (e_pos, e_recv, e_send, e_code) if e_pos else None
        return BatchRoundPlan(drop_words=drop_words, corrupt=corrupt)


def _run_group(
    family: str,
    requests: Sequence[SimulationRequest],
    packed: bool = False,
) -> List[SimulationResult]:
    """Execute one same-shape group of runs vectorised.

    All requests share the kernel family, ``n`` and the loop-control
    config fields (grouping key of :func:`run_algorithm_batch`); the
    algorithm *parameters*, adversaries, initial values and specs may
    differ per run — parameters live in per-run arrays, adversaries in
    one batch planner per exact adversary class.

    With ``packed`` the reception state is ``(A, n, W)`` uint64 words
    (``W = ceil(n / 64)``, :func:`~repro.core.heardof.pack_mask_rows`
    layout) instead of the dense ``(A, n, n)`` float32 matrix, and the
    kernels tally by popcount against per-value sender bit-planes —
    same decisions, ~32x smaller working set at large ``n``.
    """
    # Same construction (and the same validation errors) as the scalar
    # engines, before any adversary RNG is consumed.
    processes_list = [r.algorithm.create_all(r.initial_values) for r in requests]
    n = len(processes_list[0])
    runs = len(requests)
    config = requests[0].config

    book = _Codebook()
    kernel = _BATCH_KERNELS[family](requests, n, book)
    collections = [HeardOfCollection(n) for _ in range(runs)]

    # One planner per exact adversary class, in first-appearance order,
    # so the member lists (and therefore per-member RNG consumption) are
    # deterministic: the registered batch planner, else the per-run
    # adapter.  Only registered planners count as batch planned.
    by_class: Dict[type, List[int]] = {}
    for index, request in enumerate(requests):
        by_class.setdefault(type(request.adversary), []).append(index)
    parts: List[Tuple[BatchPlanner, List[int], bool]] = []
    for members in by_class.values():
        adversaries = [requests[i].adversary for i in members]
        planner = batch_planner_for(adversaries, n)
        if planner is None:
            parts.append((_PerRunPlanner(adversaries, n), members, False))
        else:
            parts.append((planner, members, True))
    batch_planned_rounds = [0] * runs

    full = (1 << n) - 1
    full_tuple = (full,) * n
    nones_tuple = (None,) * n
    width = words_per_mask(n)
    # The full mask's word row doubles as the packed reception template
    # (pad bits beyond ``n`` stay zero everywhere, so XOR with it turns
    # drop words straight into HO words).
    word_full = np.frombuffer(full.to_bytes(width * 8, "little"), dtype="<u8")

    active = np.ones(runs, dtype=bool)
    rounds_executed = np.zeros(runs, dtype=np.int64)
    stop_when_all_decided = config.stop_when_all_decided
    min_rounds = config.min_rounds

    for round_num in range(1, config.max_rounds + 1):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        a_pos_of = {i: a_pos for a_pos, i in enumerate(act.tolist())}
        sent_codes = kernel.sends(round_num)
        values_of = book.values
        recv = None
        adj_parts: List[Tuple] = []

        for planner, members, registered in parts:
            # ``live`` indexes the partition's member list (the
            # planner's own adversary indices); ``live_runs`` maps
            # those back to run indices within the group.
            live = [pos for pos, i in enumerate(members) if i in a_pos_of]
            if not live:
                continue
            live_runs = [members[pos] for pos in live]
            live_arr = np.asarray(live_runs, dtype=np.int64)
            codes_mat = sent_codes[live_arr]
            sent_rows = [
                [values_of[c] for c in code_row] for code_row in codes_mat.tolist()
            ]
            plan = planner.plan_rounds(
                round_num, sent_rows, live, book.encode, codes_mat, values_of
            )
            if registered:
                for i in live_runs:
                    batch_planned_rounds[i] += 1
            drop_words = plan.drop_words
            edges = plan.corrupt

            if drop_words is None and edges is None:
                # Perfect round for the whole partition: reception
                # template untouched, records from shared tuples.
                for pos, i in enumerate(live_runs):
                    collections[i].append(
                        MaskRoundRecord(
                            round_num=round_num,
                            n=n,
                            sent=tuple(sent_rows[pos]),
                            ho_masks=full_tuple,
                            sho_masks=full_tuple,
                            corrupt=nones_tuple,
                        )
                    )
                continue

            positions = [a_pos_of[i] for i in live_runs]
            if drop_words is not None:
                ho_words = np.bitwise_xor(drop_words, word_full)
                ho_rows = _rows_from_words(ho_words)
                if recv is None:
                    if packed:
                        recv = np.empty((act.size, n, width), dtype=np.uint64)
                        recv[:] = word_full
                    else:
                        recv = np.ones((act.size, n, n), dtype=np.float32)
                if packed:
                    recv[positions] = ho_words
                else:
                    recv[positions] = unpack_mask_rows(ho_words, n)
            else:
                ho_rows = None

            # Corrupt edges arrive as COO columns sorted ascending by
            # sender within each (member, receiver).  The kernel's count
            # adjustments (-1 intended, +1 injected) assemble as whole
            # arrays; only the per-member record dicts still walk the
            # edges in Python.
            cmask_of: Dict[int, Dict[int, int]] = {}
            cvals_of: Dict[int, Dict[int, dict]] = {}
            if edges is not None:
                e_pos = np.asarray(edges[0], dtype=np.int64)
                e_recv = np.asarray(edges[1], dtype=np.int64)
                e_send = np.asarray(edges[2], dtype=np.int64)
                e_code = np.asarray(edges[3], dtype=np.int64)
                a_pos_arr = np.asarray(positions, dtype=np.int64)[e_pos]
                intended = codes_mat[e_pos, e_send]
                n_edges = len(e_code)
                deltas = np.empty(2 * n_edges, dtype=np.float32)
                deltas[:n_edges] = -1.0
                deltas[n_edges:] = 1.0
                adj_parts.append(
                    (
                        np.concatenate([a_pos_arr, a_pos_arr]),
                        np.concatenate([e_recv, e_recv]),
                        np.concatenate([intended, e_code]),
                        deltas,
                    )
                )
                # Planners may emit the columns as arrays; the record
                # walk wants plain ints (mask shifts must not wrap in
                # fixed-width integer arithmetic).  Edges usually arrive
                # grouped by member, so the member dicts are re-looked-up
                # only on a position change.
                prev_pos = -1
                masks: Dict[int, int] = {}
                member_vals: Dict[int, dict] = {}
                for pos, receiver, sender, code in zip(
                    e_pos.tolist(), e_recv.tolist(), e_send.tolist(), e_code.tolist()
                ):
                    if pos != prev_pos:
                        masks = cmask_of.setdefault(pos, {})
                        member_vals = cvals_of.setdefault(pos, {})
                        prev_pos = pos
                    masks[receiver] = masks.get(receiver, 0) | (1 << sender)
                    member_vals.setdefault(receiver, {})[sender] = values_of[code]

            for pos, i in enumerate(live_runs):
                ho_t = full_tuple if ho_rows is None else tuple(ho_rows[pos])
                masks = cmask_of.get(pos)
                if not masks:
                    sho_t = ho_t
                    corrupt_t: Tuple[Optional[dict], ...] = nones_tuple
                else:
                    sho_l = list(ho_t)
                    corrupt_l: List[Optional[dict]] = [None] * n
                    member_vals = cvals_of[pos]
                    for receiver, cmask in masks.items():
                        sho_l[receiver] &= ~cmask
                        corrupt_l[receiver] = member_vals[receiver]
                    sho_t = tuple(sho_l)
                    corrupt_t = tuple(corrupt_l)
                collections[i].append(
                    MaskRoundRecord(
                        round_num=round_num,
                        n=n,
                        sent=tuple(sent_rows[pos]),
                        ho_masks=ho_t,
                        sho_masks=sho_t,
                        corrupt=corrupt_t,
                    )
                )

        if not adj_parts:
            adjust = None
        elif len(adj_parts) == 1:
            adjust = adj_parts[0]
        else:
            adjust = tuple(np.concatenate(cols) for cols in zip(*adj_parts))
        sent_act = sent_codes[act]  # fancy index: a pre-mutation snapshot
        kernel.step_round(round_num, act, recv, adjust, sent_act)
        rounds_executed[act] = round_num

        if stop_when_all_decided and round_num >= min_rounds:
            done = kernel.all_decided()[act]
            if done.any():
                active[act[done]] = False

    # Write bridged RNG state back so every adversary's random.Random
    # ends the group exactly where a per-run execution would leave it.
    for planner, _members, _registered in parts:
        planner.finish()

    results: List[SimulationResult] = []
    for pos, request in enumerate(requests):
        processes = processes_list[pos]
        kernel.finalise(pos, processes)
        decisions = kernel.decision_records(pos)
        outcome = request.spec.evaluate(
            initial_values=request.initial_values,
            decisions=decisions,
            rounds_executed=int(rounds_executed[pos]),
            metadata={
                "algorithm": request.algorithm.describe(),
                "adversary": request.adversary.describe(),
            },
        )
        metrics = metrics_from_collection(
            collections[pos],
            {d.process: d.round_num for d in decisions},
            include_profiles=request.config.record_states,
        )
        results.append(
            SimulationResult(
                processes=processes,
                collection=collections[pos],
                outcome=outcome,
                metrics=metrics,
                config=request.config,
                algorithm_name=request.algorithm.describe(),
                adversary_name=request.adversary.describe(),
                # batch_planned_rounds feeds the runner's batch_planned
                # stat; it never enters records, so byte-identity across
                # backends is unaffected.
                metadata={
                    "engine": "batch",
                    "batch_planned_rounds": batch_planned_rounds[pos],
                },
            )
        )
    return results


def _run_group_fallback(requests: Sequence[SimulationRequest]) -> List[SimulationResult]:
    """Per-run fast-engine replay of a group vectorisation refused.

    The group may have consumed adversary RNG before the refusal, so
    every adversary's seeded schedule is reset first — the documented
    replay contract of :meth:`~repro.adversary.base.Adversary.reset`.
    """
    for request in requests:
        request.adversary.reset()
    return [
        run_algorithm_fast(
            algorithm=request.algorithm,
            initial_values=request.initial_values,
            adversary=request.adversary,
            config=request.config,
            observers=request.observers,
            spec=request.spec,
        )
        for request in requests
    ]


def run_algorithm_batch(
    requests: Sequence[SimulationRequest],
) -> List[SimulationResult]:
    """Execute a batch of runs on the vectorised engine, in order.

    Requests are grouped by *cacheable shape* — kernel family, ``n``
    and the loop-control config fields (``max_rounds``, ``min_rounds``,
    ``stop_when_all_decided``) — and each group executes as one
    vectorised sweep; algorithm parameters, adversaries, workloads and
    specs may vary freely within a group.  Results come back in request
    order.  Raises :class:`ValueError` when any request is not
    batch-capable (use :func:`batch_supported`, or the dispatcher,
    which partitions and falls back automatically).
    """
    if np is None:
        raise ValueError(
            "the batch engine requires numpy, which is not importable; "
            "use backend='fast' (or let the dispatcher fall back)"
        )
    normalised = [request.normalised() for request in requests]
    groups: Dict[Tuple, List[int]] = {}
    for index, request in enumerate(normalised):
        if request.observers or request.config.record_states:
            raise ValueError(
                "request is not batch-capable (observers or record_states); "
                "use batch_supported() or the backend dispatcher"
            )
        family = _family_of(request.algorithm)
        if family is None:
            raise ValueError(
                f"algorithm {request.algorithm.describe()} has no vectorised "
                f"kernel; use batch_supported() or the backend dispatcher"
            )
        config = request.config
        key = (
            family,
            len(request.initial_values),
            config.max_rounds,
            config.min_rounds,
            config.stop_when_all_decided,
        )
        groups.setdefault(key, []).append(index)

    results: List[Optional[SimulationResult]] = [None] * len(normalised)
    for (family, n, *_), indices in groups.items():
        packed = _packed_tier(n)
        # The memory budget splits the run axis so each chunk's working
        # set stays under it.  Chunking is invisible in the records:
        # per-run RNG streams are independent, batch planners consume
        # each member's stream identically whichever chunk it lands in,
        # and codebooks are internal to a chunk.
        capacity = max(1, _MEMORY_BUDGET // max(1, _per_run_bytes(n, packed)))
        for start in range(0, len(indices), capacity):
            chunk = indices[start : start + capacity]
            chunk_requests = [normalised[i] for i in chunk]
            try:
                chunk_results = _run_group(family, chunk_requests, packed=packed)
            except _BatchFallback:
                chunk_results = _run_group_fallback(chunk_requests)
            if start:
                # One marker per extra chunk; the runner sums these into
                # its batch_chunks stat (k chunks -> k - 1 splits).
                # Metadata never enters records, so byte-identity across
                # chunked and unchunked sweeps is unaffected.
                chunk_results[0].metadata["batch_chunks"] = 1
            for index, result in zip(chunk, chunk_results):
                results[index] = result
    return results  # type: ignore[return-value]
