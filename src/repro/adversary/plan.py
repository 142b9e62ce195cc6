"""Mask-level round planning: the adversary API of the fast backend.

The matrix-level :class:`~repro.adversary.base.Adversary` interface
turns an ``n × n`` intended-message matrix into an ``n × n`` received
matrix — inherently ``O(n²)`` dict traffic per round.  The fast engine
(:mod:`repro.simulation.fast_engine`) instead asks a
:class:`MaskPlanner` for a :class:`RoundPlan`: per receiver, a *drop
mask* (senders whose message is omitted), a *corrupt mask* (senders
whose payload is replaced) and the replacement payloads.

Two kinds of planner exist:

* **Native planners** reproduce a concrete adversary's fault schedule
  directly at the mask level, consuming the adversary's RNG in exactly
  the same order as its matrix-level ``deliver_round`` would, so the
  produced ``HO``/``SHO`` collections are bit-for-bit identical.  They
  are registered per *exact* adversary class (subclasses may override
  behaviour, so they fall back to the adapter).
* :class:`MatrixPlanAdapter` wraps **any** matrix-level adversary
  unchanged: it materialises the broadcast intended matrix in the same
  iteration order as the lockstep engine, calls ``deliver_round``, and
  diffs the result into masks.  Semantics (including RNG consumption)
  are therefore identical by construction, at the cost of keeping the
  ``O(n²)`` delivery work.

Use :func:`planner_for` to get the best available planner for an
adversary; :func:`register_planner` extends the native registry.

The batch engine (:mod:`repro.simulation.batch_engine`) consumes one
plan format, :class:`BatchRoundPlan`: a round's fault schedule for
*many* runs of one adversary class, in array form.  A
:class:`BatchPlanner` produces it.  Registered batch planners (reliable,
random omission and random corruption, in
:mod:`repro.adversary.batch_plan`; they register only when NumPy is
importable) plan array-at-a-time and keep the same bit-exactness
contract as native planners — each run's RNG stream is consumed in
exactly the per-run order, via the :mod:`~repro.adversary.rng_bridge`
where draws vectorise.  :func:`batch_planner_for` answers ``None`` for
every other class, whose runs the engine plans per run through
:func:`planner_for` behind an adapter that emits the same format.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.adversary.base import Adversary, ReliableAdversary
from repro.adversary.benign import RandomOmissionAdversary
from repro.adversary.corruption import (
    RandomCorruptionAdversary,
    RotatingSenderCorruptionAdversary,
)
from repro.adversary.santoro_widmayer import BlockFaultAdversary
from repro.adversary.values import corrupt_value
from repro.core.process import Payload, ProcessId
from repro.core.registries import guard_builtin_overwrite, unknown_key_error


@dataclass(frozen=True)
class RoundPlan:
    """The fate of every message of one round, in mask form.

    All three tuples are indexed by *receiver*.  ``drop_masks[p]`` has
    bit ``s`` set iff the message from ``s`` to ``p`` is omitted;
    ``corrupt_masks[p]`` iff it is delivered with a payload different
    from the intended one; ``corrupt_values[p]`` maps each corrupted
    sender to the replacement payload (``None`` when nothing is
    corrupted for ``p``).  Drop and corrupt masks are disjoint — a
    dropped message has no payload to corrupt.
    """

    drop_masks: Tuple[int, ...]
    corrupt_masks: Tuple[int, ...]
    corrupt_values: Tuple[Optional[Dict[ProcessId, Payload]], ...]

    @classmethod
    def perfect(cls, n: int) -> "RoundPlan":
        """The plan of a fully reliable round."""
        zeros = (0,) * n
        return cls(drop_masks=zeros, corrupt_masks=zeros, corrupt_values=(None,) * n)


class MaskPlanner(ABC):
    """Plans the transmission faults of whole rounds at the mask level."""

    def __init__(self, adversary: Adversary, n: int) -> None:
        self.adversary = adversary
        self.n = n

    @abstractmethod
    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        """Return the fault plan for ``round_num``.

        ``sent`` holds the broadcast payload of every sender (index =
        process id), i.e. the whole intended matrix of a broadcast
        algorithm in ``O(n)`` space.
        """

    def reset(self) -> None:
        """Re-seed the underlying adversary (replaying the schedule)."""
        self.adversary.reset()

    def describe(self) -> str:
        return self.adversary.describe()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} over {self.adversary.describe()}>"


class MatrixPlanAdapter(MaskPlanner):
    """Adapter running an arbitrary matrix-level adversary underneath.

    The intended matrix is built with senders and receivers in sorted
    order — exactly how :func:`repro.simulation.engine.execute_round`
    builds it — so stateful/seeded adversaries consume their RNG in the
    same order and produce the same fault schedule on either engine.

    The matrix's per-sender rows are allocated once and reused across
    rounds (rebuilding ``n`` dicts of ``n`` keys per round is pure
    allocation churn on broadcast algorithms, whose payload rows rarely
    change); a row is rewritten in place only when its sender's payload
    actually differs from the previous round's.  Adversaries must
    therefore treat the intended matrix as read-only per the
    ``deliver_round`` contract and must not retain row references
    across rounds.
    """

    #: Sentinel marking a row whose payload has never been filled in
    #: (distinct from any real payload, including ``None``).
    _UNSET: Any = object()

    def __init__(self, adversary: Adversary, n: int) -> None:
        super().__init__(adversary, n)
        self._pids = list(range(n))
        unset = self._UNSET
        self._intended: Dict[ProcessId, Dict[ProcessId, Payload]] = {
            s: dict.fromkeys(self._pids, unset) for s in self._pids
        }
        self._row_payloads: List[Payload] = [unset] * n

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        n = self.n
        pids = self._pids
        intended = self._intended
        row_payloads = self._row_payloads
        for s in pids:
            payload = sent[s]
            prev = row_payloads[s]
            if prev is payload or (prev.__class__ is payload.__class__ and prev == payload):
                continue
            row = intended[s]
            for r in pids:
                row[r] = payload
            row_payloads[s] = payload
        received = self.adversary.deliver_round(round_num, intended)

        full = (1 << n) - 1
        drop_masks = []
        corrupt_masks = []
        corrupt_values: list = []
        for receiver in pids:
            inbox = received.get(receiver, {})
            ho = 0
            cmask = 0
            cvals: Optional[Dict[ProcessId, Payload]] = None
            for sender, payload in inbox.items():
                # Refuse receptions invented for non-existent senders,
                # mirroring the lockstep engine's inbox filter.
                if not 0 <= sender < n:
                    continue
                ho |= 1 << sender
                if not payload == sent[sender]:
                    cmask |= 1 << sender
                    if cvals is None:
                        cvals = {}
                    cvals[sender] = payload
            drop_masks.append(full & ~ho)
            corrupt_masks.append(cmask)
            corrupt_values.append(cvals)
        return RoundPlan(tuple(drop_masks), tuple(corrupt_masks), tuple(corrupt_values))


class ReliablePlanner(MaskPlanner):
    """Native planner of the fault-free environment: everything arrives."""

    def __init__(self, adversary: Adversary, n: int) -> None:
        super().__init__(adversary, n)
        self._plan = RoundPlan.perfect(n)

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        return self._plan


class RandomOmissionPlanner(MaskPlanner):
    """Native planner for :class:`RandomOmissionAdversary`.

    Draws one uniform variate per (sender, receiver) edge in the same
    sender-major order as ``EdgeAdversary.deliver_round`` iterates the
    intended matrix, so the adversary's RNG stream — and therefore the
    fault schedule — is identical to the matrix-level execution.
    """

    def __init__(self, adversary: RandomOmissionAdversary, n: int) -> None:
        super().__init__(adversary, n)
        self._nones: Tuple[None, ...] = (None,) * n
        self._zeros: Tuple[int, ...] = (0,) * n

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        n = self.n
        rand = self.adversary.rng.random
        p = self.adversary.drop_probability
        drops = [0] * n
        for sender in range(n):
            bit = 1 << sender
            for receiver in range(n):
                if rand() < p:
                    drops[receiver] |= bit
        return RoundPlan(tuple(drops), self._zeros, self._nones)


class RandomCorruptionPlanner(MaskPlanner):
    """Native planner for :class:`RandomCorruptionAdversary`.

    Replays the adversary's two RNG phases in their matrix-path order:
    the per-receiver target selection of ``begin_round`` (one uniform
    variate, one randint and one sample per corrupting receiver), then
    the per-edge fate draws in sender-major order (a ``corrupt_value``
    choice for targeted edges, a drop variate otherwise when
    ``drop_probability`` is non-zero).  The RNG stream — and therefore
    the fault schedule — is identical to matrix-level execution.
    """

    def __init__(self, adversary: RandomCorruptionAdversary, n: int) -> None:
        super().__init__(adversary, n)
        self._senders = list(range(n))

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        adversary = self.adversary
        rng = adversary.rng
        n = self.n
        senders = self._senders

        # begin_round: pick, per receiver, the senders to corrupt.
        targets: list = []
        alpha = adversary.alpha
        p_corrupt = adversary.corruption_probability
        for _receiver in range(n):
            if alpha == 0 or rng.random() >= p_corrupt:
                targets.append(())
                continue
            budget = rng.randint(1, alpha)
            targets.append(frozenset(rng.sample(senders, min(budget, n))))

        # fate, edge by edge in the matrix iteration order.
        drops = [0] * n
        cmasks = [0] * n
        cvals: list = [None] * n
        p_drop = adversary.drop_probability
        domain = adversary.value_domain
        if p_drop:
            for sender in range(n):
                bit = 1 << sender
                payload = sent[sender]
                for receiver in range(n):
                    if sender in targets[receiver]:
                        cmasks[receiver] |= bit
                        per_receiver = cvals[receiver]
                        if per_receiver is None:
                            per_receiver = cvals[receiver] = {}
                        per_receiver[sender] = corrupt_value(rng, payload, domain)
                    elif rng.random() < p_drop:
                        drops[receiver] |= bit
        else:
            # Without drops the only per-edge RNG draws are the corrupt
            # values of the (at most alpha·n) targeted edges, so skip
            # the n² edge scan and visit them in the same sender-major
            # order the matrix path would.
            pairs = sorted(
                (sender, receiver)
                for receiver, chosen in enumerate(targets)
                for sender in chosen
            )
            for sender, receiver in pairs:
                cmasks[receiver] |= 1 << sender
                per_receiver = cvals[receiver]
                if per_receiver is None:
                    per_receiver = cvals[receiver] = {}
                per_receiver[sender] = corrupt_value(rng, sent[sender], domain)
        return RoundPlan(tuple(drops), tuple(cmasks), tuple(cvals))


class RotatingCorruptionPlanner(MaskPlanner):
    """Native planner for :class:`RotatingSenderCorruptionAdversary`.

    The corrupted-sender rotation of ``begin_round`` is deterministic
    (no RNG), so only the injected payloads consume randomness.  In
    equivocating mode the matrix path draws one ``corrupt_value`` per
    (corrupted sender, receiver) edge in sender-major order — replayed
    here identically.  In non-equivocating mode each edge's value comes
    from a *fresh* per-(round, sender) RNG, so every receiver sees the
    same draw and the adversary's own stream is untouched; the planner
    computes that value once per corrupted sender.
    """

    def __init__(self, adversary: RotatingSenderCorruptionAdversary, n: int) -> None:
        super().__init__(adversary, n)
        self._zeros: Tuple[int, ...] = (0,) * n

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        adversary = self.adversary
        n = self.n
        alpha = adversary.alpha
        if n == 0 or alpha == 0:
            return RoundPlan(self._zeros, self._zeros, (None,) * n)

        # begin_round's deterministic rotation (RNG-free).
        count = min(alpha, n)
        start = ((round_num - 1) * count) % n
        corrupted = sorted(((start + offset) % n) for offset in range(count))

        cmasks = [0] * n
        cvals: list = [dict() for _ in range(n)]
        domain = adversary.value_domain
        if adversary.equivocate:
            # Matrix-path edge order: sender-major, receivers ascending.
            for sender in corrupted:
                bit = 1 << sender
                payload = sent[sender]
                for receiver in range(n):
                    cmasks[receiver] |= bit
                    cvals[receiver][sender] = corrupt_value(adversary.rng, payload, domain)
        else:
            # One fresh seeded RNG per (round, sender): identical for
            # every receiver, and adversary.rng is never consumed.
            for sender in corrupted:
                bit = 1 << sender
                value = corrupt_value(
                    adversary.rng_for(round_num, sender), sent[sender], domain
                )
                for receiver in range(n):
                    cmasks[receiver] |= bit
                    cvals[receiver][sender] = value
        return RoundPlan(self._zeros, tuple(cmasks), tuple(cvals))


class BlockFaultPlanner(MaskPlanner):
    """Native planner for the Santoro–Widmayer :class:`BlockFaultAdversary`.

    Victim selection and the affected-receiver rotation are both
    deterministic; the only RNG draws are the ``corrupt_value`` calls of
    ``mode="corrupt"``, which the matrix path performs once per affected
    receiver in ascending receiver order (the victim is a single sender,
    so all its edges are visited consecutively) — replayed here in the
    same order.  ``mode="drop"`` consumes no randomness at all.
    """

    def __init__(self, adversary: BlockFaultAdversary, n: int) -> None:
        super().__init__(adversary, n)
        self._zeros: Tuple[int, ...] = (0,) * n
        self._nones: Tuple[None, ...] = (None,) * n

    def plan_round(self, round_num: int, sent: Sequence[Payload]) -> RoundPlan:
        adversary = self.adversary
        n = self.n
        if n == 0:
            return RoundPlan((), (), ())
        victim = adversary.victim_of_round(round_num, range(n))
        # A scheduled victim outside Pi has no outgoing links to hit —
        # the matrix path's `intended[victim]` lookup comes up empty.
        if not 0 <= victim < n:
            return RoundPlan(self._zeros, self._zeros, self._nones)

        if adversary.faults_per_round is None:
            affected: Sequence[ProcessId] = range(n)
        else:
            count = min(adversary.faults_per_round, n)
            start = (round_num - 1) % n
            affected = sorted(((start + offset) % n) for offset in range(count))

        bit = 1 << victim
        if adversary.mode == "drop":
            drops = [0] * n
            for receiver in affected:
                drops[receiver] |= bit
            return RoundPlan(tuple(drops), self._zeros, self._nones)

        cmasks = [0] * n
        cvals: list = [None] * n
        payload = sent[victim]
        for receiver in affected:  # ascending: the fate-call order
            cmasks[receiver] |= bit
            cvals[receiver] = {victim: corrupt_value(adversary.rng, payload, adversary.value_domain)}
        return RoundPlan(self._zeros, tuple(cmasks), tuple(cvals))


#: Native planners, keyed by *exact* adversary class (subclasses may
#: change delivery semantics, so they take the adapter path).
_NATIVE_PLANNERS: Dict[Type[Adversary], Callable[[Adversary, int], MaskPlanner]] = {
    ReliableAdversary: ReliablePlanner,
    RandomOmissionAdversary: RandomOmissionPlanner,
    RandomCorruptionAdversary: RandomCorruptionPlanner,
    RotatingSenderCorruptionAdversary: RotatingCorruptionPlanner,
    BlockFaultAdversary: BlockFaultPlanner,
}


#: The planner registrations that ship with the package; silently
#: replacing one would change the fault schedules of every existing
#: caller, so :func:`register_planner` refuses it without
#: ``overwrite=True``.
_BUILTIN_PLANNERS = frozenset(_NATIVE_PLANNERS)


def register_planner(
    adversary_type: Type[Adversary],
    factory: Optional[Callable[[Adversary, int], MaskPlanner]] = None,
    *,
    overwrite: bool = False,
):
    """Register a native mask planner for ``adversary_type`` (exact class).

    Usable directly (``register_planner(MyAdversary, MyPlanner)``) or
    as a decorator (``@register_planner(MyAdversary)`` above the
    planner class); either form returns the factory.  Replacing a
    built-in registration raises unless ``overwrite=True`` is passed
    explicitly.

    Per-process registry: parallel campaign workers only see
    registrations performed at import time (register at module level in
    a module the workers import, or their runs take the
    :class:`MatrixPlanAdapter` path instead).
    """
    guard_builtin_overwrite(
        "mask planner",
        f"for {adversary_type.__name__}",
        adversary_type in _BUILTIN_PLANNERS,
        overwrite,
    )

    def _register(planner_factory: Callable[[Adversary, int], MaskPlanner]):
        _NATIVE_PLANNERS[adversary_type] = planner_factory
        return planner_factory

    if factory is None:
        return _register
    return _register(factory)


def get_planner_factory(
    adversary_type: Union[Type[Adversary], str]
) -> Callable[[Adversary, int], MaskPlanner]:
    """Look up a registered native planner, with a did-you-mean on typos.

    Accepts the adversary class itself or its name; raises
    :class:`ValueError` (listing registered classes, with a close-match
    hint) when no native planner exists for it.  Note that
    :func:`planner_for` never raises — adversaries without a native
    planner take the :class:`MatrixPlanAdapter` path.
    """
    if isinstance(adversary_type, str):
        by_name = {cls.__name__: cls for cls in _NATIVE_PLANNERS}
        cls = by_name.get(adversary_type)
        if cls is None:
            raise unknown_key_error("native mask planner", adversary_type, by_name)
        return _NATIVE_PLANNERS[cls]
    factory = _NATIVE_PLANNERS.get(adversary_type)
    if factory is None:
        raise unknown_key_error(
            "native mask planner",
            adversary_type.__name__,
            (cls.__name__ for cls in _NATIVE_PLANNERS),
        )
    return factory


def planner_for(adversary: Adversary, n: int) -> MaskPlanner:
    """The best planner for ``adversary``: native if registered, else adapter."""
    factory = _NATIVE_PLANNERS.get(type(adversary))
    if factory is not None:
        return factory(adversary, n)
    return MatrixPlanAdapter(adversary, n)


@dataclass(frozen=True)
class BatchRoundPlan:
    """One round's fault schedule for every live member of a batch, in array form.

    ``drop_words`` is either ``None`` (no member drops anything this
    round) or a ``(m, n, ceil(n/64))`` uint64 array indexed
    ``[member, receiver, word]`` over the ``m`` live members the planner
    was asked about, in the little-endian layout of
    :func:`repro.core.heardof.pack_mask_rows` (bit ``s & 63`` of word
    ``s >> 6`` set iff sender ``s`` is dropped).
    ``corrupt`` is either ``None`` or four parallel sequences (lists or
    integer arrays) ``(member, receiver, sender, code)`` — one entry per
    corrupted edge, with the replacement payload already encoded through
    the engine's codebook.  For any fixed ``(member, receiver)``,
    entries appear in ascending-sender order (the order the per-run
    planners insert corrupt values).  Drop bits and corrupt edges are
    disjoint, exactly as :class:`RoundPlan` requires.

    The array types are deliberately loose (``Any``): this module must
    import without NumPy, and the batch engine is the only consumer.
    """

    drop_words: Any = None
    corrupt: Optional[Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]] = None


class BatchPlanner(ABC):
    """Plans whole rounds for many same-class adversaries at once.

    One instance covers the subset of a run group driven by a single
    exact adversary class; ``adversaries[j]`` is member ``j``'s
    adversary.  The bit-exactness contract of :class:`MaskPlanner`
    carries over per member: each adversary's RNG stream must be
    consumed exactly as its per-run planner would consume it, with
    vectorisable draws routed through
    :class:`~repro.adversary.rng_bridge.RngBridge` and everything else
    replayed scalar-side.  Implementations must not consume RNG for
    members that are not live in a round.
    """

    def __init__(self, adversaries: Sequence[Adversary], n: int) -> None:
        self.adversaries = list(adversaries)
        self.n = n

    @abstractmethod
    def plan_rounds(
        self,
        round_num: int,
        sent: Sequence[Sequence[Payload]],
        live: Sequence[int],
        encode: Callable[[Payload], int],
        codes: Any = None,
        values: Any = None,
    ) -> BatchRoundPlan:
        """The fault plan of ``round_num`` for the live members.

        ``live`` lists the member indices still active, ascending;
        ``sent[pos]`` is the broadcast payload row of member
        ``live[pos]`` (index = sender).  Replacement payloads are pushed
        through ``encode`` (the engine's codebook) so the result is
        pure arrays/ints.  Returned arrays are indexed by *position in
        ``live``*, not by member index.

        ``codes`` and ``values`` are an optional already-encoded view of
        ``sent``: ``codes`` is the same payload grid as an ``(m, n)``
        integer array of codebook codes and ``values[code]`` decodes a
        code back to its payload.  The batch engine always passes them
        (it holds the sent grid in code form anyway); planners that key
        their work on codes instead of payload objects use them to stay
        array-typed end to end, and recompute them via ``encode`` when a
        direct caller omits them.  Implementations are free to ignore
        both.
        """

    def finish(self) -> None:
        """Flush any bridged RNG state back into the adversaries.

        Called once per group, after the last round, so each
        adversary's ``random.Random`` ends up exactly as far along its
        stream as a per-run execution would have left it.  The default
        is a no-op for planners that never bridge.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} over {len(self.adversaries)} adversaries>"


BatchPlannerFactory = Callable[[Sequence[Adversary], int], BatchPlanner]

#: Batch planners, keyed by *exact* adversary class like
#: :data:`_NATIVE_PLANNERS` (subclasses may change delivery semantics,
#: so they stay on the per-run path).  Tests empty it to force every
#: class onto per-run planning.
_BATCH_PLANNERS: Dict[Type[Adversary], BatchPlannerFactory] = {}

#: Filled after the built-in registrations at the bottom of this
#: module; :func:`register_batch_planner` refuses to replace these
#: without ``overwrite=True``.
_BUILTIN_BATCH_PLANNERS: set = set()


def register_batch_planner(
    adversary_type: Type[Adversary],
    factory: Optional[BatchPlannerFactory] = None,
    *,
    overwrite: bool = False,
):
    """Register a batch planner for ``adversary_type`` (exact class).

    Mirrors :func:`register_planner`: usable directly or as a
    decorator, returns the factory, and refuses to replace a built-in
    registration unless ``overwrite=True``.  Per-process registry, same
    as the native planners.
    """
    guard_builtin_overwrite(
        "batch planner",
        f"for {adversary_type.__name__}",
        adversary_type in _BUILTIN_BATCH_PLANNERS,
        overwrite,
    )

    def _register(planner_factory: BatchPlannerFactory):
        _BATCH_PLANNERS[adversary_type] = planner_factory
        return planner_factory

    if factory is None:
        return _register
    return _register(factory)


def batch_planner_for(adversaries: Sequence[Adversary], n: int) -> Optional[BatchPlanner]:
    """One batch planner over same-class ``adversaries``, or ``None``.

    Keyed by the *exact* class of the adversaries (which must all share
    one); ``None`` means no batch planner is registered — including the
    NumPy-less case, where :mod:`repro.adversary.batch_plan` never
    imports — and the caller should plan those runs per run via
    :func:`planner_for`.
    """
    if not adversaries:
        return None
    cls = type(adversaries[0])
    if any(type(adversary) is not cls for adversary in adversaries):
        raise ValueError("batch_planner_for requires adversaries of one exact class")
    factory = _BATCH_PLANNERS.get(cls)
    if factory is None:
        return None
    return factory(adversaries, n)


# The native batch planners need NumPy (they stack RNG-bridge blocks
# into arrays); without it nothing registers, and the batch engine
# (which needs NumPy too) never runs.
try:
    from repro.adversary import batch_plan as _batch_plan  # noqa: F401,E402
except ImportError:  # pragma: no cover - exercised by the numpy-less CI leg
    pass
_BUILTIN_BATCH_PLANNERS.update(_BATCH_PLANNERS)
