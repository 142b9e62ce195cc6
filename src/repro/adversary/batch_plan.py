"""Native batch planners: whole fault schedules, array-at-a-time.

Each planner here is the batch-tier sibling of a native
:class:`~repro.adversary.plan.MaskPlanner` whose draws vectorise: it
plans one round for *every* live run of its adversary class in a single
call, returning the array-form
:class:`~repro.adversary.plan.BatchRoundPlan` the batch engine
consumes.  Only three classes have one — reliable, random omission and
random corruption; every other class (rotating-sender and block faults
included) plans per run behind the engine's adapter, which emits the
same format.  The correctness bar is unchanged — each member's RNG
stream is consumed in exactly the order its per-run planner (and
therefore the matrix-level ``deliver_round``) would consume it, so the
produced records stay byte-identical across backends:

* Draw patterns with data-independent word consumption (the per-edge
  uniforms of random omission) go through the
  :class:`~repro.adversary.rng_bridge.RngBridge`, which advances the
  member's MT19937 state NumPy-side bit-exactly.
* Random corruption's ``randint``/``sample`` rejection loops and
  ``corrupt_value`` choices replay over a
  :class:`~repro.adversary.rng_bridge.WordStream`, in array form for
  the common configuration and draw by draw otherwise, and come out as
  COO edge arrays the engine scatters in bulk.

This module imports NumPy unconditionally; :mod:`repro.adversary.plan`
guards the import, so without NumPy nothing registers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import Adversary, ReliableAdversary
from repro.adversary.benign import RandomOmissionAdversary
from repro.adversary.corruption import RandomCorruptionAdversary
from repro.adversary.plan import BatchPlanner, BatchRoundPlan, register_batch_planner
from repro.adversary.rng_bridge import (
    RngBridge,
    WordStream,
    chain_values_many,
    chain_walk_many_array,
    word_replay_matches,
)
from repro.adversary.values import DEFAULT_POISON_VALUES
from repro.core.heardof import pack_mask_rows, words_per_mask
from repro.core.process import Payload

_PERFECT_PLAN = BatchRoundPlan()


@register_batch_planner(ReliableAdversary)
class ReliableBatchPlanner(BatchPlanner):
    """The fault-free environment, batched: one shared perfect plan."""

    def plan_rounds(
        self,
        round_num: int,
        sent: Sequence[Sequence[Payload]],
        live: Sequence[int],
        encode: Callable[[Payload], int],
        codes: Any = None,
        values: Any = None,
    ) -> BatchRoundPlan:
        return _PERFECT_PLAN


@register_batch_planner(RandomOmissionAdversary)
class RandomOmissionBatchPlanner(BatchPlanner):
    """Batched :class:`RandomOmissionAdversary`: one compare per member and round.

    Each member's n² per-edge uniforms come out of its RNG bridge as
    one ``(n, n)`` block (C order = the sender-major order the per-run
    planner draws in), and the whole fault schedule is one ``U < p``
    compare per member.  The blocks are sender-major, the plan is
    receiver-indexed, hence the transpose.  Members are processed one
    at a time and packed straight into drop *words*, so the round's
    peak working set is one float block plus the ``(m, n, n/64)``
    word output — never the stacked ``(m, n, n)`` float or bool
    intermediates, which at n = 1024 would dominate the sweep's memory.
    """

    def __init__(self, adversaries: Sequence[Adversary], n: int) -> None:
        super().__init__(adversaries, n)
        self._bridges = [RngBridge(adversary.rng) for adversary in self.adversaries]
        self._ps = [adversary.drop_probability for adversary in self.adversaries]

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
        bridges = self._bridges
        drop_words: Optional[np.ndarray] = None
        for pos, j in enumerate(live):
            block = bridges[j].random_block((n, n))
            bits = block.T < self._ps[j]
            if not bits.any():
                continue
            if drop_words is None:
                drop_words = np.zeros((len(live), n, words_per_mask(n)), dtype=np.uint64)
            drop_words[pos] = pack_mask_rows(bits)
        if drop_words is None:
            return _PERFECT_PLAN
        return BatchRoundPlan(drop_words=drop_words)

    def finish(self) -> None:
        for bridge in self._bridges:
            bridge.flush()


class _EdgeBuffer:
    """Accumulates corrupt edges as four parallel COO columns."""

    __slots__ = ("member", "receiver", "sender", "code")

    def __init__(self) -> None:
        self.member: List[int] = []
        self.receiver: List[int] = []
        self.sender: List[int] = []
        self.code: List[int] = []

    def add(self, member: int, receiver: int, sender: int, code: int) -> None:
        self.member.append(member)
        self.receiver.append(receiver)
        self.sender.append(sender)
        self.code.append(code)

    def corrupt(
        self,
    ) -> Optional[Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]]:
        if not self.member:
            return None
        return (self.member, self.receiver, self.sender, self.code)


class _CodeTable:
    """Per-domain ``corrupt_value`` pools as code-indexed lookup arrays.

    ``size[code]`` is the candidate-pool size of the payload encoding to
    ``code`` (``-1`` = not computed yet, ``0`` = pool exhausted);
    ``choice[code, i]`` is the encoded replacement for candidate index
    ``i`` (column 0 holds the ``("corrupted", payload)`` fallback when
    the pool is empty).  Keying by *code* instead of payload object
    keeps the fast planning path array-typed end to end: pool sizes and
    replacement codes gather straight out of these tables.
    """

    __slots__ = ("size", "choice")

    def __init__(self) -> None:
        self.size = np.full(64, -1, dtype=np.int64)
        self.choice = np.zeros((64, 1), dtype=np.int64)


class RandomCorruptionBatchPlanner(BatchPlanner):
    """Batched :class:`RandomCorruptionAdversary`: word-stream replay, COO output.

    Every draw here is rejection-sampled (``randint``/``sample``) or
    interleaved with per-edge value choices, so the streams cannot be
    expressed as fixed-size uniform blocks.  Instead each member's two
    RNG phases are replayed in exactly the per-run order (see
    :class:`~repro.adversary.plan.RandomCorruptionPlanner`) over a
    :class:`~repro.adversary.rng_bridge.WordStream` — bit-identical
    draws from NumPy-prefetched word blocks.  The common configuration
    (``alpha == 1``, certain corruption, no drops) has a fully
    data-independent draw *pattern* per receiver — two uniform words
    whose values cannot matter, one ``randbelow(1)`` chain whose value
    must be zero, one single-element ``sample`` — so those members plan
    entirely in array form (:meth:`_plan_fast_members`); every other
    configuration replays the scalar ports draw by draw.  Registered
    only when :func:`word_replay_matches` vouches for the ports on the
    running interpreter.
    """

    def __init__(self, adversaries: Sequence[Adversary], n: int) -> None:
        super().__init__(adversaries, n)
        self._senders = list(range(n))
        self._streams = [WordStream(a.rng) for a in self.adversaries]
        self._candidate_cache: List[dict] = [{} for _ in self.adversaries]
        # Pools depend only on (value domain, payload); members sharing
        # a domain (compared by value — instances are typically distinct
        # but equal) share one code table.
        self._domain_keys = [
            None if a.value_domain is None else tuple(a.value_domain)
            for a in self.adversaries
        ]
        self._tables: Dict[Optional[tuple], _CodeTable] = {}

    @staticmethod
    def _candidates(
        cache: dict, domain, original: Payload, encode: Callable[[Payload], int]
    ) -> Tuple[List[Payload], List[int]]:
        """The ``corrupt_value`` candidate pool and codes, cached per payload.

        When the pool is empty ``corrupt_value`` falls back to
        ``("corrupted", original)`` without consuming the RNG; that case
        is cached as an empty candidate list whose single code is the
        fallback's.
        """
        entry = cache.get(original)
        if entry is None:
            pool = list(domain) if domain else list(DEFAULT_POISON_VALUES)
            candidates = [v for v in pool if v != original]
            if not candidates:
                candidates = [v for v in DEFAULT_POISON_VALUES if v != original]
            if candidates:
                entry = (candidates, [encode(v) for v in candidates])
            else:
                entry = ([], [encode(("corrupted", original))])
            cache[original] = entry
        return entry

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
        edges = _EdgeBuffer()
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        drop_words: Optional[np.ndarray] = None
        fast: List[Tuple[int, int]] = []
        for pos, j in enumerate(live):
            adversary = self.adversaries[j]
            if (
                adversary.alpha == 1
                and adversary.corruption_probability >= 1.0
                and not adversary.drop_probability
            ):
                fast.append((pos, j))
            else:
                drop_words = self._plan_member_general(
                    pos, j, sent[pos], len(live), encode, edges, drop_words
                )
        if fast:
            if codes is None or values is None:
                codes, values = self._encode_rows(sent, encode)
            self._plan_fast_members(fast, codes, values, encode, edges, parts)
        scalar = edges.corrupt()
        if scalar is not None:
            parts.insert(0, tuple(np.asarray(col, dtype=np.int64) for col in scalar))
        if not parts:
            corrupt = None
        elif len(parts) == 1:
            corrupt = parts[0]
        else:
            corrupt = tuple(np.concatenate(cols) for cols in zip(*parts))
        return BatchRoundPlan(drop_words=drop_words, corrupt=corrupt)

    @staticmethod
    def _encode_rows(
        sent: Sequence[Sequence[Payload]], encode: Callable[[Payload], int]
    ) -> Tuple[np.ndarray, dict]:
        """Recover the (codes, decode-mapping) view for direct callers."""
        decode: dict = {}
        rows = []
        for row in sent:
            crow = []
            for payload in row:
                code = encode(payload)
                crow.append(code)
                decode.setdefault(code, payload)
            rows.append(crow)
        return np.asarray(rows, dtype=np.int64), decode

    def _table_entries(
        self,
        key: Optional[tuple],
        needed: np.ndarray,
        values,
        encode: Callable[[Payload], int],
    ) -> _CodeTable:
        """The domain's code table, with every ``needed`` code filled in."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _CodeTable()
        size = table.size
        top = int(needed[-1])  # np.unique output: sorted ascending
        if top >= len(size):
            grown = np.full(max(top + 1, 2 * len(size)), -1, dtype=np.int64)
            grown[: len(size)] = size
            size = table.size = grown
            wider = np.zeros((len(grown), table.choice.shape[1]), dtype=np.int64)
            wider[: len(table.choice)] = table.choice
            table.choice = wider
        for code in needed[size[needed] < 0].tolist():
            original = values[code]
            pool = list(key) if key else list(DEFAULT_POISON_VALUES)
            candidates = [v for v in pool if v != original]
            if not candidates:
                candidates = [v for v in DEFAULT_POISON_VALUES if v != original]
            if candidates:
                code_row = [encode(v) for v in candidates]
            else:  # corrupt_value's no-draw fallback
                code_row = [encode(("corrupted", original))]
            if len(code_row) > table.choice.shape[1]:
                wider = np.zeros((len(table.choice), len(code_row)), dtype=np.int64)
                wider[:, : table.choice.shape[1]] = table.choice
                table.choice = wider
            size[code] = len(candidates)
            table.choice[code, : len(code_row)] = code_row
        return table

    def _plan_fast_members(
        self,
        fast: List[Tuple[int, int]],
        codes: np.ndarray,
        values,
        encode: Callable[[Payload], int],
        edges: _EdgeBuffer,
        parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Plan all alpha=1/certain-corruption/no-drop members in one sweep.

        Per receiver the replayed stream is exactly: two words for the
        corruption-probability uniform (which cannot clear a threshold
        of 1.0, so only consumption matters), one ``randbelow(1)`` chain
        for ``randint(1, 1)`` (value necessarily 0), and one
        ``randbelow(n)`` chain — the single-element ``sample`` draw on
        either of its branches — naming the corrupted sender.  That
        pattern is identical for every such member, so the whole
        begin-round phase decodes through one
        :func:`~repro.adversary.rng_bridge.chain_walk_many_array` call.
        The fate phase draws one candidate index per (sender, receiver)
        pair in sorted pair order — obtained for the whole fleet by a
        stable argsort of the picked-sender matrix — and the per-pair
        pool sizes and replacement codes gather from the domain's
        :class:`_CodeTable` by payload code.  Members whose pools all
        share one size batch into a
        :func:`~repro.adversary.rng_bridge.chain_values_many` call per
        size; mixed-size members replay scalar draws.  The streams are
        independent, so ordering across members is free; within each
        member the per-run draw order is preserved exactly.
        """
        n = self.n
        streams = self._streams
        fast_streams = [streams[j] for _pos, j in fast]
        picks = chain_walk_many_array(fast_streams, n, 2, (1, n))
        senders = picks[:, :, 1]  # (members, receivers): the picked sender
        order = np.argsort(senders, axis=1, kind="stable")  # receivers, pair-sorted
        sorted_senders = np.take_along_axis(senders, order, axis=1)
        pos_arr = np.asarray([pos for pos, _j in fast], dtype=np.int64)
        payload_codes = np.take_along_axis(codes[pos_arr], sorted_senders, axis=1)

        keys = self._domain_keys
        by_key: Dict[Optional[tuple], List[int]] = {}
        for row, (_pos, j) in enumerate(fast):
            by_key.setdefault(keys[j], []).append(row)
        for key, rows in by_key.items():
            rows_arr = np.asarray(rows, dtype=np.int64)
            group_codes = payload_codes[rows_arr]
            table = self._table_entries(key, np.unique(group_codes), values, encode)
            sizes = table.size[group_codes]  # (group, n) pool sizes per pair
            homogeneous = (sizes == sizes[:, :1]).all(axis=1)
            pool_of = sizes[:, 0]
            for pool in np.unique(pool_of[homogeneous]).tolist():
                sel = rows_arr[homogeneous & (pool_of == pool)]
                if pool > 1:
                    index_mat = np.asarray(
                        chain_values_many(
                            [fast_streams[r] for r in sel.tolist()], [n] * len(sel), pool
                        ),
                        dtype=np.int64,
                    )
                    chosen = table.choice[payload_codes[sel], index_mat]
                elif pool == 1:  # index necessarily 0: consumption only
                    chain_values_many(
                        [fast_streams[r] for r in sel.tolist()], [n] * len(sel), 1
                    )
                    chosen = table.choice[payload_codes[sel], 0]
                else:  # every pool empty: fallback codes, no draws at all
                    chosen = table.choice[payload_codes[sel], 0]
                parts.append(
                    (
                        np.repeat(pos_arr[sel], n),
                        order[sel].ravel(),
                        sorted_senders[sel].ravel(),
                        chosen.ravel(),
                    )
                )
            for row in rows_arr[~homogeneous].tolist():  # mixed sizes: scalar
                pos = int(pos_arr[row])
                randbelow = fast_streams[row].randbelow
                choice = table.choice
                size_of = table.size
                for idx in range(n):
                    code_cell = int(payload_codes[row, idx])
                    pool = int(size_of[code_cell])
                    pick = randbelow(pool) if pool else 0
                    edges.add(
                        pos,
                        int(order[row, idx]),
                        int(sorted_senders[row, idx]),
                        int(choice[code_cell, pick]),
                    )

    def _plan_member_general(
        self,
        pos: int,
        j: int,
        row: Sequence[Payload],
        live_count: int,
        encode: Callable[[Payload], int],
        edges: _EdgeBuffer,
        drop_words: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """General replay, draw by draw over the scalar stream ports."""
        n = self.n
        adversary = self.adversaries[j]
        stream = self._streams[j]
        alpha = adversary.alpha
        p_corrupt = adversary.corruption_probability
        p_drop = adversary.drop_probability
        domain = adversary.value_domain
        cache = self._candidate_cache[j]
        rand = stream.random
        randbelow = stream.randbelow

        # begin_round: pick, per receiver, the senders to corrupt.
        targets: List[Sequence[int]] = []
        for _receiver in range(n):
            if alpha == 0 or rand() >= p_corrupt:
                targets.append(())
                continue
            budget = 1 + randbelow(alpha)  # randint(1, alpha)
            targets.append(frozenset(stream.sample(self._senders, min(budget, n))))

        # fate, edge by edge in the matrix iteration order; the
        # corrupt_value choice is one randbelow over the cached
        # candidate pool (its poison-exhausted fallback returns
        # without consuming the RNG, mirrored here).
        if p_drop:
            drop_recv: List[int] = []
            drop_send: List[int] = []
            for sender in range(n):
                payload = row[sender]
                for receiver in range(n):
                    if sender in targets[receiver]:
                        candidates, codes = self._candidates(cache, domain, payload, encode)
                        code = codes[randbelow(len(candidates))] if candidates else codes[0]
                        edges.add(pos, receiver, sender, code)
                    elif rand() < p_drop:
                        drop_recv.append(receiver)
                        drop_send.append(sender)
            if drop_recv:
                if drop_words is None:
                    drop_words = np.zeros(
                        (live_count, n, words_per_mask(n)), dtype=np.uint64
                    )
                send = np.asarray(drop_send, dtype=np.uint64)
                # Word scatter: edges land at (word index, bit shift).
                # Senders sharing a word need the or-reduction of .at —
                # plain fancy-index assignment would drop duplicates.
                np.bitwise_or.at(
                    drop_words,
                    (pos, np.asarray(drop_recv, dtype=np.int64), send >> np.uint64(6)),
                    np.uint64(1) << (send & np.uint64(63)),
                )
        else:
            pairs = sorted(
                (sender, receiver)
                for receiver, chosen in enumerate(targets)
                for sender in chosen
            )
            for sender, receiver in pairs:
                candidates, codes = self._candidates(cache, domain, row[sender], encode)
                code = codes[randbelow(len(candidates))] if candidates else codes[0]
                edges.add(pos, receiver, sender, code)
        return drop_words

    def finish(self) -> None:
        for stream in self._streams:
            stream.flush()


if word_replay_matches():
    register_batch_planner(RandomCorruptionAdversary, RandomCorruptionBatchPlanner)


__all__ = [
    "ReliableBatchPlanner",
    "RandomOmissionBatchPlanner",
    "RandomCorruptionBatchPlanner",
]
