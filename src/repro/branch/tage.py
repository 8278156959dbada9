"""TAGE conditional branch direction predictor (Seznec, Table I).

A faithful, compact TAGE: a bimodal base predictor plus ``N`` tagged tables
indexed by geometrically increasing global-history lengths.  Folded-history
registers are maintained incrementally so each prediction is O(number of
tables) rather than O(history length).

:meth:`TagePredictor.observe` is the fused ``predict`` + ``update`` that
:class:`~repro.branch.predictor.BranchPredictionUnit` calls for every
dynamic conditional branch.  ``predict(pc) -> bool`` and
``update(pc, taken)`` stay as the reference it is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import BranchPredictorConfig


class _FoldedHistory:
    """A cyclically folded view of the newest ``original_length`` history bits."""

    __slots__ = ("value", "original_length", "compressed_length", "_out_bit",
                 "_mask")

    def __init__(self, original_length: int, compressed_length: int) -> None:
        self.value = 0
        self.original_length = original_length
        self.compressed_length = compressed_length
        self._out_bit = original_length % compressed_length
        self._mask = (1 << compressed_length) - 1

    def update(self, new_bit: int, dropped_bit: int) -> None:
        """Canonical Seznec update: shift in the new bit, cancel the bit
        ageing out of the window at position ``original_length mod
        compressed_length``, then fold the overflow bit back in.  The
        register then always equals the XOR-fold of the newest
        ``original_length`` history bits (checked against a from-scratch
        recomputation in tests/test_tage_folding.py)."""
        value = (self.value << 1) | new_bit
        value ^= dropped_bit << self._out_bit
        self.value = (value ^ (value >> self.compressed_length)) & self._mask


class TagePredictor:
    """TAGE with a 2-bit bimodal base and ``num_tagged_tables`` tagged tables."""

    def __init__(self, config: Optional[BranchPredictorConfig] = None) -> None:
        self.config = config or BranchPredictorConfig()
        cfg = self.config
        self._base_mask = (1 << cfg.base_entries_log2) - 1
        self._base = [2] * (1 << cfg.base_entries_log2)  # weakly taken... 0..3
        self._num_tables = cfg.num_tagged_tables
        self._entries_log2 = cfg.table_entries_log2
        self._index_mask = (1 << cfg.table_entries_log2) - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        # Tagged tables as parallel arrays of ints (tag / signed 3-bit
        # counter where >= 0 means taken / 2-bit useful): tens of thousands
        # of entries per predictor, so flat int lists beat per-entry objects
        # on both construction time and access latency.
        table_size = 1 << cfg.table_entries_log2
        self._table_tags: List[List[int]] = [
            [0] * table_size for _ in range(self._num_tables)]
        self._table_counters: List[List[int]] = [
            [0] * table_size for _ in range(self._num_tables)]
        self._table_useful: List[List[int]] = [
            [0] * table_size for _ in range(self._num_tables)]
        self._history_lengths = self._geometric_lengths()
        self._history_bits: List[int] = []
        self._index_folds = [
            _FoldedHistory(length, cfg.table_entries_log2)
            for length in self._history_lengths]
        self._tag_folds_a = [
            _FoldedHistory(length, cfg.tag_bits)
            for length in self._history_lengths]
        self._tag_folds_b = [
            _FoldedHistory(length, cfg.tag_bits - 1)
            for length in self._history_lengths]
        #: Per-table (index, tag_a, tag_b) fold triples, prezipped so the
        #: fused fast path iterates without per-branch tuple allocation.
        self._fold_triples = [
            (self._index_folds[t], self._tag_folds_a[t], self._tag_folds_b[t])
            for t in range(self._num_tables)]
        self._use_alt_on_new = 0   # 4-bit signed confidence in alt prediction
        self._rng_state = 0x9E3779B9
        #: Per-PC cache of the history-independent part of each table index
        #: hash (the ``pc``/``length`` XOR terms; see :meth:`_index_static`).
        #: The fast path XORs the live folded history into these, which is
        #: exact because the hash combines its terms purely by XOR.
        self._pc_statics: Dict[int, Tuple[int, ...]] = {}

    # -- configuration ------------------------------------------------------

    def _geometric_lengths(self) -> List[int]:
        cfg = self.config
        n = self._num_tables
        if n == 1:
            return [cfg.min_history]
        ratio = (cfg.max_history / cfg.min_history) ** (1.0 / (n - 1))
        lengths = []
        for i in range(n):
            length = int(round(cfg.min_history * (ratio ** i)))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        lengths[-1] = cfg.max_history
        return lengths

    @property
    def history_lengths(self) -> Tuple[int, ...]:
        return tuple(self._history_lengths)

    # -- hashing -------------------------------------------------------------

    def _table_index(self, pc: int, table: int) -> int:
        fold = self._index_folds[table].value
        length = self._history_lengths[table]
        return (pc ^ (pc >> (self._entries_log2 - table % 4)) ^ fold ^
                (length << 2)) & self._index_mask

    def _table_tag(self, pc: int, table: int) -> int:
        return (pc ^ self._tag_folds_a[table].value ^
                (self._tag_folds_b[table].value << 1)) & self._tag_mask

    def _index_statics(self, pc: int) -> Tuple[int, ...]:
        """The history-independent XOR terms of every table's index hash.

        ``_table_index`` is ``(static ^ folded_history) & mask``, so the
        static part can be computed once per distinct branch PC and reused
        for the rest of the run (property-tested against ``_table_index``
        in tests/test_fast_mode.py).
        """
        statics = self._pc_statics.get(pc)
        if statics is None:
            elog2 = self._entries_log2
            lengths = self._history_lengths
            statics = tuple(
                pc ^ (pc >> (elog2 - table % 4)) ^ (lengths[table] << 2)
                for table in range(self._num_tables))
            self._pc_statics[pc] = statics
        return statics

    # -- prediction -----------------------------------------------------------

    def predict(self, pc: int) -> bool:
        provider, alt, _, _ = self._lookup(pc)
        if provider is None:
            return self._base_prediction(pc)
        table, index = provider
        counter = self._table_counters[table][index]
        weak = counter in (-1, 0)
        if weak and self._use_alt_on_new >= self.config.use_alt_threshold:
            return self._alt_prediction(pc, alt)
        return counter >= 0

    def _base_prediction(self, pc: int) -> bool:
        return self._base[pc & self._base_mask] >= 2

    def _alt_prediction(self, pc: int,
                        alt: Optional[Tuple[int, int]]) -> bool:
        if alt is None:
            return self._base_prediction(pc)
        table, index = alt
        return self._table_counters[table][index] >= 0

    def _lookup(self, pc: int):
        """Return (provider, alt, provider_pred, alt_pred) component hits."""
        provider = alt = None
        for table in range(self._num_tables - 1, -1, -1):
            index = self._table_index(pc, table)
            if self._table_tags[table][index] == self._table_tag(pc, table):
                if provider is None:
                    provider = (table, index)
                else:
                    alt = (table, index)
                    break
        return provider, alt, None, None

    # -- update ----------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> bool:
        """Update with the resolved outcome; returns True on misprediction."""
        prediction = self.predict(pc)
        mispredicted = prediction != taken

        provider, alt, _, _ = self._lookup(pc)
        if provider is not None:
            table, index = provider
            counters = self._table_counters[table]
            counter = counters[index]
            provider_pred = counter >= 0
            alt_pred = self._alt_prediction(pc, alt)
            # Track whether the alternate would have done better on weak hits.
            if counter in (-1, 0) and provider_pred != alt_pred:
                if alt_pred == taken:
                    self._use_alt_on_new = min(15, self._use_alt_on_new + 1)
                else:
                    self._use_alt_on_new = max(-16, self._use_alt_on_new - 1)
            counters[index] = _update_signed(counter, taken, lo=-4, hi=3)
            if provider_pred != alt_pred:
                useful = self._table_useful[table]
                if provider_pred == taken:
                    useful[index] = min(3, useful[index] + 1)
                else:
                    useful[index] = max(0, useful[index] - 1)
        else:
            base_index = pc & self._base_mask
            counter = self._base[base_index]
            self._base[base_index] = _update_unsigned(counter, taken)

        if mispredicted:
            self._allocate(pc, taken, provider)

        self._push_history(pc, taken)
        return mispredicted

    def _allocate(self, pc: int, taken: bool,
                  provider: Optional[Tuple[int, int]]) -> None:
        start = provider[0] + 1 if provider is not None else 0
        candidates = []
        for table in range(start, self._num_tables):
            index = self._table_index(pc, table)
            if self._table_useful[table][index] == 0:
                candidates.append((table, index))
        if not candidates:
            # Decay usefulness so future allocations can succeed.
            for table in range(start, self._num_tables):
                index = self._table_index(pc, table)
                useful = self._table_useful[table]
                useful[index] = max(0, useful[index] - 1)
            return
        # Prefer the shortest-history candidate with some randomization
        # (classic TAGE anti-ping-pong allocation).
        self._rng_state = (self._rng_state * 1103515245 + 12345) & 0x7FFFFFFF
        if len(candidates) > 1 and (self._rng_state & 3) == 0:
            choice = candidates[1]
        else:
            choice = candidates[0]
        table, index = choice
        self._table_tags[table][index] = self._table_tag(pc, table)
        self._table_counters[table][index] = 0 if taken else -1
        self._table_useful[table][index] = 0

    # -- fused fast path --------------------------------------------------------

    def observe(self, pc: int, taken: bool) -> bool:
        """Fused ``predict(pc)`` + ``update(pc, taken)`` in one table walk.

        Returns the prediction (what ``predict`` would have returned) and
        leaves the predictor in exactly the state the two-call sequence
        produces.  The normal path computes every table's index and tag
        three times per branch (predict -> _lookup, update -> predict ->
        _lookup, update -> _lookup); this computes them once, using the
        cached per-PC static hash terms.  Equivalence is enforced by
        hypothesis property tests and the golden-snapshot suite.
        """
        num_tables = self._num_tables
        statics = self._pc_statics.get(pc)
        if statics is None:
            statics = self._index_statics(pc)
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        index_folds = self._index_folds
        tag_folds_a = self._tag_folds_a
        tag_folds_b = self._tag_folds_b
        table_tags = self._table_tags
        table_counters = self._table_counters
        table_useful = self._table_useful

        # Single descending walk: provider = highest-table tag match, alt =
        # next match below it (mirrors _lookup, including its early break).
        indices = [0] * num_tables
        tags = [0] * num_tables
        provider = alt = -1
        for table in range(num_tables - 1, -1, -1):
            index = (statics[table] ^ index_folds[table].value) & index_mask
            indices[table] = index
            tag = (pc ^ tag_folds_a[table].value ^
                   (tag_folds_b[table].value << 1)) & tag_mask
            tags[table] = tag
            if table_tags[table][index] == tag:
                if provider < 0:
                    provider = table
                else:
                    alt = table
                    break

        # Prediction (mirrors predict()).
        if provider < 0:
            prediction = self._base[pc & self._base_mask] >= 2
        else:
            counter = table_counters[provider][indices[provider]]
            if counter in (-1, 0) and \
                    self._use_alt_on_new >= self.config.use_alt_threshold:
                if alt < 0:
                    prediction = self._base[pc & self._base_mask] >= 2
                else:
                    prediction = \
                        table_counters[alt][indices[alt]] >= 0
            else:
                prediction = counter >= 0

        mispredicted = prediction != taken

        # Update (mirrors update()).
        if provider >= 0:
            provider_index = indices[provider]
            counters = table_counters[provider]
            counter = counters[provider_index]
            provider_pred = counter >= 0
            if alt < 0:
                alt_pred = self._base[pc & self._base_mask] >= 2
            else:
                alt_pred = table_counters[alt][indices[alt]] >= 0
            if counter in (-1, 0) and provider_pred != alt_pred:
                if alt_pred == taken:
                    if self._use_alt_on_new < 15:
                        self._use_alt_on_new += 1
                elif self._use_alt_on_new > -16:
                    self._use_alt_on_new -= 1
            if taken:
                counters[provider_index] = counter + 1 if counter < 3 else 3
            else:
                counters[provider_index] = counter - 1 if counter > -4 else -4
            if provider_pred != alt_pred:
                useful = table_useful[provider]
                if provider_pred == taken:
                    if useful[provider_index] < 3:
                        useful[provider_index] += 1
                elif useful[provider_index] > 0:
                    useful[provider_index] -= 1
        else:
            base_index = pc & self._base_mask
            counter = self._base[base_index]
            if taken:
                self._base[base_index] = counter + 1 if counter < 3 else 3
            else:
                self._base[base_index] = counter - 1 if counter > 0 else 0

        # Allocation on misprediction (mirrors _allocate()); every table in
        # the allocation range sits above the provider, so its index/tag was
        # computed in the walk above.
        if mispredicted:
            start = provider + 1 if provider >= 0 else 0
            first = second = -1
            for table in range(start, num_tables):
                if table_useful[table][indices[table]] == 0:
                    if first < 0:
                        first = table
                    else:
                        second = table
                        break
            if first < 0:
                for table in range(start, num_tables):
                    useful = table_useful[table]
                    index = indices[table]
                    if useful[index] > 0:
                        useful[index] -= 1
            else:
                rng = (self._rng_state * 1103515245 + 12345) & 0x7FFFFFFF
                self._rng_state = rng
                choice = second if second >= 0 and (rng & 3) == 0 else first
                index = indices[choice]
                table_tags[choice][index] = tags[choice]
                table_counters[choice][index] = 0 if taken else -1
                table_useful[choice][index] = 0

        # History push (mirrors _push_history(), folds updated inline).
        new_bit = 1 if taken else 0
        history = self._history_bits
        history.append(new_bit)
        hist_len = len(history)
        lengths = self._history_lengths
        for table, triple in enumerate(self._fold_triples):
            length = lengths[table]
            dropped = history[-length - 1] if hist_len > length else 0
            for fold in triple:
                compressed = fold.compressed_length
                value = ((fold.value << 1) | new_bit) ^ \
                    (dropped << fold._out_bit)
                fold.value = (value ^ (value >> compressed)) & fold._mask
        max_needed = lengths[-1]
        if hist_len > max_needed + 1:
            del history[:-max_needed - 1]
        return prediction

    def _push_history(self, pc: int, taken: bool) -> None:
        new_bit = 1 if taken else 0
        self._history_bits.append(new_bit)
        max_needed = self._history_lengths[-1]
        history = self._history_bits
        for table in range(self._num_tables):
            length = self._history_lengths[table]
            dropped = history[-length - 1] if len(history) > length else 0
            self._index_folds[table].update(new_bit, dropped)
            self._tag_folds_a[table].update(new_bit, dropped)
            self._tag_folds_b[table].update(new_bit, dropped)
        if len(history) > max_needed + 1:
            del history[:-max_needed - 1]


def _update_signed(counter: int, taken: bool, lo: int, hi: int) -> int:
    if taken:
        return min(hi, counter + 1)
    return max(lo, counter - 1)


def _update_unsigned(counter: int, taken: bool, lo: int = 0, hi: int = 3) -> int:
    if taken:
        return min(hi, counter + 1)
    return max(lo, counter - 1)
