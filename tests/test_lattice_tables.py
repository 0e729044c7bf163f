"""The cached lattice tables that ``cumulative_log_loss`` reads.

A table depends only on (spec, horizon, m), so a loss must not depend on
what the cache held before the call: a cold call, a repeat, a call after
other sequences and a call after the table was evicted give the same float.
``tests/test_scan_tables.py`` checks the table's values against the pass
that searched each level for the prefix.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphanml import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    LuckinessNML,
    Mixture,
    NML,
    count_vector_ranks,
    count_vectors,
    cumulative_log_loss,
    kt,
)
from alphanml import predictors


def _specs(m: int, draw) -> list:
    a = DirichletParams(tuple(draw(st.floats(0.2, 3.0)) for _ in range(m)))
    b = DirichletParams(tuple(draw(st.floats(1.0, 3.0)) for _ in range(m)))
    alpha = draw(st.floats(1.0, 8.0))
    return [Mixture(a), AlphaNML(alpha, a), NML(), LuckinessNML(b), LuckinessAlphaNML(alpha, b)]


class TestCachedLosses:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_losses_do_not_depend_on_the_cache(self, data):
        m = data.draw(st.integers(2, 4))
        symbols = st.lists(st.integers(1, m), max_size={2: 20, 3: 10, 4: 6}[m])
        seqs = data.draw(st.lists(symbols, min_size=2, max_size=3))
        horizon = max(map(len, seqs)) + data.draw(st.sampled_from([0, 2]))
        specs = _specs(m, data.draw)
        with pytest.MonkeyPatch.context() as mp:
            cold = {}
            for spec in specs:
                mp.setattr(predictors, "_LATTICE_TABLES", predictors._LatticeTables())
                cold[spec] = [cumulative_log_loss(spec, seq, m, horizon=horizon) for seq in seqs]
            # one cache for every spec, which all stay in it; the sequences and specs interleave
            mp.setattr(predictors, "_LATTICE_TABLES", predictors._LatticeTables())
            for _ in range(2):
                for seq_index, seq in enumerate(seqs):
                    for spec in specs:
                        assert cumulative_log_loss(spec, seq, m, horizon=horizon) == cold[spec][seq_index]
            assert len(predictors._LATTICE_TABLES._tables) == len(specs)
            # room for one table: each spec's call evicts the previous spec's table
            mp.setattr(predictors, "_LATTICE_FLOATS", math.comb(horizon + m, m))
            mp.setattr(predictors, "_LATTICE_TABLES", predictors._LatticeTables())
            for seq_index, seq in enumerate(seqs):
                for spec in specs:
                    assert cumulative_log_loss(spec, seq, m, horizon=horizon) == cold[spec][seq_index]
                    assert len(predictors._LATTICE_TABLES._tables) == 1

    def test_table_is_in_count_vectors_order_of_one_more_symbol(self):
        # the prefix c at level L sits at the rank of (horizon - L, c) among the classes of (horizon, m + 1)
        horizon, m = 7, 3
        table = predictors._lattice_table(kt(m), horizon, m)
        rows = count_vectors(horizon, m + 1)
        assert table.shape == (math.comb(horizon + m, m),) == (rows.shape[0],)
        assert np.array_equal(count_vector_ranks(rows), np.arange(rows.shape[0]))
        level = horizon - rows[:, 0]
        top = level == horizon
        assert np.array_equal(table[top], predictors.log_numerators(kt(m), rows[top, 1:]))


class TestBound:
    def test_cache_never_holds_more_floats_than_the_bound(self, monkeypatch):
        tables = predictors._LatticeTables()
        monkeypatch.setattr(predictors, "_LATTICE_TABLES", tables)
        monkeypatch.setattr(predictors, "_LATTICE_FLOATS", 100)  # C(8+2, 2) = 45 floats per table
        spec = NML()
        for horizon in (8, 8, 7, 8, 6, 9, 5, 8):
            cumulative_log_loss(spec, [1, 2] * 2, 2, horizon=horizon)
            assert tables.floats == sum(t.size for t in tables._tables.values()) <= 100
        # least recently used first out: 9 (55 floats) then 5 (21) then 8 (45) would hold 121
        assert list(tables._tables) == [(spec, 5, 2), (spec, 8, 2)]

    def test_table_over_the_bound_is_returned_but_not_stored(self, monkeypatch):
        tables = predictors._LatticeTables()
        monkeypatch.setattr(predictors, "_LATTICE_TABLES", tables)
        monkeypatch.setattr(predictors, "_LATTICE_FLOATS", 20)
        cumulative_log_loss(NML(), [1], 2, horizon=3)  # C(5, 2) = 10 floats: stored
        loss = cumulative_log_loss(NML(), [1, 2, 2], 2, horizon=6)  # C(8, 2) = 28 floats: not stored
        assert list(tables._tables) == [(NML(), 3, 2)] and tables.floats == 10
        assert loss == cumulative_log_loss(NML(), [1, 2, 2], 2, horizon=6)
