"""Set-level counts streamed over many ragged blocks of pair sums.

Shrinking the block size to a few entries makes every count run over many
blocks, some narrower than one row of Y, and each count must still agree
with the independent oracles in conftest.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleysum import subsets
from cayleysum.deviation import edge_count, high_deviation_elements, row_edge_counts
from cayleysum.groups import parse_group
from cayleysum.subsets import GroupSubset, rep_function, sumset

from conftest import oracle_rep_counts, oracle_sigma_parts, oracle_sumset

GROUPS = {name: parse_group(name) for name in ("z12", "f2^4", "3,5", "2,4,8")}
EPSILONS = (Fraction(1, 2), Fraction(1, 4), Fraction(2, 7), Fraction(1, 2**70))


@st.composite
def group_and_sets(draw):
    g = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    index_sets = [
        sorted(draw(st.sets(st.integers(0, g.order - 1), min_size=min_size, max_size=16)))
        for min_size in (0, 1, 1)
    ]
    return g, index_sets


@pytest.mark.parametrize("block", [1, 5, 7])
@settings(max_examples=15, deadline=None, database=None)
@given(case=group_and_sets(), eps=st.sampled_from(EPSILONS))
def test_blocked_counts_match_oracles(block, case, eps):
    g, (a_idx, x_idx, y_idx) = case
    a, x, y = (GroupSubset.from_indices(g, idx) for idx in (a_idx, x_idx, y_idx))
    empty = GroupSubset.empty(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsets, "_PAIR_BLOCK", block)
        for p, q in ((x, y), (y, x), (a, y), (x, empty)):
            p_idx, q_idx = p.to_index_list(), q.to_index_list()
            counts = oracle_rep_counts(g.moduli, p_idx, q_idx)
            values = rep_function(p, q).values
            assert {z: int(v) for z, v in enumerate(values) if v} == dict(counts)
            assert set(sumset(p, q).to_index_list()) == oracle_sumset(g.moduli, p_idx, q_idx)
            edges, _ = oracle_sigma_parts(g.moduli, a_idx, p_idx, q_idx)
            assert edge_count(a, p, q) == edges

        rows = row_edge_counts(a, x, y)
        n = len(x_idx)
        kept = []
        for yi, c in zip(y_idx, rows):
            assert c == oracle_sigma_parts(g.moduli, a_idx, x_idx, [yi])[0]
            if abs(2 * int(c) - n) * eps.denominator >= eps.numerator * n:
                kept.append(yi)
        assert high_deviation_elements(a, x, y, eps).to_index_list() == kept
