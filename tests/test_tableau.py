import pytest

from affcells.errors import IdentityFailed
from affcells.partitions import Composition, compositions_of
from affcells.tableau import build


class TestWorkedExample:
    lam = Composition((1, 4, 4, 2, 6))

    def test_coordinates(self):
        tab = build(self.lam)
        assert tab.f[(1, 4)] == 10
        assert tab.f[(4, 3)] == 15
        assert tab.f[(6, 1)] == 17

    def test_colorings(self):
        tab = build(self.lam)
        assert tab.s1 == frozenset({1, 3, 4, 5, 16, 17})
        assert tab.l == (1, 2, 3, 4, 12, 13)
        assert tab.m == (14, 15, 16, 17, 10, 11, 6, 7, 8, 9, 5)

    def test_row_alignment_of_t(self):
        assert_t_pairs_with_m(build(self.lam))


class TestSmallCases:
    def test_two_singletons(self):
        tab = build(Composition((1, 1)))
        assert tab.f[(1, 1)] == 1 and tab.f[(1, 2)] == 2
        assert tab.s1 == frozenset({1})
        assert tab.red[1] == (1,) and tab.blue[2] == (2,)
        assert tab.l == (1,) and tab.m == (2,)
        assert tab.iota[2] == 1

    def test_single_row(self):
        n = 5
        tab = build(Composition((n,)))
        assert all(not tab.blue[i] for i in tab.blue)
        assert tab.s1 == frozenset(range(1, n + 1))
        assert tab.l == tuple(range(1, n + 1))
        assert tab.m == ()


class TestSweep:
    def test_structure_for_all_small_compositions(self):
        # build() checks only the column heights and #S1(i) = #red(i); this
        # sweep checks the rest from outside
        for n in range(1, 10):
            for lam in compositions_of(n):
                tab = build(lam)
                red = {j for i in tab.red for j in tab.red[i]}
                blue = {j for i in tab.blue for j in tab.blue[i]}
                assert red | blue == set(range(1, n + 1))
                assert not red & blue
                assert tab.s1 | tab.s2 == set(range(1, n + 1))
                heights = sorted(
                    (sum(1 for ck in tab.f if ck[0] == c) for c in range(1, tab.s + 1)),
                    reverse=True,
                )
                assert tuple(heights) == tab.nu.parts
                for i in tab.red:
                    if tab.red[i] and tab.blue[i]:
                        assert max(tab.red[i]) < min(tab.blue[i])
                assert sorted(tab.tmap) == sorted(tab.s2)
                assert len(set(tab.iota.values())) == len(tab.iota)
                below = {(c, k) for (c, k) in tab.f if k > 1}
                assert {tab.f[ck] for ck in below} == tab.s2
                assert tab.iota == {tab.f[(c, k)]: tab.f[(c, k - 1)] for (c, k) in below}
                assert_t_pairs_with_m(tab)


def assert_t_pairs_with_m(tab):
    """t and m have one length, t[k] shares a row with m[k], and the t and
    m entries paired within each row both increase."""
    assert len(tab.tmap) == len(tab.m)
    blocks = tab.lam.blocks
    by_row = {}
    for tv, mv in zip(tab.tmap, tab.m):
        assert blocks[tv - 1] == blocks[mv - 1]
        by_row.setdefault(blocks[mv - 1], []).append((tv, mv))
    for pairs in by_row.values():
        for column in zip(*pairs):
            assert list(column) == sorted(set(column))


class TestKeptChecks:
    def test_unconjugated_nu_is_caught(self, monkeypatch):
        monkeypatch.setattr(Composition, "column_partition", Composition.sorted_partition)
        with pytest.raises(IdentityFailed, match="column height must match the column partition"):
            build(Composition((2, 1, 1)))
