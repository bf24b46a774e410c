import random

import pytest

from mwtate.wittring import (
    EPSILON,
    GW_ONE,
    GWElement,
    InvalidParity,
    kx_orbit_canonical,
)


class TestGWElement:
    def test_parity_enforced(self):
        with pytest.raises(InvalidParity):
            GWElement(1, 2)

    @pytest.mark.parametrize("rank, signature",
                             [(1.0, 3.0), (1, 3.0), (1.0, 3), (0.5, 0.5), ("1", 1)])
    def test_non_integer_rank_or_signature_refused(self, rank, signature):
        # no silent float: a GW class is a pair of integers
        with pytest.raises(TypeError):
            GWElement(rank, signature)

    def test_epsilon_squares_to_one(self):
        assert EPSILON * EPSILON == GW_ONE

    def test_ring_ops(self):
        assert GWElement(1, 3) * GWElement(1, 5) == GWElement(1, 15)
        assert GWElement(1, -1) + GWElement(1, -1) == GWElement(2, -2)
        assert -GWElement(3, 1) == GWElement(-3, -1)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_signature_are_ring_maps(self, seed):
        # cross-checked against term-by-term epsilon-power expansions
        rng = random.Random(seed)

        def random_gw():
            r = rng.randrange(-6, 7)
            s = r - 2 * rng.randrange(-4, 5)
            return GWElement(r, s)

        a, b = random_gw(), random_gw()
        assert (a * b).rank == a.rank * b.rank
        assert (a * b).signature == a.signature * b.signature
        assert (a + b).rank == a.rank + b.rank
        assert (a + b).signature == a.signature + b.signature


class TestOrbit:
    def test_examples(self):
        assert kx_orbit_canonical(GWElement(0, -4)) == GWElement(0, 4)
        assert kx_orbit_canonical(GWElement(0, 4)) == GWElement(0, 4)
        assert kx_orbit_canonical(GWElement(3, -1)) == GWElement(3, 1)

    def test_idempotent_and_orbit_constant(self):
        for rank in range(-4, 5):
            for sig in range(-4, 5):
                if (rank - sig) % 2:
                    continue
                e = GWElement(rank, sig)
                c = kx_orbit_canonical(e)
                assert kx_orbit_canonical(c) == c
                assert kx_orbit_canonical(GWElement(rank, -sig)) == c
