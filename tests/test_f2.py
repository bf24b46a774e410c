"""``mwtate.exactalg.f2`` against the F2 oracles of ``tests._f2`` and the
integer kernels of ``intmat``."""

import random

from hypothesis import given
from hypothesis import strategies as st

from mwtate.bockstein import v_group
from mwtate.checks import random_normal_form
from mwtate.exactalg import f2, intmat
from mwtate.exactalg.intmat import Mat, scalar
from tests._f2 import f2_rank, f2_span_basis

WIDTH = 10
vectors = st.lists(st.integers(0, 2**WIDTH - 1), max_size=12)


def span(vecs) -> dict:
    basis = {}
    for v in vecs:
        f2.insert(v, basis)
    return basis


class TestInsert:
    @given(st.data())
    def test_basis_does_not_depend_on_the_order(self, data):
        vecs = data.draw(vectors)
        other = data.draw(st.permutations(vecs))
        basis = span(vecs)
        assert basis == span(other)
        # the span of the oracle basis, and reduced echelon: each top bit
        # set in its own vector only
        oracle = f2_span_basis(vecs)
        assert len(basis) == len(oracle) == f2_rank(list(basis.values()) + oracle)
        for t, v in basis.items():
            assert v.bit_length() - 1 == t
            assert not [u for s, u in basis.items() if s != t and u >> t & 1]

    @given(vectors, st.integers(0, 2**WIDTH - 1))
    def test_reduce_is_the_remainder_insert_returns(self, vecs, vec):
        basis = span(vecs)
        rest = f2.reduce(vec, basis)
        assert f2_rank(list(basis.values()) + [vec ^ rest]) == len(basis)
        assert not [t for t in basis if rest >> t & 1]
        assert f2.insert(vec, dict(basis)) == rest


class TestKernel:
    @given(st.data())
    def test_rank_nullity_and_images_in_modulo(self, data):
        vecs = f2_span_basis(data.draw(vectors))  # independent
        cols = data.draw(st.lists(st.integers(0, 2**WIDTH - 1), min_size=WIDTH, max_size=WIDTH))
        modulo = span(data.draw(st.lists(st.integers(0, 2**WIDTH - 1), max_size=4)))
        pairs = [(v, f2.image(cols, v)) for v in vecs]
        kernel = f2.kernel(pairs, modulo)
        # independent vectors of the span whose images lie in modulo
        assert f2_rank(kernel) == len(kernel)
        assert f2_rank(vecs + kernel) == len(vecs)
        assert all(f2.reduce(f2.image(cols, v), modulo) == 0 for v in kernel)
        # dim ker = dim span - rank of the images modulo ``modulo``
        images = [img for _, img in pairs] + list(modulo.values())
        assert len(kernel) == len(vecs) - (f2_rank(images) - len(modulo))

    def test_image_reads_bit_k_as_column_k(self):
        assert f2.image([0b01, 0b10, 0b11], 0b101) == 0b10


class TestHermite:
    @given(st.data())
    def test_lift_of_a_kernel_mod_two_is_the_integer_kernel(self, data):
        # [A e_j; e_j] with the A half above bit n: the vectors below bit n
        # of their span are ker(A mod 2), whose lift is {x : A x in 2Z^m}
        m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8))
        row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
        a = Mat(data.draw(st.lists(row, min_size=m, max_size=m)), n)
        cols = [sum((a[r][j] & 1) << r for r in range(m)) for j in range(n)]
        vecs = [col << n | 1 << (n - 1 - j) for j, col in enumerate(cols)]
        assert Mat(f2.hermite(vecs, n), n) == intmat.kernel_mod_lattice(a, scalar(m, 2))


def test_fiber_product_lift_is_the_integer_kernel(monkeypatch, intmat_calls):
    # the lattice {x : theta x in 2Z} of each V-group fiber product, with
    # theta the reduced classes of its generators, bit r row r, comes out
    # as kernel_mod_lattice(theta, 2I) does, and no integer kernel runs
    kernel, hermite, lifts = f2.kernel, f2.hermite, []

    def kernel_seen(pairs, modulo):
        lifts.append([pairs, modulo, None])
        return kernel(pairs, modulo)

    def hermite_seen(vecs, n):
        lifts[-1][2] = rows = hermite(vecs, n)
        return rows

    monkeypatch.setattr(f2, "kernel", kernel_seen)
    monkeypatch.setattr(f2, "hermite", hermite_seen)
    integer_kernels = intmat_calls("kernel_mod_lattice")
    for seed in range(8):
        a = random_normal_form(random.Random(1200 + seed), 6)
        for j in (1, 2, 3):
            for n in range(-2, 3):
                v_group(a, j, n)
    assert integer_kernels == []
    lifts = [lift for lift in lifts if lift[2] is not None]
    assert lifts
    for pairs, modulo, rows in lifts:
        size = len(pairs)
        assert [v for v, _ in pairs] == [1 << (size - 1 - c) for c in range(size)]
        classes = [f2.reduce(img, modulo) for _, img in pairs]
        width = max(c.bit_length() for c in classes) or 1
        theta = Mat([[c >> r & 1 for c in classes] for r in range(width)], size)
        assert Mat(rows, size) == intmat.kernel_mod_lattice(theta, scalar(width, 2))
