import numpy as np
import pytest

from chainfold.geometry import (
    IDENTITY,
    MIRROR_Y,
    MIRROR_Z,
    RX90,
    RZ90,
    add,
    apply,
    bounding_box,
    compose,
    cross,
    dot,
    inverse,
    rotation_group,
    sub,
)


def _matmul(a, b):
    """Textbook triple-loop product, the oracle for `compose`."""
    out = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i][j] += a[i][k] * b[k][j]
    return tuple(tuple(row) for row in out)


def _power(rot, n):
    out = IDENTITY
    for _ in range(n % 4):
        out = compose(rot, out)
    return out


def test_fixed_conventions():
    assert apply(RX90, (0, 1, 0)) == (0, 0, 1)
    assert apply(RZ90, (1, 0, 0)) == (0, 1, 0)
    assert apply(inverse(RZ90), (0, 1, 0)) == (1, 0, 0)
    # axis cells are fixed points
    assert apply(RX90, (0, 0, 0)) == (0, 0, 0)
    assert apply(compose(RX90, RX90), (1, 0, 0)) == (1, 0, 0)
    assert apply(RZ90, (0, 0, 5)) == (0, 0, 5)


def test_generator_orders():
    for gen in (RX90, RZ90):
        half = compose(gen, gen)
        assert half != IDENTITY
        assert compose(gen, half) != IDENTITY
        assert compose(half, half) == IDENTITY
        assert compose(gen, inverse(gen)) == IDENTITY
        assert compose(inverse(gen), gen) == IDENTITY
    # a half turn negates the two coordinates off its axis
    assert apply(compose(RX90, RX90), (1, 2, 3)) == (1, -2, -3)
    assert apply(compose(RZ90, RZ90), (1, 2, 3)) == (-1, -2, 3)


def test_compose_is_the_matrix_product():
    mats = sorted(rotation_group() | {MIRROR_Y, MIRROR_Z})
    assert len(mats) == 26
    for a in mats:
        for b in mats:
            assert compose(a, b) == _matmul(a, b)
    # entries other than 0 and ±1 too: compose is the general 3x3 product
    a = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    b = ((-2, 0, 1), (3, -1, 4), (0, 5, -6))
    assert compose(a, b) == _matmul(a, b)


def test_group_has_24_elements():
    g = rotation_group()
    assert len(g) == 24
    assert IDENTITY in g
    # closed under composition and inverse
    for a in g:
        assert inverse(a) in g
        assert compose(a, inverse(a)) == IDENTITY
        for b in g:
            assert compose(a, b) in g


def test_rotations_are_lattice_bijections():
    rng = np.random.default_rng(7)
    cells = list(map(tuple, rng.integers(-50, 50, size=(1000, 3)).tolist()))
    for gen in (RX90, RZ90):
        for quarter in (1, 2, 3):
            fwd = _power(gen, quarter)
            back = inverse(fwd)
            assert back == _power(gen, -quarter)
            for c in cells:
                assert apply(back, apply(fwd, c)) == c


def test_mirror_conjugation():
    # M_z reverses x-turns, fixes z-turns; M_y reverses both.
    for k in (1, 2, 3):
        rx, rz = _power(RX90, k), _power(RZ90, k)
        assert compose(MIRROR_Z, compose(rx, MIRROR_Z)) == inverse(rx)
        assert compose(MIRROR_Z, compose(rz, MIRROR_Z)) == rz
        assert compose(MIRROR_Y, compose(rx, MIRROR_Y)) == inverse(rx)
        assert compose(MIRROR_Y, compose(rz, MIRROR_Y)) == inverse(rz)


def test_mirror_conjugation_is_group_automorphism():
    g = rotation_group()
    for m in (MIRROR_Z, MIRROR_Y):
        image = {compose(m, compose(r, m)) for r in g}
        assert image == set(g)


def test_vector_helpers():
    assert add((0, 0, 0), (1, 0, 0)) == (1, 0, 0)
    assert add((-1, 2, 0), (1, 0, 0)) == (0, 2, 0)
    assert sub((0, 2, 0), (1, 0, 0)) == (-1, 2, 0)
    assert sub(add((4, -5, 6), (7, 8, -9)), (7, 8, -9)) == (4, -5, 6)
    assert cross((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert dot((1, 2, 3), (3, 2, 1)) == 10
    assert bounding_box([(1, 2, 3), (-1, 0, 5)]) == ((-1, 0, 3), (1, 2, 5))
    with pytest.raises(ValueError):
        bounding_box([])
