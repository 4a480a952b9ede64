import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkglab.grids import (
    ADJOINT_SIGNS,
    DimensionError,
    Field,
    Grid,
    flat,
    norm_h1l2,
    norm_l2,
    norm_l2l2,
    spectral_derivative,
    symmetry_rows,
    wrap_coordinate,
)
from oracles import pair_inner, symmetry_directions


@pytest.fixture(scope="module")
def grid():
    return Grid(80.0, 1024)


def test_grid_invariants(grid):
    assert grid.spacing * grid.points == pytest.approx(grid.length, rel=1e-15)
    k = grid.deriv_wavenumbers
    # antisymmetric about zero except the (unpaired, zeroed) Nyquist mode
    assert np.allclose(k[1 : grid.points // 2], -k[-1 : grid.points // 2 : -1])
    assert k[grid.points // 2] == 0.0


def test_grid_equality_is_length_and_points():
    """Grids are equal when their length and point count are, whatever else
    they hold; unequal when either differs; never equal to a non-Grid; and,
    being mutable, unhashable."""
    g = Grid(80.0, 64)
    assert g == Grid(80.0, 64)
    assert Grid(80.0, 64) == Grid(80, np.int64(64))
    assert g != Grid(80.0, 128)
    assert g != Grid(40.0, 64)
    assert g != (80.0, 64)
    with pytest.raises(TypeError):
        hash(g)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    with pytest.raises(ValueError):
        Grid(10.0, 0)


@pytest.mark.parametrize("points", [2048.0, True, np.float64(64.0)])
def test_grid_points_must_be_an_integer(points):
    """A float or bool point count is refused with the rule named; numpy
    integers pass."""
    with pytest.raises(ValueError, match="grid points must be an integer, not a bool or float"):
        Grid(80.0, points)
    assert Grid(80.0, np.int64(64)).points == 64


def test_derivative_of_constant(grid):
    f = np.full(grid.points, 2.7 + 0.0j)
    assert np.max(np.abs(spectral_derivative(f, grid))) < 1e-14


def test_derivative_fourier_mode(grid):
    f = np.exp(1j * 2 * np.pi * grid.x / grid.length)
    df = spectral_derivative(f, grid)
    assert np.max(np.abs(df - 1j * 2 * np.pi / grid.length * f)) < 1e-13


def test_derivative_sech_oracle(grid):
    f = 1.0 / np.cosh(grid.x)
    expected = -np.tanh(grid.x) / np.cosh(grid.x)
    assert np.max(np.abs(spectral_derivative(f, grid) - expected)) < 1e-10


def test_derivative_length_mismatch(grid):
    with pytest.raises(DimensionError):
        spectral_derivative(np.zeros(100), grid)


def test_second_derivative_composition(grid):
    """Two first derivatives compose to the multiplier -k^2 on the same
    Nyquist-zeroed wavenumbers."""
    rng = np.random.default_rng(3)
    spec = np.zeros(grid.points, complex)
    low = slice(1, grid.points // 4)
    spec[low] = rng.standard_normal(grid.points // 4 - 1) + 1j * rng.standard_normal(
        grid.points // 4 - 1
    )
    f = np.fft.ifft(spec)
    twice = spectral_derivative(spectral_derivative(f, grid), grid)
    direct = np.fft.ifft(-(grid.deriv_wavenumbers**2) * np.fft.fft(f))
    assert np.max(np.abs(twice - direct)) < 1e-10 * max(1.0, np.max(np.abs(direct)))


def _l2(f, g, grid):
    """The real L2 pairing Re sum(f conj(g)) h, as pair_inner with u2 = 0."""
    zero = np.zeros(grid.points)
    return pair_inner(Field(f, zero, grid), Field(g, zero, grid))


def test_inner_product_sech(grid):
    f = 1.0 / np.cosh(grid.x)
    assert _l2(f, f, grid) == pytest.approx(2.0, abs=1e-10)


def test_inner_product_imaginary_rotation(grid):
    f = (1.0 + 0.5j) / np.cosh(grid.x)
    assert _l2(f, 1j * f, grid) == pytest.approx(0.0, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_inner_product_symmetry(seed):
    g = Grid(20.0, 128)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    h = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert _l2(f, h, g) == pytest.approx(_l2(h, f, g), rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_inner_product_real_bilinear(seed, a, b):
    g = Grid(20.0, 128)
    rng = np.random.default_rng(seed)
    f, h, z = (rng.standard_normal(128) + 1j * rng.standard_normal(128) for _ in range(3))
    lhs = _l2(a * f + b * h, z, g)
    rhs = a * _l2(f, z, g) + b * _l2(h, z, g)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("points", [128, 127])
def test_flat_pairs_like_pair_inner(seed, points):
    """flat is the real layout of a field: its dot product times h is pair_inner,
    to rounding relative to the Cauchy-Schwarz bound."""
    g = Grid(20.0, points)
    rng = np.random.default_rng(seed)
    a, b = (
        Field(*(rng.standard_normal((2, points)) + 1j * rng.standard_normal((2, points))), g)
        for _ in range(2)
    )
    err = abs(flat(a) @ flat(b) * g.spacing - pair_inner(a, b))
    assert err <= 1e-14 * norm_l2l2(a) * norm_l2l2(b)


def test_parseval(grid):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    pos = norm_l2(f, grid) ** 2
    spec = np.sum(np.abs(np.fft.fft(f)) ** 2) / grid.points * grid.spacing
    assert pos == pytest.approx(spec, rel=1e-12)


def test_integration_by_parts(grid):
    rng = np.random.default_rng(5)
    spec = np.zeros(grid.points, complex)
    band = slice(1, grid.points // 3)
    spec[band] = rng.standard_normal(grid.points // 3 - 1) + 1j * rng.standard_normal(
        grid.points // 3 - 1
    )
    f = np.fft.ifft(spec)
    spec2 = np.roll(spec, 7)
    g2 = np.fft.ifft(spec2)
    lhs = _l2(spectral_derivative(f, grid), g2, grid)
    rhs = -_l2(f, spectral_derivative(g2, grid), grid)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def _random_field(g, rng):
    def part():
        return rng.standard_normal(g.points) + 1j * rng.standard_normal(g.points)

    return Field(part(), part(), g)


@pytest.mark.parametrize("points", [256, 255])
def test_symmetry_directions_adjoints(points):
    """<a, D_k b> = s_k <D_k a, b> under pair_inner with s = ``ADJOINT_SIGNS``
    = (-1, +1, -1): i and d/dx (Nyquist zeroed) are skew and i J is symmetric.
    Modulation fitting moves the maps onto the residue by these identities."""
    g = Grid(40.0, points)
    rng = np.random.default_rng(points)
    a, b = _random_field(g, rng), _random_field(g, rng)
    for k, sign in enumerate(ADJOINT_SIGNS):
        da, db = symmetry_directions(a)[k], symmetry_directions(b)[k]
        lhs, rhs = pair_inner(a, db), sign * pair_inner(da, b)
        assert abs(lhs - rhs) <= 1e-12 * norm_l2l2(a) * norm_l2l2(db)


@pytest.mark.parametrize("points", [256, 255])
def test_symmetry_rows_match_the_field_triple(points):
    """The rows' real views are ``flat`` of the Field triple, bit for bit."""
    w = _random_field(Grid(40.0, points), np.random.default_rng(points))
    want = np.stack([flat(d) for d in symmetry_directions(w)])
    assert np.array_equal(symmetry_rows(w).view(float), want)


def test_symmetry_rows_take_a_given_translation_row():
    """With ``dw`` the third row is flat(dw): no derivative is taken."""
    g = Grid(40.0, 256)
    rng = np.random.default_rng(1)
    w, dw = _random_field(g, rng), _random_field(g, rng)
    rows = symmetry_rows(w, dw).view(float)
    assert np.array_equal(rows[2], flat(dw))
    assert np.array_equal(rows[:2], symmetry_rows(w).view(float)[:2])


def test_symmetry_rows_write_only_their_view():
    """Written into ``out``, a view of three rows in a larger array, the rows
    land there and their neighbours are left as they were."""
    g = Grid(40.0, 256)
    w = _random_field(g, np.random.default_rng(2))
    big = np.full((7, 2 * g.points), 5.0 - 3.0j)
    got = symmetry_rows(w, out=big[2:5])
    assert np.shares_memory(got, big)
    assert np.array_equal(big[2:5], symmetry_rows(w))
    assert np.all(big[:2] == 5.0 - 3.0j) and np.all(big[5:] == 5.0 - 3.0j)


@pytest.mark.parametrize("points", [256, 255])
def test_real_derivative_matches_complex_path(points):
    """Real input takes the one complex transform pair: the same bits as the
    input cast to complex."""
    g = Grid(40.0, points)
    f = np.random.default_rng(points).standard_normal(points)
    assert np.array_equal(spectral_derivative(f, g), spectral_derivative(f.astype(complex), g))


def test_norm_h1l2_zero(grid):
    assert norm_h1l2(Field.zeros(grid)) == 0.0


def test_norm_h1l2_ground_state_pair(grid):
    phi = np.sqrt(2.0) / np.cosh(grid.x)
    w = Field(phi.astype(complex), np.zeros_like(phi, dtype=complex), grid)
    assert norm_h1l2(w) == pytest.approx(np.sqrt(4.0 + 4.0 / 3.0), abs=1e-9)


def test_norm_homogeneity(grid):
    rng = np.random.default_rng(2)
    w = Field(
        rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points),
        rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points),
        grid,
    )
    c = -2.5
    assert norm_h1l2(c * w) == pytest.approx(abs(c) * norm_h1l2(w), rel=1e-12)


def test_field_shape_check(grid):
    with pytest.raises(DimensionError):
        Field(np.zeros(10), np.zeros(grid.points), grid)


def test_wrap_coordinate():
    assert wrap_coordinate(41.0, 80.0) == pytest.approx(-39.0)
    assert wrap_coordinate(-41.0, 80.0) == pytest.approx(39.0)
    assert wrap_coordinate(12.0, 80.0) == pytest.approx(12.0)


@pytest.mark.parametrize("length, periods", [(80.0, 7), (160.0, 7), (0.3, 2)])
def test_wrap_coordinate_matches_the_remainder_form(length, periods):
    """On a random sweep of 1e6 points the floor form agrees with
    (y + L/2) % L - L/2 to one ulp of L.  Past one period each way a length
    that is not a small dyadic rounds L k, so there the sweep stays within it."""
    half = 0.5 * periods * length
    y = np.random.default_rng(23).uniform(-half, half, 10**6)
    remainder = (y + 0.5 * length) % length - 0.5 * length
    assert np.max(np.abs(wrap_coordinate(y, length) - remainder)) <= np.spacing(length)


def test_wrap_coordinate_edges():
    """A y inside the period comes back as it is, even the tiniest (the
    remainder form returns 0.0 for -1e-300); both ends of the period map to
    -L/2; and nextafter(L/2, 0), whose y + L/2 rounds to L, lands one ulp
    below -L/2, as the docstring states."""
    L = 80.0
    for y in (-1e-300, 1e-300, -0.0, 12.0, -39.999, np.nextafter(-0.5 * L, 0.0)):
        assert wrap_coordinate(y, L) == y
    assert wrap_coordinate(0.5 * L, L) == -0.5 * L
    assert wrap_coordinate(-0.5 * L, L) == -0.5 * L
    assert wrap_coordinate(np.nextafter(0.5 * L, 0.0), L) == np.nextafter(-0.5 * L, -np.inf)
    grid = Grid(L, 1024)
    assert np.array_equal(wrap_coordinate(grid.x, L), grid.x)
