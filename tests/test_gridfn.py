import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRID_1D, random_grid_function
from funcbo.errors import FuncboError, InputError, ShapeError
from funcbo.gridfn import (
    GridFunction,
    GridSpec,
    grid_coordinates,
    l2_dist_sq,
    l2_inner,
    read_function_csv,
    write_function_csv,
)
from funcbo.kernels import ScalarKernelSpec
import reference
from reference import (
    constant,
    from_callable,
    l2_norm,
    linear_combine,
    rkhs_dist_sq,
    scalar_eval,
    zeros,
)

# Midpoint-sum oracle for integral of x^2 on [0,1] at rho=100, computed
# with plain Python before the implementation existed.
X_SQ_MIDPOINT = 0.333325


def test_grid_spec_geometry():
    assert GRID_1D.size == 100
    assert GRID_1D.spacing == 0.01
    assert GRID_1D.weight == 0.01
    coords = grid_coordinates(GRID_1D)
    assert coords.shape == (100, 1)
    assert coords[0, 0] == pytest.approx(0.005)
    assert coords[-1, 0] == pytest.approx(0.995)

    spec2 = GridSpec(2, 10)
    assert spec2.size == 100
    assert spec2.weight == pytest.approx(1e-2)
    coords2 = grid_coordinates(spec2)
    # C order: the last axis varies fastest
    np.testing.assert_allclose(coords2[0], [0.05, 0.05])
    np.testing.assert_allclose(coords2[1], [0.05, 0.15])
    np.testing.assert_allclose(coords2[10], [0.15, 0.05])
    assert np.all(coords2 >= 0) and np.all(coords2 < 1)


def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec(0, 10)
    with pytest.raises(InputError):
        GridSpec(4, 10)
    with pytest.raises(InputError):
        GridSpec(1, 0)


def test_grid_function_validation():
    with pytest.raises(ShapeError):
        GridFunction(GRID_1D, np.zeros(99))
    with pytest.raises(InputError):
        GridFunction(GRID_1D, np.full(100, np.nan))
    g = GridFunction(GRID_1D, np.zeros(100))
    with pytest.raises(ValueError):
        g.values[0] = 1.0  # immutable


def test_linear_combine_zero_lambda():
    rng = np.random.default_rng(1)
    bias = random_grid_function(rng)
    basis = [random_grid_function(rng) for _ in range(3)]
    out = linear_combine(bias, basis, np.zeros(3))
    np.testing.assert_array_equal(out.values, bias.values)


def test_linear_combine_unit_vector():
    rng = np.random.default_rng(2)
    bias = random_grid_function(rng)
    basis = [random_grid_function(rng) for _ in range(3)]
    for j in range(3):
        lam = np.zeros(3)
        lam[j] = 1.0
        out = linear_combine(bias, basis, lam)
        np.testing.assert_allclose(out.values, bias.values + basis[j].values)


def test_linear_combine_constants():
    out = linear_combine(
        zeros(GRID_1D),
        [constant(GRID_1D, 1.0), constant(GRID_1D, 2.0)],
        np.array([1.0, 0.5]),
    )
    np.testing.assert_allclose(out.values, 2.0)


def test_linear_combine_is_linear():
    rng = np.random.default_rng(3)
    bias = random_grid_function(rng)
    basis = [random_grid_function(rng) for _ in range(2)]
    lam1, lam2 = rng.standard_normal(2), rng.standard_normal(2)
    a = 1.7
    lhs = linear_combine(bias, basis, a * lam1 + lam2)
    rhs = a * linear_combine(zeros(GRID_1D), basis, lam1).values + linear_combine(
        bias, basis, lam2
    ).values
    np.testing.assert_allclose(lhs.values, rhs, atol=1e-12)


def test_linear_combine_errors():
    rng = np.random.default_rng(4)
    bias = random_grid_function(rng)
    other = random_grid_function(rng, GridSpec(1, 50))
    with pytest.raises(ShapeError):
        linear_combine(bias, [other], np.array([1.0]))
    with pytest.raises(ShapeError):
        linear_combine(bias, [bias], np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        linear_combine(bias, [bias], np.array([np.nan]))


def test_l2_dist_sq_identity_and_constant():
    rng = np.random.default_rng(5)
    g = random_grid_function(rng)
    assert l2_dist_sq(g, g) == 0.0
    assert l2_dist_sq(constant(GRID_1D, 1.0), zeros(GRID_1D)) == pytest.approx(
        1.0, abs=1e-14
    )


def test_l2_dist_sq_midpoint_oracle():
    g = from_callable(GRID_1D, lambda c: c[:, 0])
    value = l2_dist_sq(g, zeros(GRID_1D))
    assert value == pytest.approx(X_SQ_MIDPOINT, abs=1e-13)
    assert abs(value - 1.0 / 3.0) < 1e-4


def test_l2_dist_sq_mismatch():
    with pytest.raises(ShapeError):
        l2_dist_sq(zeros(GRID_1D), zeros(GridSpec(1, 50)))


def test_l2_norm_examples():
    assert l2_norm(zeros(GRID_1D)) == 0.0
    assert l2_norm(constant(GRID_1D, 3.0)) == pytest.approx(3.0, abs=1e-14)
    g = from_callable(GRID_1D, lambda c: np.sin(2 * np.pi * c[:, 0]))
    # independent midpoint oracle, plain Python accumulation
    oracle = math.sqrt(
        sum(math.sin(2 * math.pi * (i + 0.5) / 100) ** 2 for i in range(100)) * 0.01
    )
    assert l2_norm(g) == pytest.approx(oracle, abs=1e-12)
    assert abs(l2_norm(g) - math.sqrt(0.5)) < 1e-3


@pytest.mark.parametrize(
    "a,b,c",
    [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, -1.2, 2.0)],
)
def test_quadrature_consistency_degree_two(a, b, c):
    # analytic integral of (a + b x + c x^2)^2 on [0,1]
    exact = (
        a * a + a * b + (b * b + 2 * a * c) / 3.0 + b * c / 2.0 + c * c / 5.0
    )
    g = from_callable(GRID_1D, lambda q: a + b * q[:, 0] + c * q[:, 0] ** 2)
    assert abs(l2_norm(g) ** 2 - exact) < 10 * GRID_1D.spacing**2


def test_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(25):
        g, h, k = (random_grid_function(rng) for _ in range(3))
        left = math.sqrt(l2_dist_sq(g, h))
        right = math.sqrt(l2_dist_sq(g, k)) + math.sqrt(l2_dist_sq(k, h))
        assert left <= right + 1e-12


def test_mahalanobis_identity():
    # distances between two points of one affine subspace reduce to a
    # quadratic form in the coordinates under the basis inner products
    rng = np.random.default_rng(7)
    bias = random_grid_function(rng)
    basis = [random_grid_function(rng) for _ in range(3)]
    H = np.array([[l2_inner(u, v) for v in basis] for u in basis])
    for _ in range(50):
        lam1, lam2 = rng.standard_normal(3), rng.standard_normal(3)
        g1 = linear_combine(bias, basis, lam1)
        g2 = linear_combine(bias, basis, lam2)
        direct = l2_dist_sq(g1, g2)
        quad = (lam1 - lam2) @ H @ (lam1 - lam2)
        assert abs(direct - quad) <= 1e-10 * max(abs(quad), 1e-30)


def test_rkhs_dist_sq_trivial_cases():
    assert rkhs_dist_sq(np.ones(3), np.ones(3), np.eye(3)) == 0.0
    assert rkhs_dist_sq(np.array([3.0]), np.array([1.0]), np.array([[1.0]])) == 4.0


def test_rkhs_dist_sq_brute_force_oracle():
    rng = np.random.default_rng(8)
    spec = GridSpec(1, 5)
    coords = grid_coordinates(spec)
    kernel = ScalarKernelSpec("se", 0.4)
    gram = np.array(
        [[scalar_eval(kernel, coords[i], coords[j]) for j in range(5)] for i in range(5)]
    )
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    brute = sum(
        (a[i] - b[i]) * (a[j] - b[j]) * gram[i, j] for i in range(5) for j in range(5)
    )
    assert rkhs_dist_sq(a, b, gram) == pytest.approx(brute, rel=1e-12)


def test_rkhs_dist_sq_shape_errors():
    with pytest.raises(ShapeError):
        rkhs_dist_sq(np.zeros(3), np.zeros(4), np.eye(3))
    with pytest.raises(ShapeError):
        rkhs_dist_sq(np.zeros(3), np.zeros(3), np.eye(4))


@pytest.mark.parametrize("spec", [GRID_1D, GridSpec(2, 7), GridSpec(3, 4)])
def test_function_csv_roundtrip(spec, tmp_path):
    rng = np.random.default_rng(9)
    g = random_grid_function(rng, spec)
    path = tmp_path / "fn.csv"
    write_function_csv(g, path)
    back = read_function_csv(path)
    assert back.spec == g.spec
    np.testing.assert_array_equal(back.values, g.values)
    # writing the parsed function reproduces the file byte for byte
    path2 = tmp_path / "fn2.csv"
    write_function_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("spec", [GRID_1D, GridSpec(2, 7), GridSpec(3, 4)])
def test_function_csv_bytes_match_the_per_row_writer(spec, tmp_path):
    rng = np.random.default_rng(10)
    values = rng.standard_normal(spec.size) * 10.0 ** rng.integers(-300, 300, spec.size)
    values[:4] = [-0.0, 0.0, 1.0, -2.5]
    for g in (GridFunction(spec, values), random_grid_function(rng, spec)):  # a cache hit
        write_function_csv(g, tmp_path / "fn.csv")
        reference.write_function_csv(g, tmp_path / "ref.csv")
        assert (tmp_path / "fn.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("spec", [GRID_1D, GridSpec(2, 7), GridSpec(3, 4)])
def test_function_csv_reads_the_values_of_the_per_row_reader(spec, tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal(spec.size) * 10.0 ** rng.integers(-300, 300, spec.size)
    values[:4] = [-0.0, 0.0, 1.0, -2.5]
    path = tmp_path / "fn.csv"
    write_function_csv(GridFunction(spec, values), path)
    got, want = read_function_csv(path), reference.read_function_csv(path)
    assert got.spec == want.spec == spec
    assert got.values.tobytes() == want.values.tobytes() == values.tobytes()


def test_function_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InputError):
        read_function_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0,value\n0.5,abc\n", "row 0 of the function CSV is not numeric"),
        ("value\n1.0\n", "bad function CSV header"),
        ("x0,value\n0.125,1.0\n0.375,2.0\n0.0,3.0\n0.875,4.0\n", "row 2 coordinates"),
    ],
)
def test_function_csv_errors_name_the_row(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=message):
        read_function_csv(path)


def _csv_cells(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


_VALID_CSV_ROWS = [
    [["x0", "value"], ["0.25", "1.5"], ["0.75", "-2.0"]],
    [["x0", "x1", "value"], ["0.25", "0.25", "0.0"], ["0.25", "0.75", "1.0"],
     ["0.75", "0.25", "2.0"], ["0.75", "0.75", "3.0"]],
]
_CELL = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["x0", "x1", "x2", "x3", "value", ""]),
    st.text(alphabet="0123456789.-+eEinfaxv ,\n", max_size=8),
)


@st.composite
def _function_csv_text(draw):
    """A valid small function CSV with one cell replaced or removed, or
    arbitrary rows of cells."""
    if draw(st.booleans()):
        rows = [list(row) for row in draw(st.sampled_from(_VALID_CSV_ROWS))]
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        if draw(st.booleans()):
            rows[i][j] = draw(_CELL)
        else:
            del rows[i][j]
        return _csv_cells(rows)
    return _csv_cells(draw(st.lists(st.lists(_CELL, min_size=1, max_size=4), max_size=5)))


@settings(max_examples=150, deadline=None)
@given(text=_function_csv_text())
@example(text="x0,value\n0.5,abc\n")
@example(text="value\n1.0\n")
@example(text="x0,value\n0.25,abc\n0.75\n")  # the first bad row is named
@example(text="x0,value\n0.25\n0.75,abc\n")
def test_function_csv_parses_or_raises_funcbo_error(text):
    """Any text reads as the per-row reader reads it, or raises its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fn.csv"
        path.write_text(text)
        try:
            got = read_function_csv(path)
        except FuncboError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                reference.read_function_csv(path)
        else:
            want = reference.read_function_csv(path)
            assert got.spec == want.spec and got.values.tobytes() == want.values.tobytes()
