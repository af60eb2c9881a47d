import math
import random
import warnings
from fractions import Fraction

import pytest

from entbridge import padic, realspace
from entbridge.exactlinalg import InputError
from entbridge.bridge import verify_instance
from entbridge.realspace import (
    BoundaryEigenvalueWarning,
    algebraic_entropy,
    eigenvalue_moduli,
    topological_entropy,
)


class TestEigenvalueModuli:
    def test_diagonal(self):
        assert eigenvalue_moduli([[2, 0], [0, 3]]) == pytest.approx([3.0, 2.0])

    def test_rotation_has_unit_moduli(self):
        assert eigenvalue_moduli([[0, -1], [1, 0]]) == pytest.approx([1.0, 1.0])

    def test_accepts_rational_entries(self):
        moduli = eigenvalue_moduli([["1/2", 0], [0, Fraction(3, 4)]])
        assert moduli == pytest.approx([0.75, 0.5])

    def test_requires_square(self):
        with pytest.raises(InputError, match="square"):
            eigenvalue_moduli([[1, 2]])
        with pytest.raises(InputError, match="square"):
            eigenvalue_moduli([])

    def test_refuses_what_a_float_cannot_hold(self):
        with pytest.raises(InputError, match="matrix entry too large for floating point"):
            eigenvalue_moduli([["1e400"]])
        # finite entries whose eigenvalue, 2e308, overflows
        with pytest.raises(InputError, match="eigenvalue modulus is not finite"):
            eigenvalue_moduli([[1e308, 1e308], [1e308, 1e308]])


class TestEntropy:
    @pytest.mark.parametrize(
        "entries", [[[3, 5]], [[4, 0, 0], [0, 1, 0]], [[1], [2, 3]], [[1, 2], [3]], []]
    )
    def test_both_routes_require_square(self, entries):
        # the dual route transposes, so a wide or ragged matrix must be
        # refused before that, with the primal route's message
        for route in (topological_entropy, algebraic_entropy):
            with pytest.raises(InputError, match="endomorphism matrix must be square"):
                route(entries)

    def test_hyperbolic_diagonal(self):
        m = [[2, 0], [0, "1/2"]]
        assert topological_entropy(m) == pytest.approx(math.log(2), abs=1e-12)
        assert algebraic_entropy(m) == pytest.approx(math.log(2), abs=1e-12)

    def test_expanding_scalar(self):
        assert topological_entropy([[3]]) == pytest.approx(math.log(3), abs=1e-12)

    def test_golden_mean(self):
        # companion of x^2 - x - 1; the contracting root is ignored
        phi = (1 + math.sqrt(5)) / 2
        m = [[0, 1], [1, 1]]
        assert topological_entropy(m) == pytest.approx(math.log(phi), abs=1e-12)

    def test_contracting_matrix_has_zero_entropy(self):
        assert topological_entropy([["1/3", 0], [0, "1/2"]]) == 0.0

    def test_rotation_warns_and_returns_zero(self):
        with pytest.warns(BoundaryEigenvalueWarning):
            value = topological_entropy([[0, -1], [1, 0]])
        assert value == 0.0

    def test_identity_warns(self):
        with pytest.warns(BoundaryEigenvalueWarning, match="within tolerance of 1"):
            topological_entropy([[1]])

    def test_tolerance_controls_the_boundary(self):
        near_one = [[Fraction(101, 100)]]
        with pytest.warns(BoundaryEigenvalueWarning):
            assert topological_entropy(near_one, tol=0.02) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert topological_entropy(near_one, tol=1e-3) == pytest.approx(
                math.log(1.01)
            )

    def test_dual_route_agrees_on_random_integer_matrices(self):
        rng = random.Random(5)
        for _ in range(60):
            dim = rng.randint(1, 5)
            m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryEigenvalueWarning)
                assert abs(topological_entropy(m) - algebraic_entropy(m)) <= 1e-9

    def test_each_route_reads_its_matrix_once(self, monkeypatch):
        # the report reads the matrix, then each route reads it once more;
        # the dual route transposes the grid it read
        calls = []
        parse = padic.rational_matrix

        def counted(entries):
            calls.append(entries)
            return parse(entries)

        monkeypatch.setattr(padic, "rational_matrix", counted)
        monkeypatch.setattr(realspace, "rational_matrix", counted)
        instance = {"kind": "real", "matrix": [[2, 1, 0], [0, "1/3", 5], [1, 0, 4]]}
        report = verify_instance(instance)
        assert len(calls) == 3
        assert report["verdict"] == "pass"
