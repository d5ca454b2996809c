"""Sparse helpers, factorization error reporting, block systems."""
import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from shapeopt.linalg import (
    BlockSystem,
    Factorization,
    SingularOperatorError,
    factorize,
    from_triplets,
)


def test_from_triplets_accumulates_duplicates():
    matrix = from_triplets(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
    assert_allclose(matrix.toarray(), [[3.0, 0.0], [0.0, 5.0]])


def test_factorize_and_solve(rng):
    dense = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
    rhs = rng.standard_normal(8)
    x = factorize(sp.csc_matrix(dense)).solve(rhs)
    assert_allclose(dense @ x, rhs, rtol=1e-11)


def test_singular_matrix_reports_row():
    matrix = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    with pytest.raises(SingularOperatorError) as info:
        Factorization(matrix)
    assert info.value.row == 1


def test_singular_without_structural_defect():
    # rank-deficient but no empty row/column
    matrix = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularOperatorError):
        factorize(matrix)


def test_block_system_offsets_and_round_trip(rng):
    system = BlockSystem({"a": 3, "b": 2})
    assert system.offsets["a"] == (0, 3)
    assert system.offsets["b"] == (3, 5)
    parts = {"a": rng.standard_normal(3), "b": rng.standard_normal(2)}
    joined = system.join(parts)
    split = system.split(joined)
    assert_allclose(split["a"], parts["a"], rtol=0.0)
    assert_allclose(split["b"], parts["b"], rtol=0.0)


def test_block_system_solve_matches_dense_oracle(rng):
    e = rng.standard_normal((4, 4)) + 5.0 * np.eye(4)
    n = rng.standard_normal((4, 2))
    system = BlockSystem({"force": 2, "field": 4})
    system.set_block("force", "field", n.T)
    system.set_block("field", "force", n)
    system.set_block("field", "field", e)
    rhs_field = rng.standard_normal(4)
    sol = system.solve({"field": rhs_field})
    dense = np.zeros((6, 6))
    dense[:2, 2:] = n.T
    dense[2:, :2] = n
    dense[2:, 2:] = e
    expected = np.linalg.solve(dense, np.concatenate((np.zeros(2), rhs_field)))
    assert_allclose(sol["force"], expected[:2], rtol=1e-10)
    assert_allclose(sol["field"], expected[2:], rtol=1e-10)


def test_block_system_set_identity():
    system = BlockSystem({"a": 2, "b": 2})
    system.set_identity("a", "a", -2.0)
    system.set_identity("b", "b", 1.0)
    system.set_block("a", "b", None)  # explicit None keeps the block empty
    dense = system.matrix().toarray()
    assert_allclose(dense, np.diag([-2.0, -2.0, 1.0, 1.0]))


def test_block_system_rejects_bad_shapes():
    system = BlockSystem({"a": 2, "b": 3})
    with pytest.raises(ValueError):
        system.set_block("a", "b", np.zeros((2, 2)))
    with pytest.raises(KeyError):
        system.set_block("a", "missing", np.zeros((2, 3)))
