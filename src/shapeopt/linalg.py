"""Sparse linear algebra used by the assembly and solver layers.

Thin wrappers around scipy.sparse: triplet assembly with duplicate summing,
reusable LU factorizations (SuperLU), and named block systems.  Everything
is deterministic: fixed orderings, no randomized pivoting.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularOperatorError(RuntimeError):
    """LU factorization hit an exactly singular matrix.

    ``row`` carries a structurally empty row/column index when one exists;
    otherwise the singularity was numerical and no location is available.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def from_triplets(
    nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> sp.csr_matrix:
    """CSR matrix from COO triplets; duplicate entries are summed."""
    return sp.coo_matrix(
        (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(nrows, ncols)
    ).tocsr()


def _structural_defect(matrix: sp.csr_matrix) -> int | None:
    """Index of a structurally empty row or column, if any."""
    csr = matrix.tocsr()
    row_nnz = np.diff(csr.indptr)
    empty = np.flatnonzero(row_nnz == 0)
    if len(empty):
        return int(empty[0])
    csc = matrix.tocsc()
    col_nnz = np.diff(csc.indptr)
    empty = np.flatnonzero(col_nnz == 0)
    if len(empty):
        return int(empty[0])
    return None


class Factorization:
    """Reusable sparse LU factorization of a square matrix."""

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        try:
            self._lu = spla.splu(matrix)
        except RuntimeError as exc:
            row = _structural_defect(matrix)
            where = f" (structurally empty row/column {row})" if row is not None else ""
            raise SingularOperatorError(
                f"sparse LU failed: {exc}{where}", row=row
            ) from exc
        self.shape = matrix.shape

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {rhs.shape[0]} != {self.shape[0]}")
        return self._lu.solve(rhs)


def factorize(matrix: sp.spmatrix) -> Factorization:
    """LU-factorize once; reuse the factor for repeated solves."""
    return Factorization(matrix)


class BlockSystem:
    """Square block system with named row/column groups.

    Blocks default to structural zeros.  ``solve`` concatenates the named
    right-hand sides, LU-solves the assembled matrix, and splits the solution
    back into named pieces.  No solver of the package uses it: the tests
    assemble the projection saddle and the seven-block Newton system with it
    as the reference the reduced solvers are checked against, and the
    benchmark's tracing hooks name ``BlockSystem.matrix``.
    """

    def __init__(self, sizes: dict[str, int]):
        self.names = list(sizes)
        self.sizes = dict(sizes)
        offsets = np.concatenate(([0], np.cumsum([sizes[n] for n in self.names])))
        self.offsets = {n: (int(offsets[i]), int(offsets[i + 1])) for i, n in enumerate(self.names)}
        self.total = int(offsets[-1])
        self._blocks: dict[tuple[str, str], sp.spmatrix] = {}

    def set_block(self, row: str, col: str, matrix: sp.spmatrix | np.ndarray | None) -> None:
        key = (row, col)
        if matrix is None:
            self._blocks.pop(key, None)
            return
        matrix = sp.csr_matrix(matrix)
        expected = (self.sizes[row], self.sizes[col])
        if matrix.shape != expected:
            raise ValueError(f"block {key} has shape {matrix.shape}, expected {expected}")
        self._blocks[key] = matrix

    def set_identity(self, row: str, col: str, scale: float = 1.0) -> None:
        if self.sizes[row] != self.sizes[col]:
            raise ValueError(f"identity block {(row, col)} is not square")
        self.set_block(row, col, scale * sp.identity(self.sizes[row], format="csr"))

    def matrix(self) -> sp.csr_matrix:
        grid = [
            [self._blocks.get((r, c)) for c in self.names] for r in self.names
        ]
        return sp.bmat(grid, format="csr")

    def join(self, parts: dict[str, np.ndarray]) -> np.ndarray:
        vec = np.zeros(self.total)
        for name, values in parts.items():
            lo, hi = self.offsets[name]
            values = np.asarray(values, dtype=np.float64).ravel()
            if len(values) != hi - lo:
                raise ValueError(f"part {name!r} has length {len(values)}, expected {hi - lo}")
            vec[lo:hi] = values
        return vec

    def split(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        return {n: vec[lo:hi] for n, (lo, hi) in self.offsets.items()}

    def solve(self, rhs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.split(factorize(self.matrix()).solve(self.join(rhs)))
