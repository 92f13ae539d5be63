"""Hierarchical sparse-grid basis on the unit hypercube.

A basis function is identified by a level vector ``l`` (each ``l_j >= 1``)
and an index vector ``i`` (each ``i_j`` odd, ``1 <= i_j <= 2^l_j - 1``); it
is the product of one-dimensional hats

    phi_{l,i}(x) = prod_j max(0, 1 - |2^{l_j} x_j - i_j|),

supported on the cell ``((i_j - 1) 2^{-l_j}, (i_j + 1) 2^{-l_j})``.  A
*regular* sparse grid of level ``n`` keeps all ``(l, i)`` with
``|l|_1 <= n + d - 1`` — the O(2^n n^{d-1})-point construction the paper
quotes (Section 3.2).

We use SG++'s *modified linear* ("modlinear") boundary treatment: at each
level the leftmost (``i = 1``) and rightmost (``i = 2^l - 1``) hats become
linear ramps extending to the domain boundary (value 2 at the boundary),
and the single level-1 hat is the constant 1.  Plain hats vanish on the
boundary of the unit cube, making any target with non-zero boundary values
unrepresentable there — modlinear is how SG++ avoids wasting boundary grid
points (Pfluger 2010, Section 2.1.3).

Key evaluation property: for a fixed level vector, the supports of distinct
odd indices are disjoint, so every sample activates at most one basis per
level vector.  ``evaluate`` exploits this: one vectorized pass per level
vector, giving a CSR design matrix with ``#level-vectors`` nonzeros per row
at most.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = ["level_vectors", "SparseGridBasis"]


def level_vectors(d: int, level: int) -> list[tuple]:
    """All level vectors of a regular sparse grid: ``sum(l_j - 1) <= level - 1``."""
    if d < 1 or level < 1:
        raise ValueError("d and level must be >= 1")
    out: list[tuple] = []

    def rec(prefix, budget):
        if len(prefix) == d - 1:
            for last in range(1, budget + 2):
                out.append(prefix + (last,))
            return
        for lj in range(1, budget + 2):
            rec(prefix + (lj,), budget - (lj - 1))

    rec((), level - 1)
    return out


class SparseGridBasis:
    """A mutable collection of hierarchical basis functions.

    Stored as parallel integer arrays ``levels`` and ``indices`` of shape
    ``(G, d)``; a hash set of ``(l, i)`` tuples prevents duplicates when
    refinement adds children.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        self._levels: list[tuple] = []
        self._indices: list[tuple] = []
        self._seen: set = set()

    # -- construction -----------------------------------------------------------

    @classmethod
    def regular(cls, d: int, level: int, max_points: int | None = 50000) -> "SparseGridBasis":
        """The regular sparse grid of the given level."""
        basis = cls(d)
        for l in level_vectors(d, level):
            widths = [1 << (lj - 1) for lj in l]  # number of odd indices per dim
            n_new = int(np.prod(widths, dtype=np.int64))
            if max_points is not None and len(basis) + n_new > max_points:
                raise MemoryError(
                    f"sparse grid level {level} in {d}D exceeds max_points="
                    f"{max_points}; lower the level"
                )
            # Enumerate odd index combinations via mixed-radix counting.
            for flat in range(n_new):
                i = []
                rem = flat
                for w in widths:
                    i.append(2 * (rem % w) + 1)
                    rem //= w
                basis.add(l, tuple(i))
        return basis

    def add(self, l: tuple, i: tuple) -> bool:
        """Add one basis function; returns False when already present."""
        key = (tuple(l), tuple(i))
        if key in self._seen:
            return False
        for lj, ij in zip(*key):
            if lj < 1 or ij < 1 or ij > (1 << lj) - 1 or ij % 2 == 0:
                raise ValueError(f"invalid basis (l={l}, i={i})")
        self._seen.add(key)
        self._levels.append(key[0])
        self._indices.append(key[1])
        return True

    def children_of(self, b: int) -> list[tuple]:
        """The 2d hierarchical children of basis ``b`` (may include dupes)."""
        l = self._levels[b]
        i = self._indices[b]
        kids = []
        for j in range(self.d):
            lj = l[:j] + (l[j] + 1,) + l[j + 1 :]
            for child in (2 * i[j] - 1, 2 * i[j] + 1):
                kids.append((lj, i[:j] + (child,) + i[j + 1 :]))
        return kids

    def __len__(self) -> int:
        return len(self._levels)

    @property
    def levels(self) -> np.ndarray:
        return np.asarray(self._levels, dtype=np.int64)

    @property
    def indices(self) -> np.ndarray:
        return np.asarray(self._indices, dtype=np.int64)

    def points(self) -> np.ndarray:
        """Grid-point coordinates ``i * 2^-l`` in the unit hypercube."""
        L = self.levels
        return self.indices.astype(float) / (1 << L).astype(float)

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, X: np.ndarray) -> scipy.sparse.csr_matrix:
        """Design matrix ``Phi`` with ``Phi[k, b] = phi_b(X[k])`` (CSR).

        ``X`` must lie in the unit hypercube (values are clipped to
        ``[0, 1]`` defensively; SGR cannot represent anything outside).
        """
        X = np.clip(np.asarray(X, dtype=float), 0.0, 1.0)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"X must be (n, {self.d})")
        n = len(X)
        # Group basis ids and index tuples by level vector.
        groups: dict[tuple, tuple[list, list]] = {}
        for b, (l, i) in enumerate(zip(self._levels, self._indices)):
            ids, idx = groups.setdefault(l, ([], []))
            ids.append(b)
            idx.append(i)

        rows, cols, vals = [], [], []
        for l, (ids, idx) in groups.items():
            # A level-1 dimension has the single index 1 and the constant
            # 1-D value 1, so only the refined dimensions are evaluated.
            active = np.flatnonzero(np.asarray(l) > 1)
            scale = np.asarray([float(1 << l[j]) for j in active])
            top = (scale - 1).astype(np.int64)
            t = X[:, active] * scale  # (n, |active|) in level-l integer coordinates
            # The unique odd index whose support can contain each sample.
            i_star = (2 * np.floor(t / 2.0) + 1).astype(np.int64)
            i_star = np.minimum(i_star, top)
            # Modified-linear 1-D values (vectorized over samples and dims).
            hat = np.maximum(1.0 - np.abs(t - i_star), 0.0)
            left = i_star == 1
            right = (i_star == top) & ~left
            phi1 = np.where(left, np.maximum(2.0 - t, 0.0), hat)
            phi1 = np.where(right, np.maximum(t - (i_star - 1), 0.0), phi1)
            phi = np.prod(phi1, axis=1)
            live = phi > 0
            if not live.any():
                continue
            # Map index tuples to basis ids: mixed-radix keys over the
            # refined dimensions, looked up in the group's sorted keys.
            strides = np.cumprod(np.concatenate([[1.0], scale]))[:-1].astype(np.int64)
            basis_keys = np.asarray(idx, dtype=np.int64)[:, active] @ strides
            order = np.argsort(basis_keys)
            sorted_keys = basis_keys[order]
            keys = i_star[live] @ strides
            pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
            present = sorted_keys[pos] == keys
            col_ids = np.asarray(ids, dtype=np.int64)[order][pos]
            live_rows = np.flatnonzero(live)[present]
            rows.append(live_rows)
            cols.append(col_ids[present])
            vals.append(phi[live][present])
        if rows:
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
        else:  # no basis touched any sample (empty grid edge case)
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0)
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, len(self)))
