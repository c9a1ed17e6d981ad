"""The :class:`QuboModel` builder.

A QUBO is ``E(x) = sum_i a_i x_i + sum_{i<j} b_ij x_i x_j + c`` over binary
variables.  Variables can be pure indices or carry hashable labels (the
application layers label variables with things like ``("q1", "p3")`` for
"plan 3 of query 1").

The coefficient store is **array-native**: terms accumulate into COO-style
``numpy`` arrays (an index/value pair per linear term, an ``(i, j)``/value
triple per coupling), so the bulk builders (:meth:`add_linear_from`,
:meth:`add_quadratic_from`) and every whole-model operation — energies,
matrix views, canonical serialization — run as vector operations instead of
per-term Python.  The historical ``dict`` views (:attr:`linear`,
:attr:`quadratic`) remain available as lazily materialised read views, and
duplicate terms accumulate in exact insertion order, so every coefficient —
and therefore every canonical fingerprint — is bit-identical to what the
old per-term dict accumulation produced.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Hashable, Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.exceptions import ReproError

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: Structured dtypes whose ``tobytes()`` is byte-identical to the original
#: per-term ``struct.pack("<qd")`` / ``struct.pack("<qqd")`` encoding.
_LIN_DTYPE = np.dtype([("i", "<i8"), ("c", "<f8")])
_QUAD_DTYPE = np.dtype([("i", "<i8"), ("j", "<i8"), ("c", "<f8")])


class QuboModel:
    """Mutable QUBO under construction.

    Use :meth:`variable` to create/look up labelled variables, then
    :meth:`add_linear` / :meth:`add_quadratic` (per term) or
    :meth:`add_linear_from` / :meth:`add_quadratic_from` (bulk, over numpy
    arrays) to accumulate coefficients.
    """

    def __init__(self, num_variables: int = 0):
        self._labels: list[Hashable] = list(range(num_variables))
        self._index: dict[Hashable, int] = {i: i for i in range(num_variables)}
        # True once any integer label maps to a *different* index; only then
        # does an integer array need per-element label resolution.
        self._int_label_aliasing = False
        self.offset: float = 0.0
        # Committed COO store: deduplicated, sorted by key ((i) / (i, j)).
        self._lin_idx = _EMPTY_I64
        self._lin_val = _EMPTY_F64
        self._quad_i = _EMPTY_I64
        self._quad_j = _EMPTY_I64
        self._quad_val = _EMPTY_F64
        # Pending term chunks, folded into the committed store lazily.  The
        # scalar buffers batch consecutive add_linear/add_quadratic calls;
        # bulk calls append whole array chunks.  Chunk order preserves the
        # caller's insertion order, which fixes the floating-point
        # accumulation order of duplicate terms (fingerprint stability).
        self._lin_buf_i: list[int] = []
        self._lin_buf_v: list[float] = []
        self._lin_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._quad_buf_i: list[int] = []
        self._quad_buf_j: list[int] = []
        self._quad_buf_v: list[float] = []
        self._quad_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Cached dict views over the committed store.
        self._lin_view: "dict[int, float] | None" = None
        self._quad_view: "dict[tuple[int, int], float] | None" = None

    # -- variables -----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[Hashable, ...]:
        """Variable labels in index order."""
        return tuple(self._labels)

    def variable(self, label: Hashable) -> int:
        """Return the index of ``label``, creating the variable if new."""
        if label in self._index:
            return self._index[label]
        idx = len(self._labels)
        self._labels.append(label)
        self._index[label] = idx
        if isinstance(label, (int, np.integer)) and int(label) != idx:
            self._int_label_aliasing = True
        return idx

    def variables_from(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Bulk :meth:`variable`: create/look up labels, return their indices."""
        return np.array([self.variable(label) for label in labels], dtype=np.int64)

    def index_of(self, label: Hashable) -> int:
        """Index of an existing labelled variable (KeyError if unknown)."""
        return self._index[label]

    def indices_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Bulk :meth:`index_of` (KeyError on the first unknown label)."""
        return np.array([self._index[label] for label in labels], dtype=np.int64)

    def resolve_indices(self, variables: Iterable[Hashable]) -> np.ndarray:
        """Bulk label-or-index resolution (the scalar-add lookup, batched).

        Integer arrays short-circuit straight to indices when no integer
        label aliases a different index (the common case: labels are tuples
        or identity ints), skipping the per-element lookup loop.
        """
        if (
            isinstance(variables, np.ndarray)
            and variables.dtype.kind in "iu"
            and not self._int_label_aliasing
        ):
            return variables.astype(np.int64, copy=False)
        return np.array([self._resolve(v) for v in variables], dtype=np.int64)

    def _resolve(self, var: Hashable) -> int:
        """Accept either a known label or an in-range raw index.

        Label lookup takes precedence: a model whose labels are themselves
        integers (e.g. hardware qubit ids) must resolve them as labels, not
        as positional indices.
        """
        try:
            if var in self._index:
                return self._index[var]
        except TypeError:
            pass  # unhashable: cannot be a label
        if isinstance(var, (int, np.integer)) and 0 <= int(var) < len(self._labels):
            return int(var)
        raise ReproError(f"unknown QUBO variable {var!r}")

    # -- coefficient accumulation ---------------------------------------------

    def add_linear(self, var: Hashable, coeff: float) -> "QuboModel":
        """Add ``coeff * x_var``."""
        i = self._resolve(var)
        self._lin_buf_i.append(i)
        self._lin_buf_v.append(float(coeff))
        self._lin_view = None
        return self

    def add_quadratic(self, u: Hashable, v: Hashable, coeff: float) -> "QuboModel":
        """Add ``coeff * x_u x_v`` (u != v; coefficients are merged)."""
        i, j = self._resolve(u), self._resolve(v)
        if i == j:
            # x^2 == x for binary variables.
            return self.add_linear(i, coeff)
        if j < i:
            i, j = j, i
        self._quad_buf_i.append(i)
        self._quad_buf_j.append(j)
        self._quad_buf_v.append(float(coeff))
        self._quad_view = None
        return self

    def _check_bounds(self, idx: np.ndarray, what: str) -> None:
        n = len(self._labels)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            bad = idx[(idx < 0) | (idx >= n)][0]
            raise ReproError(f"unknown QUBO variable index {int(bad)} in {what}")

    @staticmethod
    def _coeff_array(coeffs, shape) -> np.ndarray:
        val = np.asarray(coeffs, dtype=np.float64)
        if val.ndim == 0:
            return np.full(shape, float(val))
        val = np.ascontiguousarray(val).ravel()
        if val.shape != shape:
            raise ReproError(
                f"coefficient array of shape {val.shape} does not match {shape} indices"
            )
        return val.copy() if val is coeffs else val

    def add_linear_from(self, indices, coeffs) -> "QuboModel":
        """Bulk :meth:`add_linear`: add ``coeffs[k] * x_indices[k]`` for all k.

        ``indices`` is an integer array of existing variable *indices* (use
        :meth:`variables_from` to create labelled variables first);
        ``coeffs`` is a matching float array or a scalar broadcast to every
        index.  Duplicate indices accumulate in array order, exactly as the
        equivalent sequence of scalar :meth:`add_linear` calls would.
        """
        idx = np.array(indices, dtype=np.int64, copy=True).ravel()
        if idx.size == 0:
            return self
        self._check_bounds(idx, "add_linear_from")
        val = self._coeff_array(coeffs, idx.shape)
        self._push_linear_scalars()
        self._lin_chunks.append((idx, val))
        self._lin_view = None
        return self

    def add_quadratic_from(self, rows, cols, coeffs) -> "QuboModel":
        """Bulk :meth:`add_quadratic`: add ``coeffs[k] * x_rows[k] x_cols[k]``.

        Pairs are canonicalised to ``(min, max)`` and merged; diagonal
        entries (``rows[k] == cols[k]``) fold into the linear terms
        (``x^2 == x``).  ``coeffs`` may be a scalar broadcast to every pair.
        """
        i = np.array(rows, dtype=np.int64, copy=True).ravel()
        j = np.array(cols, dtype=np.int64, copy=True).ravel()
        if i.shape != j.shape:
            raise ReproError(
                f"row/col index arrays differ in shape: {i.shape} vs {j.shape}"
            )
        if i.size == 0:
            return self
        self._check_bounds(i, "add_quadratic_from")
        self._check_bounds(j, "add_quadratic_from")
        val = self._coeff_array(coeffs, i.shape)
        diag = i == j
        if diag.any():
            self.add_linear_from(i[diag], val[diag])
            off = ~diag
            i, j, val = i[off], j[off], val[off]
            if i.size == 0:
                return self
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        self._push_quadratic_scalars()
        self._quad_chunks.append((lo, hi, val))
        self._quad_view = None
        return self

    def add_offset(self, value: float) -> "QuboModel":
        self.offset += float(value)
        return self

    def scale(self, factor: float) -> "QuboModel":
        """Multiply every coefficient (and the offset) by ``factor``."""
        self._flush()
        f = float(factor)
        self._lin_val = self._lin_val * f
        self._quad_val = self._quad_val * f
        self.offset *= f
        self._lin_view = None
        self._quad_view = None
        return self

    # -- store consolidation ----------------------------------------------------

    def _push_linear_scalars(self) -> None:
        if self._lin_buf_i:
            self._lin_chunks.append(
                (
                    np.array(self._lin_buf_i, dtype=np.int64),
                    np.array(self._lin_buf_v, dtype=np.float64),
                )
            )
            self._lin_buf_i, self._lin_buf_v = [], []

    def _push_quadratic_scalars(self) -> None:
        if self._quad_buf_i:
            self._quad_chunks.append(
                (
                    np.array(self._quad_buf_i, dtype=np.int64),
                    np.array(self._quad_buf_j, dtype=np.int64),
                    np.array(self._quad_buf_v, dtype=np.float64),
                )
            )
            self._quad_buf_i, self._quad_buf_j, self._quad_buf_v = [], [], []

    def _flush(self) -> None:
        """Fold pending term chunks into the committed (sorted, unique) store.

        ``np.add.at`` accumulates strictly in element order, and committed
        totals are placed ahead of the pending chunks, so every key's value
        is the same left-to-right floating-point sum the per-term dict
        accumulation performed — the invariant canonical fingerprints (and
        every cache keyed on them) rely on.
        """
        self._push_linear_scalars()
        self._push_quadratic_scalars()
        if self._lin_chunks:
            idx = np.concatenate([self._lin_idx] + [c[0] for c in self._lin_chunks])
            val = np.concatenate([self._lin_val] + [c[1] for c in self._lin_chunks])
            uniq, inverse = np.unique(idx, return_inverse=True)
            sums = np.zeros(uniq.size)
            np.add.at(sums, inverse, val)
            self._lin_idx, self._lin_val = uniq, sums
            self._lin_chunks = []
        if self._quad_chunks:
            n = len(self._labels)
            i = np.concatenate([self._quad_i] + [c[0] for c in self._quad_chunks])
            j = np.concatenate([self._quad_j] + [c[1] for c in self._quad_chunks])
            val = np.concatenate([self._quad_val] + [c[2] for c in self._quad_chunks])
            keys = i * np.int64(n) + j
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.zeros(uniq.size)
            np.add.at(sums, inverse, val)
            self._quad_i = uniq // n
            self._quad_j = uniq % n
            self._quad_val = sums
            self._quad_chunks = []

    # -- dict views --------------------------------------------------------------

    @property
    def linear(self) -> dict[int, float]:
        """``{index: coefficient}`` read view of the linear terms.

        Materialised lazily from the array store (keys ascending) and
        invalidated by every mutation; treat it as read-only — writes to the
        returned dict do not reach the model.
        """
        self._flush()
        if self._lin_view is None:
            self._lin_view = dict(zip(self._lin_idx.tolist(), self._lin_val.tolist()))
        return self._lin_view

    @property
    def quadratic(self) -> dict[tuple[int, int], float]:
        """``{(i, j): coefficient}`` read view of the couplings (``i < j``)."""
        self._flush()
        if self._quad_view is None:
            self._quad_view = dict(
                zip(
                    zip(self._quad_i.tolist(), self._quad_j.tolist()),
                    self._quad_val.tolist(),
                )
            )
        return self._quad_view

    def coo_terms(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lin_idx, lin_val, quad_i, quad_j, quad_val)`` array views.

        The zero-copy face of the model: sorted by key, duplicates merged.
        Callers must not mutate the returned arrays.
        """
        self._flush()
        return self._lin_idx, self._lin_val, self._quad_i, self._quad_j, self._quad_val

    # -- evaluation ------------------------------------------------------------

    def energy(self, bits: "Sequence[int] | np.ndarray | Mapping[Hashable, int]") -> float:
        """Energy of one assignment.

        ``bits`` is either an array in index order or a mapping from labels
        (or indices) to {0, 1}.  Routed through the vectorised
        :meth:`energies` kernel (one batch row), not a per-term loop.
        """
        x = self._as_array(bits)
        return float(self.energies(x[np.newaxis, :])[0])

    def energies(self, assignments: np.ndarray) -> np.ndarray:
        """Vectorised energies for a ``(batch, n)`` 0/1 matrix."""
        X = np.asarray(assignments, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.num_variables:
            raise ReproError("assignments must have shape (batch, num_variables)")
        self._flush()
        e = np.full(X.shape[0], self.offset, dtype=float)
        if self._lin_idx.size:
            e += X[:, self._lin_idx] @ self._lin_val
        if self._quad_i.size:
            e += (X[:, self._quad_i] * X[:, self._quad_j]) @ self._quad_val
        return e

    def _as_array(self, bits) -> np.ndarray:
        if isinstance(bits, Mapping):
            x = np.zeros(self.num_variables)
            for k, v in bits.items():
                x[self._resolve(k)] = v
            return x
        x = np.asarray(bits, dtype=float)
        if x.shape != (self.num_variables,):
            raise ReproError(
                f"assignment of length {x.shape} does not match {self.num_variables} variables"
            )
        return x

    def decode(self, bits: "Sequence[int] | np.ndarray") -> dict[Hashable, int]:
        """Map an index-ordered assignment back to ``{label: bit}``."""
        return {label: int(b) for label, b in zip(self._labels, bits)}

    # -- matrix / graph views ----------------------------------------------------

    def to_dense(self) -> tuple[np.ndarray, float]:
        """Upper-triangular coefficient matrix (diagonal = linear) + offset."""
        self._flush()
        n = self.num_variables
        Q = np.zeros((n, n))
        Q[self._lin_idx, self._lin_idx] = self._lin_val
        Q[self._quad_i, self._quad_j] = self._quad_val
        return Q, self.offset

    def symmetric_couplings(self) -> tuple[np.ndarray, np.ndarray]:
        """``(a, S)``: linear vector and symmetric off-diagonal matrix.

        ``energy(x) = a.x + 0.5 * x.S.x + offset`` with ``S_ij = S_ji = b_ij``
        and zero diagonal — the form the annealing solvers consume for O(n)
        single-flip energy deltas.
        """
        self._flush()
        n = self.num_variables
        a = np.zeros(n)
        S = np.zeros((n, n))
        a[self._lin_idx] = self._lin_val
        S[self._quad_i, self._quad_j] = self._quad_val
        S[self._quad_j, self._quad_i] = self._quad_val
        return a, S

    def interaction_graph(self) -> nx.Graph:
        """Graph with one node per variable and an edge per stored coupling, zero or not."""
        self._flush()
        g = nx.Graph()
        g.add_nodes_from(range(self.num_variables))
        g.add_weighted_edges_from(
            zip(self._quad_i.tolist(), self._quad_j.tolist(), self._quad_val.tolist())
        )
        return g

    def max_abs_coefficient(self) -> float:
        """Largest absolute linear/quadratic coefficient (0 if empty)."""
        self._flush()
        best = 0.0
        if self._lin_val.size:
            best = float(np.abs(self._lin_val).max())
        if self._quad_val.size:
            best = max(best, float(np.abs(self._quad_val).max()))
        return best

    # -- canonical serialization / fingerprint -----------------------------------

    def to_stable_bytes(self, include_labels: bool = True) -> bytes:
        """Canonical byte serialization of the model's content.

        The encoding is independent of insertion order and of dict iteration
        order: linear terms are emitted sorted by index, quadratic terms
        sorted by ``(i, j)``, coefficients as IEEE-754 little-endian doubles,
        and zero coefficients are dropped.  Two models built along different
        code paths therefore serialize identically iff they describe the
        same energy function over the same variables.

        Terms are emitted via ``ndarray.tobytes()`` on packed structured
        arrays over the (already key-sorted) COO store — no per-term Python
        or ``struct`` calls — and the byte stream is identical to the
        original ``struct.pack("<qd"/"<qqd")`` framing, so fingerprints (and
        every cache entry keyed on them) are unchanged.

        ``include_labels=True`` (the default) also folds in ``repr`` of each
        variable label, so models that sample identically but *decode*
        differently get distinct bytes — the property a result cache needs.
        Pass ``include_labels=False`` for a pure coefficient view.
        """
        self._flush()
        lmask = self._lin_val != 0.0
        lin = np.empty(int(lmask.sum()), dtype=_LIN_DTYPE)
        lin["i"] = self._lin_idx[lmask]
        lin["c"] = self._lin_val[lmask]
        qmask = self._quad_val != 0.0
        quad = np.empty(int(qmask.sum()), dtype=_QUAD_DTYPE)
        quad["i"] = self._quad_i[qmask]
        quad["j"] = self._quad_j[qmask]
        quad["c"] = self._quad_val[qmask]
        parts = [
            b"QUBO-v1",
            struct.pack("<q", self.num_variables),
            struct.pack("<q", len(lin)),
            lin.tobytes(),
            struct.pack("<q", len(quad)),
            quad.tobytes(),
            struct.pack("<d", self.offset),
        ]
        if include_labels:
            for label in self._labels:
                encoded = repr(label).encode("utf-8", errors="backslashreplace")
                parts.append(struct.pack("<q", len(encoded)))
                parts.append(encoded)
        return b"".join(parts)

    def fingerprint(self, include_labels: bool = True) -> str:
        """Content-addressed SHA-256 hex digest of :meth:`to_stable_bytes`.

        Stable across processes and sessions (``repr`` of the plain-data
        labels the adapters use does not depend on hash randomisation), so
        it can key cross-process result caches.
        """
        return hashlib.sha256(self.to_stable_bytes(include_labels=include_labels)).hexdigest()

    def signature(self) -> str:
        """16-hex structural key: variable count plus stored coupling pattern.

        Two models with the same signature share an interaction graph, so a
        hardware embedding or warm-start angles found for one are valid for
        the other.  Plan shards, scoreboard rows, durable store rows and the
        stateful backends' caches all key on it.  Labels, coefficients and
        the offset do not enter; a stored zero coupling does.

        The hex is ``sha256(repr((n, ((i, j), ...))))[:16]`` over the
        ``(i, j)``-sorted couplings, and stored rows are keyed on it, so the
        text must not change.  The text is written row by row from the sorted
        COO arrays (``tests/qubo/test_signature.py`` checks it against the
        tuple form).
        """
        _, _, qi, qj, _ = self.coo_terms()
        n = self.num_variables
        cols = list(map(str, qj.tolist()))
        ends = np.searchsorted(qi, np.arange(1, n + 1)).tolist()
        rows = "), (".join(
            f"{i}, " + f"), ({i}, ".join(cols[start:end])
            for i, (start, end) in enumerate(zip([0, *ends], ends))
            if end > start
        )
        pairs = "()" if not qi.size else f"(({rows}),)" if qi.size == 1 else f"(({rows}))"
        return hashlib.sha256(f"({n}, {pairs})".encode("ascii")).hexdigest()[:16]

    # -- conversions ---------------------------------------------------------------

    def to_ising(self):
        """The equivalent :class:`~repro.quantum.pauli.IsingHamiltonian`."""
        from repro.qubo.ising import qubo_to_ising

        return qubo_to_ising(self)

    def copy(self) -> "QuboModel":
        self._flush()
        dup = QuboModel()
        dup._labels = list(self._labels)
        dup._index = dict(self._index)
        dup._int_label_aliasing = self._int_label_aliasing
        dup._lin_idx = self._lin_idx.copy()
        dup._lin_val = self._lin_val.copy()
        dup._quad_i = self._quad_i.copy()
        dup._quad_j = self._quad_j.copy()
        dup._quad_val = self._quad_val.copy()
        dup.offset = self.offset
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        self._flush()
        return (
            f"QuboModel({self.num_variables} vars, {self._quad_val.size} couplings, "
            f"offset={self.offset:.4g})"
        )

