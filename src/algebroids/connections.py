"""Connections along algebroid sections: a connection is a `FormMatrix` of 1-forms.

`FormMatrix.zero(chart, r, 1)` is the flat connection on a rank-r bundle, and
`connection_from_coefficients` builds one from its coefficients on the frame;
`curvature` and `bott_delta` reject a matrix of any other degree.  Every
bracket-induced connection, the bracket and the flat jet connections among
them, is `morphism_target_connection(phi)`: nabla_{b_i} b'_u = [phi b_i, b'_u],
read off the target's structure functions and anchor in closed form,

  omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t),

plus, on a jet source, the Leibniz term -rho'_u^h phi(j1 b_i) on each row
dx^h (x) b_i of the split jet frame.  The jet class of phi is `relative_mu` on
the chain (pi, phi), with pi: J1 A -> A the jet projection.

Constant connections are unboxed.  On a chart with zero anchor and constant
structure functions (`AlgebroidChart.constant`) every connection of a class
form, and every link, curvature and Chern word built from them, has constant
coefficients, and `morphism_target_connection` of a constant morphism builds
its floats directly.  A `FormMatrix` holds trees or numbers, the two routes
of `forms`, decided once, when it is built: when no coefficient is a tree
other than a `Const`, its tables are number tables from the start, each
`Const` its value.  A sum, difference, scaling by a number, product or (on
a constant chart) `d` of number matrices runs on the numbers and yields a
number matrix, with the tree route's keys in the same order and its values
bit for bit, under the zero rule of `forms` (a float 0.0 is dropped, an
array never): floats, or, for the random connection of a constant chart
(`cli._probe_values`), arrays of values at the probe points.  `eval_on`,
`max_abs` and `cli._check` read the numbers themselves.  A float matrix
builds `Const`-coefficient `AForm`s only when its `entries` are read, and
traces come out as boxed `AForm`s; a matrix that holds arrays has no trees
to box, and reading its `entries` or its trace is a ValueError.  Any other
pair of operands, such as field coefficients on an anchored chart, runs on
trees.  The tree-only routes are the oracle `tests/matrix_oracle.py`.

Conventions fixed once and used everywhere:
  * matrix wedge product (A ^ B)_u^t = A_u^s ^ B_s^t,
  * curvature Omega = d(omega) - omega ^ omega,
  * metric compatibility dG - omega ^ G - G ^ omega^T = 0, with G the
    0-form matrix of the metric (`FormMatrix.of_functions`),
  * dual connection matrix = -omega^T, the negative transpose in dual frames.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from .algebroid import (
    AlgebroidChart,
    JetChart,
    Morphism,
    _frame_derivative,
    d_A,
)
from .expressions import (Const, MINUS_ONE, ONE, ScalarField, ZERO, add, div, evaluate,
                          max_abs_finite, mul, residual, square_root, sub)
from .forms import (AForm, _accumulate, _boxed, _form, _scaled_table, _sum_tables, d_numbers,
                    permutation_sign, wedge_into)
from .sampling import first_point


class FormMatrix:
    """Square matrix of forms of one homogeneous degree on a shared chart.

    The constructor checks every entry.  The matrix's own operations (sums,
    scalings, `wedge`, `trace`, `d`, `transpose`) build valid matrices by
    construction and skip those checks.  They run on the rows of coefficient
    tables, through the table kernels of `forms`.  Products are row-sparse:
    the nonzero entries of each row of the right factor are listed once, and
    A_u^s ^ B_s^t is added into the table of (AB)_u^t by ascending s, over
    nonzero pairs only, so each entry has the coefficient trees of
    `acc = acc + a.wedge(b)`.

    Unboxed constants (see the module docstring): `_init` decides once, when
    the matrix is built, whether it holds numbers or trees.  A matrix whose
    every coefficient is a number or a `Const` holds number tables, and its
    tables never change afterwards; a matrix built from `AForm`s of trees
    keeps them as its `entries`, and any other float matrix boxes its
    `entries` on the first read.  An operand pair that is not all-numbers runs on trees, with
    a float matrix boxed first.
    """

    __slots__ = ("chart", "size", "degree", "_rows", "_numbers", "_entries")

    def __init__(self, chart: AlgebroidChart, entries: Sequence[Sequence[AForm]],
                 degree: int):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("form matrix must be square")
        for row in entries:
            for entry in row:
                if entry.chart is not chart:
                    raise ValueError("all entries must live on the shared chart")
                if not entry.is_zero() and entry.degree != degree:
                    raise ValueError("entries must share one degree")
        self._init(chart, [[entry.table for entry in row] for row in entries], degree, False)
        if not any(isinstance(next(iter(entry.table.values()), ZERO), (float, np.ndarray))
                   for row in entries for entry in row):  # tree entries are kept as they are
            self._entries = tuple(tuple(row) for row in entries)

    def _init(self, chart: AlgebroidChart, rows, degree: int, numbers: bool) -> "FormMatrix":
        """Set this matrix from rows of valid tables, of numbers when `numbers`;
        tables whose every coefficient is a number or a `Const` become number
        tables.  The one place that sets `_rows` and `_numbers`."""
        rows = tuple(tuple(row) for row in rows)
        if not numbers:
            numbers = all(type(coeff) is Const or not isinstance(coeff, ScalarField)
                          for row in rows for table in row for coeff in table.values())
            if numbers:
                rows = tuple(tuple({key: coeff.value if type(coeff) is Const else coeff
                                    for key, coeff in table.items()}
                                   if table else table for table in row) for row in rows)
        self.chart, self.size, self.degree = chart, len(rows), degree
        self._rows, self._numbers, self._entries = rows, numbers, None
        return self

    def _made(self, rows, degree: int, numbers: bool) -> "FormMatrix":
        """A matrix on this chart from rows of valid tables, of numbers when `numbers`."""
        return FormMatrix.__new__(FormMatrix)._init(self.chart, rows, degree, numbers)

    @property
    def entries(self) -> tuple[tuple[AForm, ...], ...]:
        """The entries as `AForm`s, built on the first read from tables of a
        matrix that was not built from tree `AForm`s; probe values raise."""
        if self._entries is None:
            zero = self.chart.zero_form(self.degree)
            self._entries = tuple(tuple(
                _form(self.chart, self.degree, _boxed(table) if self._numbers else table)
                if table else zero for table in row) for row in self._rows)
        return self._entries

    def coefficients(self):
        """Every coefficient of every entry, trees or numbers, none boxed."""
        return (coeff for row in self._rows for table in row for coeff in table.values())

    def _tree_rows(self):
        """The rows' tables of trees; a float matrix's are those of its boxed entries."""
        if not self._numbers:
            return self._rows
        return tuple(tuple(entry.table for entry in row) for row in self.entries)

    def _operands(self, other: "FormMatrix"):
        """(rows of self, rows of other, numbers): number tables when both
        matrices hold numbers, else tree tables."""
        if self._numbers and other._numbers:
            return self._rows, other._rows, True
        return self._tree_rows(), other._tree_rows(), False

    @classmethod
    def zero(cls, chart: AlgebroidChart, size: int, degree: int) -> "FormMatrix":
        zero = chart.zero_form(degree)
        return cls(chart, [[zero] * size for _ in range(size)], degree)

    @classmethod
    def of_functions(cls, chart: AlgebroidChart,
                     rows: Sequence[Sequence[ScalarField]]) -> "FormMatrix":
        """The matrix of 0-forms with these scalar fields as entries."""
        return cls(chart, [[chart.function_form(f) for f in row] for row in rows], 0)

    def transpose(self) -> "FormMatrix":
        return self._made(list(zip(*self._rows)), self.degree, self._numbers)

    def __add__(self, other: "FormMatrix") -> "FormMatrix":
        return self._add(other, False)

    def __sub__(self, other: "FormMatrix") -> "FormMatrix":
        return self._add(other, True)

    def _add(self, other: "FormMatrix", negate: bool) -> "FormMatrix":
        self._check_compatible(other)
        left, right, numbers = self._operands(other)
        return self._made([[_sum_tables(a, b, negate) for a, b in zip(r1, r2)]
                           for r1, r2 in zip(left, right)], self.degree, numbers)

    def scale(self, factor) -> "FormMatrix":
        """factor times each entry; on numbers when the factor is a number and
        the matrix holds numbers."""
        if not isinstance(factor, ScalarField) and self._numbers:
            return self._made([[_scaled_table(table, float(factor)) for table in row]
                               for row in self._rows], self.degree, True)
        if not isinstance(factor, ScalarField):
            factor = Const(factor)
        return self._made([[_scaled_table(table, factor) for table in row]
                           for row in self._tree_rows()], self.degree, False)

    def wedge(self, other: "FormMatrix") -> "FormMatrix":
        """Matrix product with entrywise wedge: (AB)_u^t = A_u^s ^ B_s^t; zero,
        with nothing built, when the degree exceeds the chart rank."""
        self._check_compatible(other, same_degree=False)
        degree = self.degree + other.degree
        if degree > self.chart.rank:
            return self._made([[{}] * self.size] * self.size, degree, True)
        left, right, numbers = self._operands(other)
        nonzero_rows = [[(t, b) for t, b in enumerate(row) if b] for row in right]
        out = []
        for row in left:
            tables: dict[int, dict] = {}
            for a, nonzero in zip(row, nonzero_rows):
                if a:
                    for t, b in nonzero:
                        wedge_into(a, b, tables.setdefault(t, {}))
            out.append([tables.get(t, {}) for t in range(self.size)])
        return self._made(out, degree, numbers)

    def d(self) -> "FormMatrix":
        """Entrywise d_A; a zero entry stays zero, with nothing called.  A
        number matrix on a constant chart runs `d_numbers` on its tables."""
        if self._numbers and self.chart.constant:
            return self._made([[d_numbers(self.chart, table) if table else {} for table in row]
                               for row in self._rows], self.degree + 1, True)
        return self._made([[d_A(e).table if e.table else {} for e in row]
                           for row in self.entries], self.degree + 1, False)

    def trace(self) -> AForm:
        table: dict = {}
        for u in range(self.size):
            for key, coeff in self._rows[u][u].items():
                _accumulate(table, key, coeff)
        return _form(self.chart, self.degree, _boxed(table) if self._numbers else table)

    def trace_wedge(self, other: "FormMatrix") -> AForm:
        """tr(self ^ other), building only the diagonal of the product: the
        products A_u^s ^ B_s^u of nonzero pairs, added by ascending (u, s)."""
        self._check_compatible(other, same_degree=False)
        degree = self.degree + other.degree
        if degree > self.chart.rank:
            return self.chart.zero_form(degree)
        left, right, numbers = self._operands(other)
        table: dict = {}
        for u, row in enumerate(left):
            for a, b_row in zip(row, right):
                if a and b_row[u]:
                    wedge_into(a, b_row[u], table)
        return _form(self.chart, degree, _boxed(table) if numbers else table)

    def eval_on(self, frames: Sequence[tuple[int, ...]], points) -> np.ndarray:
        """Entry values on each frame tuple at each point, shape (frames, N, size, size).

        A number matrix fills its numbers in, each times the sign of the
        frame's order as `AForm.coeff_signed` multiplies it, with nothing boxed."""
        if self._numbers:
            values = np.zeros((len(frames) * self.size * self.size, len(points)))
            tables = [table for row in self._rows for table in row]
            for f, frame in enumerate(frames):
                key, sign = tuple(sorted(frame)), float(permutation_sign(frame))
                for n, table in enumerate(tables, f * len(tables)):
                    if (value := table.get(key)) is not None:
                        values[n] = sign * value
        else:
            values = evaluate([entry.coeff_signed(frame) for frame in frames
                               for row in self.entries for entry in row], points)
        shape = (len(frames), self.size, self.size, len(points))
        return np.ascontiguousarray(values.reshape(shape).transpose(0, 3, 1, 2))

    def max_abs(self, points) -> float:
        """Largest coefficient magnitude of any entry (`residual`); inf if any is
        non-finite."""
        return residual(self.coefficients(), points)

    def _check_compatible(self, other: "FormMatrix", same_degree: bool = True):
        if self.chart is not other.chart or self.size != other.size:
            raise ValueError("form matrices are not compatible")
        if same_degree and self.degree != other.degree:
            raise ValueError("form matrices must share a degree")


def connection_from_coefficients(chart: AlgebroidChart, rank: int, coeff) -> FormMatrix:
    """The rank x rank connection matrix with coeff(i, u, t) -> omega_u^t on b_i."""
    return FormMatrix(chart, [[_form(chart, 1, {(i,): c for i in range(chart.rank)
                                                if not (c := coeff(i, u, t)).is_zero()})
                               for t in range(rank)] for u in range(rank)], 1)


def _require_connection(conn: FormMatrix) -> None:
    if conn.degree != 1:
        raise ValueError("connection matrices must hold 1-forms")


def curvature(conn: FormMatrix) -> FormMatrix:
    """Omega = d(omega) - omega ^ omega."""
    _require_connection(conn)
    return conn.d() - conn.wedge(conn)


def dual_connection(conn: FormMatrix) -> FormMatrix:
    """Connection induced on the dual bundle: negative transpose matrix."""
    return conn.transpose().scale(-1.0)


def direct_sum(c1: FormMatrix, c2: FormMatrix) -> FormMatrix:
    """Block-diagonal connection on the sum of the two bundles."""
    if c1.chart is not c2.chart:
        raise ValueError("chart mismatch in connection sum")
    _require_connection(c1)
    _require_connection(c2)
    top, bottom, numbers = c1._operands(c2)
    size = c1.size + c2.size
    out = [[{}] * size for _ in range(size)]
    for u, row in enumerate(top):
        out[u][:c1.size] = row
    for u, row in enumerate(bottom):
        out[c1.size + u][c1.size:] = row
    return c1._made(out, 1, numbers)


def bracket_connection(chart: AlgebroidChart) -> FormMatrix:
    """The connection nabla_{b_i} b_j = [b_i, b_j] on the algebroid itself."""
    return morphism_target_connection(Morphism.identity(chart))


def morphism_target_connection(phi: Morphism) -> FormMatrix:
    """Source-algebroid connection on the target bundle via [phi b_i, b'_u].

    omega_u^t(b_i) = sum_s phi_i^s c'_su^t - rho'(b'_u)(phi_i^t): the frame
    bracket terms by ascending s, then the anchor term.  The one
    bracket-induced builder; `bracket_connection` is its identity case.  On
    a jet source each row E = dx^h (x) b_i = j1(x^h b_i) - x^h j1(b_i) also
    carries the Leibniz term -rho'_u^h phi(j1 b_i), so that the connection
    along j1(x^h b_i) is [phi j1(x^h b_i), b'_u] like along every holonomic
    frame section.

    A constant target chart has no anchor term, and a constant morphism then
    gives constant sums: their floats are added in the same order, straight
    into the tables of a number matrix."""
    target = phi.target
    if target.constant and all(type(entry) is Const for row in phi.matrix for entry in row):
        rows = [[{} for _ in range(target.rank)] for _ in range(target.rank)]
        for i, row in enumerate(phi.matrix):
            for u in range(target.rank):
                values = [0.0] * target.rank
                for s, entry in enumerate(row):
                    if entry.value != 0.0:
                        for t, coeff in target.structure.get((s, u), {}).items():
                            values[t] += entry.value * coeff.value
                for t, value in enumerate(values):
                    if value != 0.0:
                        rows[u][t][(i,)] = value
        return FormMatrix.__new__(FormMatrix)._init(phi.source, rows, 1, True)
    columns = []
    for u in range(target.rank):
        column = []
        for row in phi.matrix:  # phi b_i = phi_i^s b'_s
            values = [ZERO] * target.rank
            for s, entry in enumerate(row):
                if entry.is_zero():
                    continue
                for t, coeff in target.structure.get((s, u), {}).items():
                    values[t] = add(values[t], mul(entry, coeff))
            column.append([sub(value, _frame_derivative(target, u, entry))
                           for value, entry in zip(values, row)])
        columns.append(column)
    if isinstance(phi.source, JetChart):
        for p, h, q in phi.source.cotangent_rows:
            for u, column in enumerate(columns):
                rho = target.anchor[u][h]
                if rho.is_zero():
                    continue
                column[p] = [sub(value, mul(rho, image))
                             for value, image in zip(column[p], phi.matrix[q])]
    return connection_from_coefficients(
        phi.source, target.rank, lambda i, u, t: columns[u][i][t]
    )


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


class QuasiMetric:
    """Possibly degenerate symmetric (sign +1) or skew (sign -1) 2-tensor."""

    __slots__ = ("rank", "sign", "matrix")

    def __init__(self, rank: int, sign: int, matrix: Sequence[Sequence[ScalarField]]):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 (symmetric) or -1 (skew)")
        if len(matrix) != rank or any(len(row) != rank for row in matrix):
            raise ValueError("metric matrix shape mismatch")
        self.rank = rank
        self.sign = sign
        self.matrix = tuple(tuple(row) for row in matrix)

    @classmethod
    def identity(cls, rank: int) -> "QuasiMetric":
        return cls(rank, 1, [[ONE if i == j else ZERO for j in range(rank)]
                             for i in range(rank)])

    def values(self, points) -> np.ndarray:
        """The matrix at each point, shape (N, rank, rank)."""
        flat = evaluate([e for row in self.matrix for e in row], points)
        return flat.T.reshape(len(points), self.rank, self.rank)

    def validate(self, points) -> None:
        """Raise ValueError at the first probe point where the matrix is not
        finite, not symmetric, or not positive definite."""
        g = self.values(points)
        point = first_point(~np.isfinite(g), points)
        if point is not None:
            raise ValueError(f"not finite at probe point {point}")
        with np.errstate(over="ignore"):  # an overflowed difference is not symmetric
            asymmetry = np.abs(g - np.swapaxes(g, 1, 2))
        point = first_point(asymmetry > 1e-9, points)
        if point is not None:
            raise ValueError(f"not symmetric at probe point {point}")
        point = first_point(np.linalg.eigvalsh(g)[:, 0] <= 1e-12, points)
        if point is not None:
            raise ValueError(f"not positive definite at probe point {point}")


def orthogonal_connection(chart: AlgebroidChart, g: QuasiMetric) -> FormMatrix:
    """Metric connection: zero matrix in the orthonormal frame G = L^-1.

    L is the Cholesky factor of g = L L^T, built symbolically row by row:
    L_ut = (g_ut - sum_{s<t} L_us L_ts) / L_tt, L_uu = sqrt(g_uu - sum_{s<u} L_us^2),
    and G by forward substitution, G_u = (e_u - sum_{t<u} L_ut G_t) / L_uu.  Then
    omega = -G^-1 dG = dL ^ G satisfies nabla g = 0.  `g` must be positive
    definite (`QuasiMetric.validate`); elsewhere L is not finite.
    """
    if g.sign != 1:
        raise ValueError("orthogonal connections need a symmetric metric")
    rank = g.rank
    factor: list[list[ScalarField]] = []  # factor[u][t] is L_u^t
    frame: list[list[ScalarField]] = []  # frame[u][t] is G_u^t
    for u in range(rank):
        row = [ZERO] * rank
        factor.append(row)
        for t in range(u + 1):
            acc = g.matrix[u][t]
            for s in range(t):
                acc = sub(acc, mul(row[s], factor[t][s]))
            row[t] = square_root(acc) if t == u else div(acc, factor[t][t])
        vec = [ONE if a == u else ZERO for a in range(rank)]
        for t in range(u):
            if not row[t].is_zero():
                vec = [sub(v, mul(row[t], w)) for v, w in zip(vec, frame[t])]
        frame.append([div(v, row[u]) for v in vec])
    return (FormMatrix.of_functions(chart, factor).d()
            .wedge(FormMatrix.of_functions(chart, frame)))


# --------------------------------------------------------------------------
# Quasi-metrics on A + A'* and the flatness checks they support
# --------------------------------------------------------------------------


def quasi_metric_on_S(phi: Morphism) -> tuple[QuasiMetric, QuasiMetric]:
    """The symmetric and skew pairings induced by a morphism on A + A'*.

    g((v1, nu1), (v2, nu2)) = <nu2, phi v1> +/- <nu1, phi v2>.
    """
    s, sp = phi.source.rank, phi.target.rank
    total = s + sp

    def build(sign: int) -> QuasiMetric:
        matrix = [[ZERO] * total for _ in range(total)]
        for i in range(s):
            for u in range(sp):
                entry = phi.matrix[i][u]
                if not entry.is_zero():
                    matrix[i][s + u] = entry
                    matrix[s + u][i] = entry if sign == 1 else mul(MINUS_ONE, entry)
        return QuasiMetric(total, sign, matrix)

    return build(1), build(-1)


def metric_compat_check(conn: FormMatrix, g: QuasiMetric) -> FormMatrix:
    """The residual matrix dG - omega ^ G - G ^ omega^T, G the 0-form matrix of g.

    On b_i its (a, b) entry is anchor(g(b_a, b_b)) - g(nabla b_a, b_b) -
    g(b_a, nabla b_b) with nabla_{b_i} b_a = omega_a^c(b_i) b_c.
    """
    G = FormMatrix.of_functions(conn.chart, g.matrix)
    return G.d() - conn.wedge(G) - G.wedge(conn.transpose())


def kernel_frame_on_S(phi: Morphism, ker_rows: Sequence[Sequence[ScalarField]],
                      coker_rows: Sequence[Sequence[ScalarField]]) -> list[list[ScalarField]]:
    """Embed kernel sections of phi and of its transpose into A + A'*."""
    s, sp = phi.source.rank, phi.target.rank
    vectors = []
    for row in ker_rows:
        if len(row) != s:
            raise ValueError("kernel rows must have source rank length")
        vectors.append(list(row) + [ZERO] * sp)
    for row in coker_rows:
        if len(row) != sp:
            raise ValueError("cokernel rows must have target rank length")
        vectors.append([ZERO] * s + list(row))
    return vectors


def k_flatness_check(curv: FormMatrix, vectors: Sequence[Sequence[ScalarField]],
                     points) -> float:
    """Largest entry of a curvature matrix applied to the annihilator frame
    `vectors` (`kernel_frame_on_S`), at the probe points; inf if any value is
    non-finite."""
    omega = curv.eval_on(list(combinations(range(curv.chart.rank), 2)), points)
    values = evaluate([c for vec in vectors for c in vec], points)
    values = values.T.reshape(len(points), len(vectors), curv.size)
    with np.errstate(all="ignore"):  # a non-finite value makes the residual inf
        return max_abs_finite(values @ omega)


def adapted_frame(g: QuasiMetric, kernel_vectors: Sequence[Sequence[ScalarField]],
                  probe_points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical constant frame (s_h | t_l) for a constant-coefficient quasi-metric.

    Returns (s_frame rows, canonical Gram of the s part, t_frame rows).  The
    complement of the kernel is orthonormal, the right singular vectors of the
    kernel rows past their count, from one SVD that also rejects dependent
    rows.  Where the kernel rows span g0's null space the complement spans
    g0's range, so the 1e-10 degeneracy test sees g0's own nonzero
    eigenvalues.  Both signs take one Hermitian eigendecomposition of the Gram
    matrix on the complement: of gram itself when g is symmetric, which gives
    an orthonormal frame with Gram diag(+/-1), and of i * gram when g is skew.
    There each eigenvalue lambda > 0 with eigenvector a + ib gives the pair
    sqrt(2 / lambda) (a, -b) with Gram [[0, 1], [-1, 0]], so the s-part Gram is
    the block skew form.  Raises if g is not constant over the probes.
    """
    r = g.rank
    metric = g.values(probe_points)
    g0 = metric[0]
    t_frame = evaluate([c for vec in kernel_vectors for c in vec],
                       probe_points[:1]).reshape(len(kernel_vectors), r)
    if not (np.isfinite(g0).all() and np.isfinite(t_frame).all()):
        raise ValueError("adapted frame: the metric or a kernel vector is not finite at "
                         f"probe point {tuple(float(v) for v in probe_points[0])}")
    with np.errstate(over="ignore"):  # an overflowed difference is not constant
        variation = max_abs_finite(metric - g0)
    if variation > 1e-10:
        raise ValueError("adapted frames are only computed for constant metrics")
    # More rows than r, or a singular value <= 1e-9: the rows are dependent.
    _, sigma, vt = np.linalg.svd(t_frame)
    if len(sigma) < len(t_frame) or sigma.min(initial=np.inf) <= 1e-9:
        raise ValueError("kernel vectors do not span the annihilator")
    complement = vt[len(t_frame):]
    q = len(complement)
    gram = complement @ g0 @ complement.T
    eigvals, eigvecs = np.linalg.eigh(gram if g.sign == 1 else 1j * gram)
    if np.abs(eigvals).min(initial=np.inf) < 1e-10 or g.sign == -1 and q % 2:
        raise ValueError("metric is degenerate beyond the supplied kernel")
    if g.sign == 1:
        order = np.argsort(-eigvals)
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        s_frame = (eigvecs / np.sqrt(np.abs(eigvals))).T @ complement
        canonical = np.diag(np.sign(eigvals))
    else:
        positive = eigvals > 0
        scaled = (eigvecs[:, positive] * np.sqrt(2 / eigvals[positive])).T
        rows = np.empty((q, q))
        rows[0::2], rows[1::2] = scaled.real, -scaled.imag
        s_frame = rows @ complement
        canonical = np.kron(np.eye(q // 2), [[0.0, 1.0], [-1.0, 0.0]])
    return s_frame, canonical, t_frame


def quasi_metric_frame_check(conn: FormMatrix, curv: FormMatrix, g: QuasiMetric,
                             adapted: tuple[np.ndarray, np.ndarray, np.ndarray],
                             points) -> dict[str, float]:
    """Pointwise residuals for a quasi-metric connection and its curvature
    `curv` in `adapted`, the `adapted_frame` of g and the kernel vectors.

    The worst value at the probe points of each block, by name: the kernel
    blocks, which vanish when derivatives of the kernel frame stay in the
    kernel, and the algebra defects, which vanish when the complement blocks
    of the connection and curvature matrices preserve the canonical Gram
    (orthogonal/symplectic valued).  A non-finite value counts as inf.
    """
    chart = conn.chart
    s_frame, canonical, t_frame = adapted
    frame = np.vstack([s_frame, t_frame])
    frame_inv = np.linalg.inv(frame)
    q = len(s_frame)

    def worst_blocks(matrix: FormMatrix, frames) -> tuple[float, float]:
        """Largest kernel-block entry and algebra defect in the adapted frame."""
        with np.errstate(all="ignore"):  # a non-finite value makes the residual inf
            adapted = frame @ matrix.eval_on(frames, points) @ frame_inv
            block = adapted[..., :q, :q]
            defect = block @ canonical + canonical @ np.swapaxes(block, -1, -2)
        return max_abs_finite(adapted[..., q:, :q]), max_abs_finite(defect)

    worst_kernel, worst_algebra = worst_blocks(
        conn, [(i,) for i in range(chart.rank)])
    worst_curv_kernel, worst_curv_algebra = worst_blocks(
        curv, list(combinations(range(chart.rank), 2)))
    label = "orthogonal" if g.sign == 1 else "symplectic"
    return {
        "adapted_frame_kernel_block": worst_kernel,
        f"adapted_frame_{label}_block": worst_algebra,
        "adapted_frame_curvature_kernel_block": worst_curv_kernel,
        f"adapted_frame_curvature_{label}_block": worst_curv_algebra,
    }
