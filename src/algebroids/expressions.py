"""Scalar coefficient functions as expression trees with exact differentiation.

A scalar field is an immutable expression tree over named base coordinates.
Node kinds: constant, coordinate, sum, difference, product, quotient, integer
power, sin, cos, exp (plus an internal square root used when orthonormalizing
metric frames).  Differentiation is symbolic and closed under these node
kinds, so identities downstream fail only through floating-point evaluation,
never through truncation.  No canonicalization is attempted beyond cheap
constant folding; equality of fields is always decided pointwise.

The algebra built on the folding constructors reuses subtrees, so a tree is
in fact a DAG: one node object can sit under many parents.  Numbers come out
of it by two routes.

* Probe points: `evaluate` (values) and `field_maxima`/`residual` (max |value|)
  share one numpy walk over an (N, dim) array of probe points.  Each
  distinct node (by identity) is computed once per call, released once its
  last parent has used it, and each root is reduced as soon as it is
  computed.  A NaN or infinite value, including one hidden by a later
  division, exponential or negative power, stays non-finite, so a maximum
  over it is inf and no check passes on it.  Every check goes this way,
  metric matrices and form matrices on frame tuples included;
  `max_abs_finite` applies the same rule to numeric arrays.
* Single-point values: `ScalarField.eval(point)` walks the tree with Python
  floats and `math`.  Only form dumps use it, so their printed digits do not
  depend on numpy's kernels (`np.exp` and integer powers can differ from
  `math.exp` and `**` in the last bit).  It is also the test oracle.

`subs` and `tau_degree` are walks over distinct nodes with a per-call memo as
well; `subs` returns a node unchanged when its children are.  Nodes define no
`__eq__` or `__hash__`, so the memos, keyed by node, key by identity.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class ExpressionError(ValueError):
    """Parse failure, with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScalarField:
    """Base class for expression nodes. Instances are immutable and pure."""

    __slots__ = ()

    def eval(self, point: Sequence[float]) -> float:
        raise NotImplementedError

    def diff(self, index: int) -> "ScalarField":
        """Exact partial derivative with respect to coordinate `index` (0-based)."""
        raise NotImplementedError

    def subs(self, index: int, value: float) -> "ScalarField":
        """Substitute a constant for coordinate `index`, folding constants."""
        return substitute(self, index, (value,))[0]

    def tau_degree(self, index: int) -> int | None:
        """Polynomial degree in coordinate `index`, or None if not polynomial."""
        return tau_degree(self, index)

    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0.0

    # Operator sugar builds through the folding constructors below.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, exponent: int):
        return power(self, exponent)

    def __neg__(self):
        return sub(Const(0.0), self)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _coerce(value) -> ScalarField:
    if isinstance(value, ScalarField):
        return value
    return Const(float(value))


class Const(ScalarField):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, point):
        return self.value

    def diff(self, index):
        return ZERO

    def __str__(self):
        return _format_number(self.value)


class Coord(ScalarField):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name

    def eval(self, point):
        return point[self.index]

    def diff(self, index):
        return ONE if index == self.index else ZERO

    def __str__(self):
        return self.name


class _Binary(ScalarField):
    __slots__ = ("left", "right")

    def __init__(self, left: ScalarField, right: ScalarField):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()

    def eval(self, point):
        return self.left.eval(point) + self.right.eval(point)

    def diff(self, index):
        return add(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} + {self.right}"


class Sub(_Binary):
    __slots__ = ()

    def eval(self, point):
        return self.left.eval(point) - self.right.eval(point)

    def diff(self, index):
        return sub(self.left.diff(index), self.right.diff(index))

    def __str__(self):
        return f"{self.left} - {_paren_additive(self.right)}"


class Mul(_Binary):
    __slots__ = ()

    def eval(self, point):
        return self.left.eval(point) * self.right.eval(point)

    def diff(self, index):
        return add(
            mul(self.left.diff(index), self.right),
            mul(self.left, self.right.diff(index)),
        )

    def __str__(self):
        return f"{_paren_additive(self.left)}*{_paren_additive(self.right)}"


class Div(_Binary):
    __slots__ = ()

    def eval(self, point):
        return self.left.eval(point) / self.right.eval(point)

    def diff(self, index):
        return div(
            sub(
                mul(self.left.diff(index), self.right),
                mul(self.left, self.right.diff(index)),
            ),
            mul(self.right, self.right),
        )

    def __str__(self):
        return f"{_paren_additive(self.left)}/{_paren_tight(self.right)}"


class Pow(ScalarField):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarField, exponent: int):
        self.base = base
        self.exponent = int(exponent)

    def eval(self, point):
        return self.base.eval(point) ** self.exponent

    def diff(self, index):
        n = self.exponent
        return mul(mul(Const(n), power(self.base, n - 1)), self.base.diff(index))

    def __str__(self):
        return f"{_paren_tight(self.base)}^{self.exponent}"


class _Unary(ScalarField):
    __slots__ = ("arg",)

    def __init__(self, arg: ScalarField):
        self.arg = arg

    def __str__(self):
        return f"{self._name}({self.arg})"


class Sin(_Unary):
    __slots__ = ()
    _name = "sin"

    def eval(self, point):
        return math.sin(self.arg.eval(point))

    def diff(self, index):
        return mul(Cos(self.arg), self.arg.diff(index))


class Cos(_Unary):
    __slots__ = ()
    _name = "cos"

    def eval(self, point):
        return math.cos(self.arg.eval(point))

    def diff(self, index):
        return sub(ZERO, mul(Sin(self.arg), self.arg.diff(index)))


class Exp(_Unary):
    __slots__ = ()
    _name = "exp"

    def eval(self, point):
        return math.exp(self.arg.eval(point))

    def diff(self, index):
        return mul(self, self.arg.diff(index))


class Sqrt(_Unary):
    """Internal node used by metric orthonormalization; not part of the grammar."""

    __slots__ = ()
    _name = "sqrt"

    def eval(self, point):
        return math.sqrt(self.arg.eval(point))

    def diff(self, index):
        return div(self.arg.diff(index), mul(Const(2.0), self))


ZERO = Const(0.0)
ONE = Const(1.0)


def add(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def sub(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if b.is_zero():
        return a
    return Sub(a, b)


def mul(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a.is_zero() or b.is_zero():
        return ZERO
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Mul(a, b)


def div(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if isinstance(a, Const) and b.value != 0.0:
            return Const(a.value / b.value)
    if a.is_zero():
        return ZERO
    return Div(a, b)


def power(base: ScalarField, exponent: int) -> ScalarField:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def sine(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return Const(math.sin(arg.value))
    return Sin(arg)


def cosine(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return Const(math.cos(arg.value))
    return Cos(arg)


def exponential(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return Const(math.exp(arg.value))
    return Exp(arg)


def square_root(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return Const(math.sqrt(arg.value))
    return Sqrt(arg)


def differentiate(field: ScalarField, index: int) -> ScalarField:
    """Exact partial derivative of `field` along coordinate `index` (0-based)."""
    return field.diff(index)


def balanced_sum(terms: Sequence[ScalarField]) -> ScalarField:
    """Sum many fields as a balanced tree, keeping evaluation depth logarithmic."""
    terms = [t for t in terms if not t.is_zero()]
    if not terms:
        return ZERO
    while len(terms) > 1:
        paired = [add(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            paired.append(terms[-1])
        terms = paired
    return terms[0]


# --------------------------------------------------------------------------
# Walks over distinct nodes: vectorized residuals, substitution, degrees
# --------------------------------------------------------------------------


def _children(node: ScalarField) -> tuple[ScalarField, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    if isinstance(node, _Unary):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _enter(node: ScalarField, pending: dict, order: list) -> None:
    """Register `node` and every unregistered node under it, children first.

    `pending[n]` counts the parent edges into n registered so far.  Recursion
    goes as deep as the tree, as `eval` does.
    """
    pending[node] = 0
    for kid in _children(node):
        if kid not in pending:
            _enter(kid, pending, order)
        pending[kid] += 1
    order.append(node)


def _schedule(roots: Iterable[ScalarField]) -> tuple[list[ScalarField], dict]:
    """Distinct nodes under `roots`, children first, and each one's parent-edge count."""
    pending: dict[ScalarField, int] = {}
    order: list[ScalarField] = []
    for root in roots:
        if root not in pending:
            _enter(root, pending, order)
    return order, pending


def _release(kids: tuple[ScalarField, ...], pending: dict, memo: dict) -> None:
    """Count one read of each kid; drop the memo entries no parent will read again."""
    for kid in kids:
        pending[kid] -= 1
        if not pending[kid]:
            del memo[kid]


_VECTOR_OPS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide,
               Sin: np.sin, Cos: np.cos, Exp: np.exp, Sqrt: np.sqrt}


def _nan_where_nonfinite(value, operand):
    """`value` with NaN wherever `operand` is not finite.

    Division by, the exponential of, and a non-positive power of an infinite
    operand can be finite (x/inf = 0, exp(-inf) = 0, inf^-1 = 0).  The scalar
    walk raises before it gets there, so the vectorized walk must not let the
    non-finite value disappear either.
    """
    finite = np.isfinite(operand)
    return value if finite.all() else np.where(finite, value, np.nan)


def _eval_node(node: ScalarField, values: dict, columns: np.ndarray):
    kind = type(node)
    if kind is Const:
        return np.float64(node.value)
    if kind is Coord:
        return columns[node.index]
    if kind is Pow:
        base = values[node.base]
        value = base ** node.exponent
        return value if node.exponent > 0 else _nan_where_nonfinite(value, base)
    op = _VECTOR_OPS[kind]
    if kind is Div:
        right = values[node.right]
        return _nan_where_nonfinite(op(values[node.left], right), right)
    if isinstance(node, _Binary):
        return op(values[node.left], values[node.right])
    arg = values[node.arg]
    return _nan_where_nonfinite(op(arg), arg) if kind is Exp else op(arg)


def max_abs_finite(values) -> float:
    """Largest magnitude in an array; inf if any entry is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not values.size:
        return 0.0
    worst = float(np.abs(values).max())
    return worst if math.isfinite(worst) else math.inf


def _walk(fields: list[ScalarField], points, reduce) -> list:
    """`reduce(values)` of each field on the points (an (N, dim) array or N tuples).

    Each root is reduced as soon as it is computed; each node's values are
    dropped once every parent has read them.
    """
    columns = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    order, pending = _schedule(fields)
    roots = set(fields)
    reduced: dict[ScalarField, object] = {}
    values: dict[ScalarField, object] = {}
    with np.errstate(all="ignore"):
        for node in order:
            value = _eval_node(node, values, columns)
            _release(_children(node), pending, values)
            if node in roots:
                reduced[node] = reduce(value)
            if pending[node]:
                values[node] = value
    return [reduced[field] for field in fields]


def evaluate(fields: Iterable[ScalarField], points) -> np.ndarray:
    """Values of each field at each point, shape (len(fields), N), non-finite ones kept."""
    fields, n = list(fields), len(points)
    rows = _walk(fields, points, lambda value: np.broadcast_to(value, (n,)))
    return np.array(rows).reshape(len(fields), n)


def field_maxima(fields: Iterable[ScalarField], points) -> list[float]:
    """max |field| over the points for each field; inf where a value is non-finite.

    Never holds a fields x N array: each field is reduced as the walk computes it.
    """
    fields = list(fields)
    if not len(points):
        return [0.0] * len(fields)
    return _walk(fields, points, max_abs_finite)


def residual(fields: Iterable[ScalarField], points) -> float:
    """Largest |value| of any field at any point; inf if any value is non-finite."""
    return max(field_maxima(fields, points), default=0.0)


_REBUILD = {Add: add, Sub: sub, Mul: mul, Div: div,
            Sin: sine, Cos: cosine, Exp: exponential, Sqrt: square_root}


def substitute(field: ScalarField, index: int,
               values: Sequence[float]) -> list[ScalarField]:
    """`field` with each of `values` in turn for coordinate `index`, folding constants.

    One walk serves every value.  A node without the coordinate is kept as it
    is; every other distinct node is rebuilt once per value through the
    folding constructors, so each result is the tree a node-by-node rebuild
    folds to, with shared subtrees kept shared.
    """
    order, pending = _schedule((field,))
    # node -> None where the coordinate does not occur, else one result per value
    memo: dict[ScalarField, list[ScalarField] | None] = {}
    for node in order:  # the last node is `field`
        kind = type(node)
        kids = _children(node)
        results = [memo[kid] for kid in kids]
        _release(kids, pending, memo)
        if kind is Coord and node.index == index:
            result = [Const(value) for value in values]
        elif all(r is None for r in results):
            result = None
        else:
            columns = [[kid] * len(values) if r is None else r
                       for kid, r in zip(kids, results)]
            if kind is Pow:
                result = [power(base, node.exponent) for base in columns[0]]
            else:
                result = [_REBUILD[kind](*args) for args in zip(*columns)]
        if pending[node]:
            memo[node] = result
    return result or [field] * len(values)


def tau_degree(field: ScalarField, index: int) -> int | None:
    """Polynomial degree of `field` in coordinate `index`, or None if not polynomial.

    Each distinct node is measured once.
    """
    return _degree(field, index, {})


def _degree(node: ScalarField, index: int, memo: dict) -> int | None:
    if node in memo:
        return memo[node]
    kind = type(node)
    if kind is Const:
        degree = 0
    elif kind is Coord:
        degree = 1 if node.index == index else 0
    elif kind is Pow:
        a = _degree(node.base, index, memo)
        if a is None:
            degree = None
        elif node.exponent >= 0:
            degree = a * node.exponent
        else:
            degree = None if a != 0 else 0
    elif isinstance(node, _Unary):
        degree = 0 if _degree(node.arg, index, memo) == 0 else None
    else:
        a = _degree(node.left, index, memo)
        b = _degree(node.right, index, memo)
        if a is None or b is None:
            degree = None
        elif kind is Mul:
            degree = a + b
        elif kind is Div:
            degree = a if b == 0 else None
        else:
            degree = max(a, b)
    memo[node] = degree
    return degree


def _format_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _paren_additive(node: ScalarField) -> str:
    if isinstance(node, (Add, Sub)):
        return f"({node})"
    return str(node)


def _paren_tight(node: ScalarField) -> str:
    if isinstance(node, (Add, Sub, Mul, Div, Pow)):
        return f"({node})"
    return str(node)


# --------------------------------------------------------------------------
# Parser for the coefficient grammar:
#   expr   := term { ("+" | "-") term }
#   term   := factor { ("*" | "/") factor }
#   factor := atom [ "^" integer ] | "-" factor
#   atom   := number | ident | "(" expr ")" | ("sin"|"cos"|"exp") "(" expr ")"
# --------------------------------------------------------------------------

_FUNCTIONS = {"sin": sine, "cos": cosine, "exp": exponential}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        saved = self.pos
        token = self.next()
        self.pos = saved
        return token

    def next(self) -> tuple[str, str, int]:
        self._skip_ws()
        start = self.pos
        if self.pos >= len(self.text):
            return ("end", "", start)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_dot = False
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] == "."):
                if self.text[j] == ".":
                    if seen_dot:
                        raise ExpressionError("malformed number", j)
                    seen_dot = True
                j += 1
            literal = self.text[self.pos:j]
            if literal == ".":
                raise ExpressionError("malformed number", start)
            self.pos = j
            return ("number", literal, start)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            name = self.text[self.pos:j]
            self.pos = j
            return ("ident", name, start)
        raise ExpressionError(f"unexpected character {ch!r}", start)


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.tokens = _Tokenizer(text)
        self.coords = {name: i for i, name in enumerate(coords)}

    def parse(self) -> ScalarField:
        node = self._expr()
        kind, value, pos = self.tokens.next()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {value!r}", pos)
        return node

    def _expr(self) -> ScalarField:
        node = self._term()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                rhs = self._term()
                node = add(node, rhs) if value == "+" else sub(node, rhs)
            else:
                return node

    def _term(self) -> ScalarField:
        node = self._factor()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "*/":
                self.tokens.next()
                rhs = self._factor()
                node = mul(node, rhs) if value == "*" else div(node, rhs)
            else:
                return node

    def _factor(self) -> ScalarField:
        kind, value, pos = self.tokens.peek()
        if kind == "op" and value == "-":
            self.tokens.next()
            return sub(ZERO, self._factor())
        node = self._atom()
        kind, value, pos = self.tokens.peek()
        if kind == "op" and value == "^":
            self.tokens.next()
            node = power(node, self._integer())
        return node

    def _integer(self) -> int:
        kind, value, pos = self.tokens.next()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.tokens.next()
        if kind != "number" or "." in value:
            raise ExpressionError("exponent must be an integer", pos)
        return sign * int(value)

    def _atom(self) -> ScalarField:
        kind, value, pos = self.tokens.next()
        if kind == "number":
            return Const(float(value))
        if kind == "ident":
            if value in _FUNCTIONS:
                kind2, value2, pos2 = self.tokens.next()
                if kind2 != "op" or value2 != "(":
                    raise ExpressionError(f"{value} must be followed by '('", pos2)
                inner = self._expr()
                self._expect_close()
                return _FUNCTIONS[value](inner)
            if value in self.coords:
                return Coord(self.coords[value], value)
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self._expr()
            self._expect_close()
            return inner
        raise ExpressionError(f"expected a value, found {value!r}", pos)

    def _expect_close(self):
        kind, value, pos = self.tokens.next()
        if kind != "op" or value != ")":
            raise ExpressionError("expected ')'", pos)


def parse_expression(text: str, coords: Sequence[str]) -> ScalarField:
    """Parse `text` against the coefficient grammar over the named coordinates."""
    return _Parser(text, coords).parse()
