"""Scalar coefficient functions as expression trees with exact differentiation.

A scalar field is an immutable expression tree over named base coordinates.
Node kinds: constant, coordinate, sum, difference, product, quotient, integer
power, sin, cos, exp and sqrt (the square root that orthonormalizing metric
frames builds).  Differentiation is symbolic and closed under these node
kinds, so identities downstream fail only through floating-point evaluation,
never through truncation.  The constructors fold constants and three sign
patterns, nothing more; equality of fields is always decided pointwise.  A
fold whose value is +0.0 returns the one shared `ZERO` node, so the zeros
that a Jacobiator or a cancelling sum folds to are a single node to every
walk; -0.0 and every other value get a `Const` of their own.  The -1 sign
factors that the form, chart and connection layers build are likewise the
one shared `MINUS_ONE` node (and a +1 factor is `ONE`).  The sign rules
come after every constant fold, and each keeps every value to the bit,
because IEEE 754 negation is exact and its rounding is symmetric in sign:

- `mul` of a constant c and Mul(Const(d), y), either factor on either side,
  is Mul(Const(c*d), y) when c or d is +-1, and y itself when c*d is 1:
  with c = +-1, c*(d*y) and (c*d)*y are both the rounded d*y with the sign
  of c, and likewise with d = +-1;
- `add(a, Mul(Const(-1), x))`, either way round, is Sub(a, x): IEEE 754
  defines a - x as a + (-x);
- `sub(a, Mul(Const(-1), x))` is Add(a, x), since -(-x) is x.

The algebra built on the folding constructors reuses subtrees, so a tree is
in fact a DAG: one node object can sit under many parents.  Evaluation,
differentiation and printing are each one children-first walk (`_schedule`,
on its own stack, so a tree of any depth is walked) over its distinct nodes
(by identity), with each node kind's rules side by side in `_eval_node`,
`_diff_node` and `_str_node`, so `diff` costs time linear in the DAG, not
the tree; printed text is still the tree's, in the grammar the parser reads.
Numbers come out by one route: `evaluate` (values) and
`field_maxima`/`residual` (max |value|) share one numpy walk over an
(N, dim) array of probe points, which drops each node's values once its last
parent has read them and reduces each root as soon as it is computed.  A NaN
or infinite value, including one hidden by a later division, exponential or
negative power, stays non-finite, so a maximum over it is inf and no check
passes on it.  Every check and every form dump goes this way, metric
matrices and form matrices on frame tuples included; `max_abs_finite`
applies the same rule to numeric arrays.  The recursive walks are kept only
as test oracles in `tests/expression_oracle.py`: `scalar_eval` (one point,
Python floats and `math`), `recursive_diff`, `recursive_schedule` and
`recursive_str`.  The parser recurses once per parenthesis, so it rejects
nesting past `MAX_NESTING` with a located `ExpressionError`.

An empty point set is an error, never a maximum of 0.0.  Nodes define no
`__eq__` or `__hash__`, so the walks' memos, keyed by node, key by identity.
"""

from __future__ import annotations

import math
import re
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

    def diff(self, index: int) -> "ScalarField":
        """Exact partial derivative with respect to coordinate `index` (0-based).

        A shared subtree is differentiated once, however many parents it has.
        """
        order, _ = _schedule((self,))
        partials: dict[ScalarField, ScalarField] = {}
        for node in order:
            partials[node] = _diff_node(node, index, partials)
        return partials[self]

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
        return sub(ZERO, self)

    def __str__(self):
        """Text that re-parses to this value, up to the rounding of a sum or a
        product that re-associates (`a + (b - c)` prints as `a + b - c`, and
        `a*(b/c)` as `a*b/c`)."""
        order, pending = _schedule((self,))
        strings: dict[ScalarField, str] = {}
        for node in order:
            strings[node] = _str_node(node, strings)
            _release(_children(node), pending, strings)
        return strings[self]

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


class Coord(ScalarField):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name


class _Binary(ScalarField):
    __slots__ = ("left", "right")

    def __init__(self, left: ScalarField, right: ScalarField):
        self.left = left
        self.right = right


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(ScalarField):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarField, exponent: int):
        self.base = base
        self.exponent = int(exponent)


class _Unary(ScalarField):
    __slots__ = ("arg",)

    def __init__(self, arg: ScalarField):
        self.arg = arg


class Sin(_Unary):
    __slots__ = ()
    _name = "sin"


class Cos(_Unary):
    __slots__ = ()
    _name = "cos"


class Exp(_Unary):
    __slots__ = ()
    _name = "exp"


class Sqrt(_Unary):
    __slots__ = ()
    _name = "sqrt"


ZERO = Const(0.0)
ONE = Const(1.0)
MINUS_ONE = Const(-1.0)


def _folded(value: float) -> Const:
    """A folded constant: the shared `ZERO` for +0.0, a new `Const` otherwise.

    -0.0 keeps its own node, so folding never changes a value's bits.
    """
    if value == 0.0 and math.copysign(1.0, value) > 0.0:
        return ZERO
    return Const(value)


def add(a: ScalarField, b: ScalarField) -> ScalarField:
    a_const, b_const = type(a) is Const, type(b) is Const
    if a_const and b_const:
        return _folded(a.value + b.value)
    if a_const and a.value == 0.0:
        return b
    if b_const and b.value == 0.0:
        return a
    if _is_negation(b):
        return Sub(a, b.right)
    if _is_negation(a):
        return Sub(b, a.right)
    return Add(a, b)


def sub(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded(a.value - b.value)
    if b.is_zero():
        return a
    if _is_negation(b):
        return Add(a, b.right)
    return Sub(a, b)


def mul(a: ScalarField, b: ScalarField) -> ScalarField:
    a_const, b_const = type(a) is Const, type(b) is Const
    if a_const and b_const:
        return _folded(a.value * b.value)
    if a_const or b_const:
        value, other = (a.value, b) if a_const else (b.value, a)
        if value == 0.0:
            return ZERO
        if value == 1.0:
            return other
        if type(other) is Mul:
            inner, rest = ((other.left, other.right) if type(other.left) is Const
                           else (other.right, other.left))
            if type(inner) is Const and (abs(value) == 1.0 or abs(inner.value) == 1.0):
                product = value * inner.value
                return rest if product == 1.0 else Mul(_folded(product), rest)
    return Mul(a, b)


def _is_negation(node: ScalarField) -> bool:
    """Whether `node` is Mul(Const(-1), x), which `add` and `sub` fold into their sign."""
    return type(node) is Mul and type(node.left) is Const and node.left.value == -1.0


def div(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if isinstance(a, Const) and b.value != 0.0:
            return _folded(a.value / b.value)
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
        return _folded(base.value ** exponent)
    return Pow(base, exponent)


def sine(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return _folded(math.sin(arg.value))
    return Sin(arg)


def cosine(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return _folded(math.cos(arg.value))
    return Cos(arg)


def exponential(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return _folded(math.exp(arg.value))
    return Exp(arg)


def square_root(arg: ScalarField) -> ScalarField:
    if isinstance(arg, Const):
        return _folded(math.sqrt(arg.value))
    return Sqrt(arg)


def balanced_sum(terms: Sequence[ScalarField]) -> ScalarField:
    """Sum many fields as a balanced tree, keeping evaluation depth logarithmic."""
    if len(terms) == 1:
        return ZERO if terms[0].is_zero() else terms[0]
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
# Walks over distinct nodes: derivatives, vectorized values and residuals
# --------------------------------------------------------------------------


def _children(node: ScalarField) -> tuple[ScalarField, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    if isinstance(node, _Unary):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _schedule(roots: Iterable[ScalarField]) -> tuple[list[ScalarField], dict]:
    """Distinct nodes under `roots`, children first, and each one's parent-edge count.

    Depth first on an explicit stack of (node, unread children), so a tree
    of any depth is walked without recursion.
    """
    pending: dict[ScalarField, int] = {}
    order: list[ScalarField] = []
    for root in roots:
        if root in pending:
            continue
        pending[root] = 0
        stack = [(root, iter(_children(root)))]
        while stack:
            node, kids = stack[-1]
            for kid in kids:
                if kid in pending:
                    pending[kid] += 1
                else:
                    pending[kid] = 1
                    stack.append((kid, iter(_children(kid))))
                    break
            else:
                stack.pop()
                order.append(node)
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
    operand can be finite (x/inf = 0, exp(-inf) = 0, inf^-1 = 0).  Python
    float arithmetic raises before it gets there, so the walk must not let
    the non-finite value disappear either.
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


def _diff_node(node: ScalarField, index: int, partials: dict) -> ScalarField:
    """d(node)/dx^index from the children's derivatives in `partials`."""
    kind = type(node)
    if kind is Const:
        return ZERO
    if kind is Coord:
        return ONE if index == node.index else ZERO
    if kind is Pow:
        n = node.exponent
        return mul(mul(Const(n), power(node.base, n - 1)), partials[node.base])
    if isinstance(node, _Binary):
        left, right = node.left, node.right
        d_left, d_right = partials[left], partials[right]
        if kind is Add:
            return add(d_left, d_right)
        if kind is Sub:
            return sub(d_left, d_right)
        if kind is Mul:
            return add(mul(d_left, right), mul(left, d_right))
        return div(sub(mul(d_left, right), mul(left, d_right)), mul(right, right))
    d_arg = partials[node.arg]
    if kind is Sin:
        return mul(Cos(node.arg), d_arg)
    if kind is Cos:
        return sub(ZERO, mul(Sin(node.arg), d_arg))
    if kind is Exp:
        return mul(node, d_arg)
    return div(d_arg, mul(Const(2.0), node))  # Sqrt


_ADDITIVE = (Add, Sub)
_TIGHT = (Add, Sub, Mul, Div, Pow)


def _str_node(node: ScalarField, strings: dict) -> str:
    """The text of `node` from its children's texts; a child's kind alone
    decides its parentheses."""
    kind = type(node)
    if kind is Const:
        return _format_number(node.value)
    if kind is Coord:
        return node.name
    if kind is Pow:
        return f"{_paren(node.base, _TIGHT, strings)}^{node.exponent}"
    if isinstance(node, _Unary):
        return f"{node._name}({strings[node.arg]})"
    left, right = node.left, node.right
    if kind is Add:
        return f"{strings[left]} + {strings[right]}"
    if kind is Sub:
        return f"{strings[left]} - {_paren(right, _ADDITIVE, strings)}"
    if kind is Mul:
        return f"{_paren(left, _ADDITIVE, strings)}*{_paren(right, _ADDITIVE, strings)}"
    return f"{_paren(left, _ADDITIVE, strings)}/{_paren(right, _TIGHT, strings)}"


def _paren(kid: ScalarField, kinds: tuple, strings: dict) -> str:
    text = strings[kid]
    return f"({text})" if isinstance(kid, kinds) else text


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
    dropped once every parent has read them.  No points is an error, never an
    empty maximum: a check with nothing to probe must not pass.
    """
    if not len(points):
        raise ValueError("no probe points to evaluate on")
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
    return _walk(list(fields), points, max_abs_finite)


def residual(values: Iterable, points) -> float:
    """Largest |value| at any point of any field or number; inf if any value is
    non-finite.  A number is a float, constant over the points, or an (N,)
    array of values at the N points.  The fields are reduced in one walk and
    the numbers together, so no number is boxed into a tree.
    """
    if not len(points):
        raise ValueError("no probe points to evaluate on")
    fields, numbers = [], []
    for value in values:
        (fields if isinstance(value, ScalarField) else numbers).append(value)
    worst = max(field_maxima(fields, points)) if fields else 0.0
    return max(worst, max_abs_finite(np.hstack(numbers)) if numbers else 0.0)


def _format_number(value: float) -> str:
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# --------------------------------------------------------------------------
# Parser for the coefficient grammar:
#   expr   := term { ("+" | "-") term }
#   term   := factor { ("*" | "/") factor }
#   factor := atom [ "^" integer ] | "-" factor
#   atom   := number | ident | "(" expr ")"
#           | ("sin"|"cos"|"exp"|"sqrt") "(" expr ")"
#   number := digits with an optional point and exponent, as `repr` prints
#             a float: 2, 0.3, 1e+16, 1.1564823173178719e-17
# Parentheses, a function call's included, nest at most MAX_NESTING deep.
# --------------------------------------------------------------------------

_FUNCTIONS = {"sin": sine, "cos": cosine, "exp": exponential, "sqrt": square_root}
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(\.)?")
MAX_NESTING = 150  # five parser frames a level stay well inside Python's stack


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
            match = _NUMBER.match(self.text, start)
            if match is None or match.group(1):  # "." alone, or a second point
                raise ExpressionError("malformed number", match.start(1) if match else start)
            literal = match.group()
            if not math.isfinite(float(literal)):
                raise ExpressionError("number out of range", start)
            self.pos = match.end()
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
        self.depth = 0

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
        signs = 0  # "-" factor, read as a loop so that no run of signs recurses
        while self.tokens.peek()[:2] == ("op", "-"):
            self.tokens.next()
            signs += 1
        node = self._atom()
        if self.tokens.peek()[:2] == ("op", "^"):
            self.tokens.next()
            node = power(node, self._integer())
        for _ in range(signs):
            node = sub(ZERO, node)
        return node

    def _integer(self) -> int:
        kind, value, pos = self.tokens.next()
        sign = 1
        if kind == "op" and value == "-":
            sign = -1
            kind, value, pos = self.tokens.next()
        if kind != "number" or not value.isdigit():
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
                return _FUNCTIONS[value](self._group(pos2))
            if value in self.coords:
                return Coord(self.coords[value], value)
            raise ExpressionError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            return self._group(pos)
        raise ExpressionError(f"expected a value, found {value!r}", pos)

    def _group(self, pos: int) -> ScalarField:
        """The `expr ")"` after the "(" at `pos`: one level deeper, at most MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ExpressionError(f"parentheses nest deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self._expr()
        self._expect_close()
        self.depth -= 1
        return inner

    def _expect_close(self):
        kind, value, pos = self.tokens.next()
        if kind != "op" or value != ")":
            raise ExpressionError("expected ')'", pos)


def parse_expression(text: str, coords: Sequence[str]) -> ScalarField:
    """Parse `text` against the coefficient grammar over the named coordinates."""
    return _Parser(text, coords).parse()
