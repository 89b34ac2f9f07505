"""Reference expression walks, and the tree comparison that tests use.

- `scalar_eval` guards `expressions.evaluate`, `field_maxima` and `residual`.
  It is the per-node-class recursive `eval` that the numpy walk over
  distinct nodes replaced, and revisits a shared subtree at every use.  Tests
  require the walk to return the same values, to the last bits numpy's
  kernels may change; many tests also read single values with it.
- `recursive_diff` guards `ScalarField.diff`.  It is the per-node-class
  recursive `diff` that one children-first pass over distinct nodes
  replaced, rules unchanged; it re-derives a shared subtree at every use, so
  its cost is exponential in the depth of the sharing.  Tests require the
  pass to build the same trees.
- `recursive_schedule` guards `expressions._schedule`, the registration that
  an explicit stack replaced, and `recursive_str` (with `_paren_additive`
  and `_paren_tight`) guards `ScalarField.__str__`, the per-node-class text
  that one children-first pass replaced.  Both recurse once per level of
  depth.  Tests require the same node order and parent-edge counts, and the
  same text.
- `plain_add`, `plain_sub` and `plain_mul` guard `expressions.add`, `sub`
  and `mul`.  They are those constructors before the sign rules, which fold
  a factor of +-1 into a neighbouring constant factor and Mul(Const(-1), x)
  into the sign of a sum or difference.  Tests require a tree built through
  either set to evaluate to the same bits, NaN for NaN, at every point.
- `same_tree` is how tests compare the trees of two routes (node kinds,
  constants, coordinates, exponents and child order, so also the text), in
  time linear in the distinct nodes.
"""

from __future__ import annotations

import math

from algebroids.expressions import (
    Add,
    Const,
    Coord,
    Cos,
    Div,
    Exp,
    Mul,
    Pow,
    ScalarField,
    Sin,
    Sqrt,
    Sub,
    ONE,
    ZERO,
    _children,
    _folded,
    _format_number,
    _schedule,
    add,
    div,
    mul,
    power,
    sub,
)


def scalar_eval(node: ScalarField, point) -> float:
    """Value at one point with Python floats and `math`.

    Raises where they do: OverflowError, ZeroDivisionError, a domain error.
    """
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Coord):
        return point[node.index]
    if isinstance(node, Add):
        return scalar_eval(node.left, point) + scalar_eval(node.right, point)
    if isinstance(node, Sub):
        return scalar_eval(node.left, point) - scalar_eval(node.right, point)
    if isinstance(node, Mul):
        return scalar_eval(node.left, point) * scalar_eval(node.right, point)
    if isinstance(node, Div):
        return scalar_eval(node.left, point) / scalar_eval(node.right, point)
    if isinstance(node, Pow):
        return scalar_eval(node.base, point) ** node.exponent
    if isinstance(node, Sin):
        return math.sin(scalar_eval(node.arg, point))
    if isinstance(node, Cos):
        return math.cos(scalar_eval(node.arg, point))
    if isinstance(node, Exp):
        return math.exp(scalar_eval(node.arg, point))
    if isinstance(node, Sqrt):
        return math.sqrt(scalar_eval(node.arg, point))
    raise TypeError(f"unknown node {node!r}")


def recursive_diff(node: ScalarField, index: int) -> ScalarField:
    """Exact partial derivative along coordinate `index`, by recursion over the tree."""
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Coord):
        return ONE if index == node.index else ZERO
    if isinstance(node, Add):
        return add(recursive_diff(node.left, index), recursive_diff(node.right, index))
    if isinstance(node, Sub):
        return sub(recursive_diff(node.left, index), recursive_diff(node.right, index))
    if isinstance(node, Mul):
        return add(
            mul(recursive_diff(node.left, index), node.right),
            mul(node.left, recursive_diff(node.right, index)),
        )
    if isinstance(node, Div):
        return div(
            sub(
                mul(recursive_diff(node.left, index), node.right),
                mul(node.left, recursive_diff(node.right, index)),
            ),
            mul(node.right, node.right),
        )
    if isinstance(node, Pow):
        n = node.exponent
        return mul(mul(Const(n), power(node.base, n - 1)), recursive_diff(node.base, index))
    if isinstance(node, Sin):
        return mul(Cos(node.arg), recursive_diff(node.arg, index))
    if isinstance(node, Cos):
        return sub(ZERO, mul(Sin(node.arg), recursive_diff(node.arg, index)))
    if isinstance(node, Exp):
        return mul(node, recursive_diff(node.arg, index))
    if isinstance(node, Sqrt):
        return div(recursive_diff(node.arg, index), mul(Const(2.0), node))
    raise TypeError(f"unknown node {node!r}")


def plain_add(a: ScalarField, b: ScalarField) -> ScalarField:
    a_const, b_const = type(a) is Const, type(b) is Const
    if a_const and b_const:
        return _folded(a.value + b.value)
    if a_const and a.value == 0.0:
        return b
    if b_const and b.value == 0.0:
        return a
    return Add(a, b)


def plain_sub(a: ScalarField, b: ScalarField) -> ScalarField:
    if isinstance(a, Const) and isinstance(b, Const):
        return _folded(a.value - b.value)
    if b.is_zero():
        return a
    return Sub(a, b)


def plain_mul(a: ScalarField, b: ScalarField) -> ScalarField:
    a_const, b_const = type(a) is Const, type(b) is Const
    if a_const and b_const:
        return _folded(a.value * b.value)
    if a_const or b_const:
        value = a.value if a_const else b.value
        if value == 0.0:
            return ZERO
        if value == 1.0:
            return b if a_const else a
    return Mul(a, b)


def same_tree(a: ScalarField, b: ScalarField) -> bool:
    """Whether `a` and `b` have the same tree: node kinds, constants (by
    `repr`), coordinates (index and name), exponents and child order, hence
    also the same text.

    Each distinct node is numbered by its shape, with its children's numbers
    in place of the children, so the cost is linear in the distinct nodes,
    not in the size of the trees they expand to.
    """
    numbers: dict[ScalarField, int] = {}
    shapes: dict[tuple, int] = {}
    for node in _schedule((a, b))[0]:
        if isinstance(node, Const):
            shape = ("Const", repr(node.value))
        elif isinstance(node, Coord):
            shape = ("Coord", node.index, node.name)
        else:
            shape = (type(node).__name__, getattr(node, "exponent", None),
                     *(numbers[kid] for kid in _children(node)))
        numbers[node] = shapes.setdefault(shape, len(shapes))
    return numbers[a] == numbers[b]


def recursive_schedule(roots) -> tuple[list[ScalarField], dict]:
    """Distinct nodes under `roots`, children first, and each one's parent-edge count."""
    pending: dict[ScalarField, int] = {}
    order: list[ScalarField] = []

    def enter(node: ScalarField) -> None:
        pending[node] = 0
        for kid in _children(node):
            if kid not in pending:
                enter(kid)
            pending[kid] += 1
        order.append(node)

    for root in roots:
        if root not in pending:
            enter(root)
    return order, pending


def _paren_additive(node: ScalarField) -> str:
    if isinstance(node, (Add, Sub)):
        return f"({recursive_str(node)})"
    return recursive_str(node)


def _paren_tight(node: ScalarField) -> str:
    if isinstance(node, (Add, Sub, Mul, Div, Pow)):
        return f"({recursive_str(node)})"
    return recursive_str(node)


def recursive_str(node: ScalarField) -> str:
    """The text of an expression, by recursion over the tree."""
    if isinstance(node, Const):
        return _format_number(node.value)
    if isinstance(node, Coord):
        return node.name
    if isinstance(node, Add):
        return f"{recursive_str(node.left)} + {recursive_str(node.right)}"
    if isinstance(node, Sub):
        return f"{recursive_str(node.left)} - {_paren_additive(node.right)}"
    if isinstance(node, Mul):
        return f"{_paren_additive(node.left)}*{_paren_additive(node.right)}"
    if isinstance(node, Div):
        return f"{_paren_additive(node.left)}/{_paren_tight(node.right)}"
    if isinstance(node, Pow):
        return f"{_paren_tight(node.base)}^{node.exponent}"
    for kind, name in ((Sin, "sin"), (Cos, "cos"), (Exp, "exp"), (Sqrt, "sqrt")):
        if isinstance(node, kind):
            return f"{name}({recursive_str(node.arg)})"
    raise TypeError(f"unknown node {node!r}")
