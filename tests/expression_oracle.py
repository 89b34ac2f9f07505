"""Reference expression evaluation and differentiation, and the tree shape
that tests compare.

`scalar_eval` is the per-node-class recursive `eval` that
`algebroids.expressions` replaced with a numpy walk over distinct nodes; it
revisits a shared subtree at every use.  Tests require the walk to return the
same values, to the last bits numpy's kernels may change.

`recursive_diff` is the per-node-class recursive `diff` that
`ScalarField.diff` replaced with one children-first pass over distinct nodes,
rules unchanged; it re-derives a shared subtree at every use, so its cost is
exponential in the depth of the sharing.  Tests require the pass to build the
same trees (node kinds, constants and child order).

`recursive_schedule` is the recursive registration that `_schedule` replaced
with an explicit stack, and `recursive_str` the per-node-class `__str__` that
one children-first pass (`_str_node`) replaced.  Both recurse once per level
of depth.  Tests require the same node order and parent-edge counts, and the
same text.
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
    _format_number,
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


def tree_shape(field: ScalarField):
    """Node kinds, constants and child order of an expression tree."""
    if isinstance(field, Const):
        return ("Const", repr(field.value))
    if isinstance(field, Coord):
        return ("Coord", field.index)
    kids = tuple(
        tree_shape(value)
        for cls in type(field).__mro__
        for slot in getattr(cls, "__slots__", ())
        if isinstance(value := getattr(field, slot, None), ScalarField)
    )
    return (type(field).__name__, getattr(field, "exponent", None), kids)


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
