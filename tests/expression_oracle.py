"""Reference expression evaluation, and the tree shape that tests compare.

`scalar_eval` is the per-node-class recursive `eval` that
`algebroids.expressions` replaced with a numpy walk over distinct nodes; it
revisits a shared subtree at every use.  Tests require the walk to return the
same values, to the last bits numpy's kernels may change.
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
