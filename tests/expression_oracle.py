"""Reference versions of expression evaluation, substitution and polynomial degree.

These are the per-node-class recursive methods `eval`, `subs` and
`tau_degree` that `algebroids.expressions` replaced with walks over distinct
nodes.  They revisit a shared subtree at every use.  Tests require the walks
to return the same values (to the last bits numpy's kernels may change), the
same folded trees and the same degrees.
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
    add,
    cosine,
    div,
    exponential,
    mul,
    power,
    sine,
    square_root,
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


def subs(node: ScalarField, index: int, value: float) -> ScalarField:
    """Substitute a constant for coordinate `index`, folding constants."""
    if isinstance(node, Const):
        return node
    if isinstance(node, Coord):
        return Const(value) if index == node.index else node
    if isinstance(node, Add):
        return add(subs(node.left, index, value), subs(node.right, index, value))
    if isinstance(node, Sub):
        return sub(subs(node.left, index, value), subs(node.right, index, value))
    if isinstance(node, Mul):
        return mul(subs(node.left, index, value), subs(node.right, index, value))
    if isinstance(node, Div):
        return div(subs(node.left, index, value), subs(node.right, index, value))
    if isinstance(node, Pow):
        return power(subs(node.base, index, value), node.exponent)
    if isinstance(node, Sin):
        return sine(subs(node.arg, index, value))
    if isinstance(node, Cos):
        return cosine(subs(node.arg, index, value))
    if isinstance(node, Exp):
        return exponential(subs(node.arg, index, value))
    if isinstance(node, Sqrt):
        return square_root(subs(node.arg, index, value))
    raise TypeError(f"unknown node {node!r}")


def _max_degree(a, b):
    if a is None or b is None:
        return None
    return max(a, b)


def tau_degree(node: ScalarField, index: int) -> int | None:
    """Polynomial degree in coordinate `index`, or None if not polynomial."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Coord):
        return 1 if index == node.index else 0
    if isinstance(node, (Add, Sub)):
        return _max_degree(tau_degree(node.left, index), tau_degree(node.right, index))
    if isinstance(node, Mul):
        a = tau_degree(node.left, index)
        b = tau_degree(node.right, index)
        if a is None or b is None:
            return None
        return a + b
    if isinstance(node, Div):
        a = tau_degree(node.left, index)
        b = tau_degree(node.right, index)
        if a is None or b != 0:
            return None
        return a
    if isinstance(node, Pow):
        a = tau_degree(node.base, index)
        if a is None:
            return None
        if node.exponent >= 0:
            return a * node.exponent
        return None if a != 0 else 0
    if isinstance(node, (Sin, Cos, Exp, Sqrt)):
        return 0 if tau_degree(node.arg, index) == 0 else None
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
