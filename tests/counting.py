"""One counting helper for the count pins: what a run calls, builds and walks.

`counting` wraps, for the rest of a test, the calls of the functions it is
given, `Const.__init__` and `expressions.field_maxima`, the walk of every
residual, and returns the one `Counter` they all add to.  `rebind` binds a
replacement in every `algebroids` module that imported the original, so a
wrapper sees the calls made through any module's name.
"""

import sys
from collections import Counter

from algebroids import expressions


def rebind(monkeypatch, home, name: str, replacement) -> None:
    """Bind `replacement` for `home.name` in every `algebroids` module that binds it."""
    original = getattr(home, name)
    for key, module in list(sys.modules.items()):
        if ((key == "algebroids" or key.startswith("algebroids."))
                and vars(module).get(name) is original):
            monkeypatch.setattr(module, name, replacement)


def counting(monkeypatch, *targets) -> Counter:
    """Counts of everything that runs after this call, by key:

    - each (module, function) of `targets`: its calls, by function name;
    - "Const": the `Const` nodes built;
    - "walked": the distinct nodes of every `field_maxima` walk, summed;
    - "walked_trees": those of them that are not a `Const`.
    """
    counts = Counter()
    for home, name in targets:
        def counted(*args, _name=name, _original=getattr(home, name)):
            counts[_name] += 1
            return _original(*args)

        rebind(monkeypatch, home, name, counted)
    init = expressions.Const.__init__

    def built(self, value):
        counts["Const"] += 1
        init(self, value)

    monkeypatch.setattr(expressions.Const, "__init__", built)
    maxima = expressions.field_maxima

    def walked(fields, points):
        fields = list(fields)
        order = expressions._schedule(fields)[0]
        counts["walked"] += len(order)
        counts["walked_trees"] += sum(type(node) is not expressions.Const for node in order)
        return maxima(fields, points)

    rebind(monkeypatch, expressions, "field_maxima", walked)
    return counts
