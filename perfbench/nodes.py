"""Walks over the program's expression trees, for sizes and counts."""

from __future__ import annotations

from deriv_audit.expr import Constant, Div, Func, Neg, Pow, Variable


def children(node) -> tuple:
    if isinstance(node, (Constant, Variable)):
        return ()
    if isinstance(node, (Neg, Func)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return (node.left, node.right)


def tree_nodes(e) -> list:
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children(node))
    return out


def node_count(e) -> int:
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(children(node))
    return n


def domain_nodes(fp) -> int:
    """Distinct denominators and sqrt/ln arguments of f': the subexpressions
    whose zeros the hole scan searches with a grid pass each."""
    found = {}
    for node in tree_nodes(fp):
        if isinstance(node, Div):
            found.setdefault(node.right)
        elif isinstance(node, Func) and node.name in ("sqrt", "ln"):
            found.setdefault(node.arg)
    return len(found)
