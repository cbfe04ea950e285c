"""A minimal reverse-mode tape over numpy arrays.

A Var is a value, its parents and a vector-Jacobian callback that maps the
gradient of the Var to those of its parents, each of its parent's shape.
The pose loss is one such node: its callback is the loss's closed-form
reverse (see `losses` and `poseopt.loss_and_grad`), and `backward` runs it.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node in the tape: a value plus a vector-Jacobian callback."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    def backward(self, seed=None):
        """Accumulate gradients of this (scalar) node into the tape."""
        order = _topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value) if seed is None else np.asarray(seed, dtype=np.float64)
        for node in order:
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
        return self.grad


def _topo_order(root):
    """Reverse topological order, iterative (graphs can be deep)."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order
