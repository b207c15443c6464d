"""Strongly connected components (SCCs) of a small directed graph, for
the simulator's stage planning in :mod:`fmlab.netcore`.

A graph maps each node to the nodes it has an edge to; entries that are
not keys are not nodes and are skipped.  Nodes are sortable (net ids).

This lives apart from ``netcore``, the package's largest module: CPython
compiles a module from source into one token buffer, which doubles (about
0.5 MB more at peak) once the module passes 8192 tokens.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Mapping, Sequence


def components(succ: Mapping[Hashable, Sequence[Hashable]]) -> list[list]:
    """The SCCs of graph ``succ`` by Tarjan's depth-first walk (1972),
    without recursion; each SCC comes after every SCC it reaches."""
    placed = len(succ) + 1  # the order of a node once its SCC is out
    order = dict.fromkeys(succ, 0)  # 1 + the visit count, 0 unvisited
    low, stack, sccs, count = {}, [], [], 0
    for root in succ:
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path, rests = [root], [iter(succ[root])]  # the walk's nodes, each with its edges left
        while path:
            v = path[-1]
            for w in rests[-1]:
                seen = order.get(w)
                if seen is None:  # not a node
                    continue
                if not seen:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    path.append(w)
                    rests.append(iter(succ[w]))
                    break
                if seen < low[v]:  # w is on the stack
                    low[v] = seen
            else:
                path.pop()
                rests.pop()
                if low[v] < order[v]:
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                else:
                    at = stack.index(v)
                    scc = stack[at:]
                    del stack[at:]
                    for w in scc:
                        order[w] = placed
                    sccs.append(scc)
    return sccs


def cut(sccs: list[list], succ: Mapping[Hashable, Sequence[Hashable]]) -> list[list]:
    """The nodes of ``sccs``, SCCs of graph ``succ`` that reach no node
    outside them, as one sorted part, or cut at the largest SCC if it is
    larger than every other: the SCCs it reaches, then itself, then the
    rest, each part sorted and left out when empty.  No part has an edge
    to a later one."""
    big = max(sccs, key=len)
    if sum(len(scc) == len(big) for scc in sccs) > 1:
        return [sorted(chain.from_iterable(sccs))]
    reached, todo = set(big), list(big)
    while todo:
        for w in succ[todo.pop()]:
            if w not in reached and w in succ:
                reached.add(w)
                todo.append(w)
    rest = [v for scc in sccs if scc[0] not in reached for v in scc]
    return [part for part in (sorted(reached.difference(big)), sorted(big), sorted(rest)) if part]
