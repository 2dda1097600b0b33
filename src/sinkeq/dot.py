"""DOT export of state graphs; output ordering is stable."""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain

from .dynamics import Closure, bitset_codes
from .profiles import ProfileCodec


def _write(vertices: list[tuple[int, list[int]]], in_sink: set[int], codec: ProfileCodec) -> str:
    """The one writer, of ``(code, successor codes)`` pairs ascending by
    code. Vertices are labeled by code, and sink members get a double
    circle. Edges are labeled by the mover: the player with the largest
    place weight not above the difference of the two codes."""
    lines = ["digraph state_graph {"]
    for code, _ in vertices:
        shape = ' shape=doublecircle' if code in in_sink else ""
        lines.append(f'  n{code} [label="{code}"{shape}];')
    for source, targets in vertices:
        for target in targets:
            mover = bisect_right(codec.place_weights, abs(target - source)) - 1
            lines.append(f'  n{source} -> n{target} [label="{mover}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(closure: Closure, codec: ProfileCodec) -> str:
    """A forward closure's profiles, its recorded edges and its sinks."""
    codes = list(map(codec.encode, closure.states))
    in_sink = {codes[closure.index[v]] for sink in closure.sinks for v in sink}
    return _write(sorted(zip(codes, ([codes[j] for j in out] for out in closure.successors))),
                  in_sink, codec)


def export_space_dot(unions: list[tuple[int, int]], sinks: list[list[int]],
                     codec: ProfileCodec) -> str:
    """The whole state graph from ``dynamics.space_sinks``: each code's
    edges in the unions' (player, step) order, which is canonical order."""
    successors: list[list[int]] = [[] for _ in range(codec.num_profiles)]
    for shift, union in unions:
        for code in bitset_codes(union):
            successors[code].append(code + shift)
    return _write(list(enumerate(successors)), set(chain.from_iterable(sinks)), codec)
