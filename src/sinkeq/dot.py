"""DOT export of explored state graphs; output ordering is stable."""

from __future__ import annotations

from bisect import bisect_right

from .dynamics import Closure
from .profiles import ProfileCodec


def export_dot(closure: Closure, codec: ProfileCodec) -> str:
    """Render a closure's states and its recorded edges.

    Vertices are labeled by profile code (a forward closure's profiles are
    encoded once), edges by the mover: the player with the largest place
    weight not above the difference of the two codes. Sink members get a
    double circle.
    """
    states = closure.states
    codes = states if isinstance(states[0], int) else list(map(codec.encode, states))
    in_sink = {v for comp in closure.sinks for v in comp}
    order = sorted(range(len(states)), key=codes.__getitem__)
    lines = ["digraph state_graph {"]
    for k in order:
        shape = ' shape=doublecircle' if states[k] in in_sink else ""
        lines.append(f'  n{codes[k]} [label="{codes[k]}"{shape}];')
    for k in order:
        source = codes[k]
        for j in closure.successors[k]:
            mover = bisect_right(codec.place_weights, abs(codes[j] - source)) - 1
            lines.append(f'  n{source} -> n{codes[j]} [label="{mover}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
