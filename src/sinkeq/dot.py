"""DOT export of explored state graphs; output ordering is stable."""

from __future__ import annotations

from .dynamics import Closure
from .profiles import ProfileCodec


def export_dot(closure: Closure, codec: ProfileCodec) -> str:
    """Render a closure's states and its recorded edges.

    Vertices are labeled by profile index, edges by the moving player, the
    one coordinate in which the two ends differ. Sink members get a double
    circle.
    """
    states = closure.states
    pids = closure.codes or [codec.encode(v) for v in states]
    in_sink = {v for comp in closure.sinks for v in comp}
    order = sorted(range(len(states)), key=pids.__getitem__)
    lines = ["digraph state_graph {"]
    for k in order:
        shape = ' shape=doublecircle' if states[k] in in_sink else ""
        lines.append(f'  n{pids[k]} [label="{pids[k]}"{shape}];')
    for k in order:
        source = states[k]
        for j in closure.successors[k]:
            mover = next(p for p, (a, b) in enumerate(zip(source, states[j])) if a != b)
            lines.append(f'  n{pids[k]} -> n{pids[j]} [label="{mover}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
