"""DOT export of explicit state-graph fragments; output ordering is stable."""

from __future__ import annotations

from typing import Iterable, Sequence

from .dynamics import StateGraph
from .profiles import Profile


def export_dot(
    graph: StateGraph,
    vertices: Sequence[Profile],
    sink_states: Iterable[Profile] = (),
    decode: bool = False,
) -> str:
    """Render the subgraph induced by ``vertices``.

    Vertices are labeled by profile index (plus the profile itself when
    ``decode`` is set), edges by the moving player. Sink members get a double
    circle.
    """
    codec = graph.codec
    sink_set = set(sink_states)
    ordered = sorted(set(vertices), key=codec.encode)
    included = set(ordered)
    lines = ["digraph state_graph {"]
    for profile in ordered:
        pid = codec.encode(profile)
        if decode:
            label = f"{pid}: ({', '.join(map(str, profile))})"
        else:
            label = str(pid)
        shape = ' shape=doublecircle' if profile in sink_set else ""
        lines.append(f'  n{pid} [label="{label}"{shape}];')
    for profile in ordered:
        pid = codec.encode(profile)
        for nxt, player in graph.successors(profile):
            if nxt in included:
                lines.append(f'  n{pid} -> n{codec.encode(nxt)} [label="{player}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
