"""Named graphs and local frames matching the bundled example datasets."""

from .pauli import Graph, LocalFrame

# 4-qubit linear cluster and the frame of the bundled table1.json dataset.
GRAPH_PAPER4 = Graph.path(4)
FRAME_PAPER4 = LocalFrame.from_tokens(
    [("-Z", "+X"), ("-X", "+Z"), ("+X", "+Z"), ("+Z", "+X")]
)

# 6-qubit linear cluster with the vertex labeling 4-1-2-5-6-3 along the
# chain, and the frame of the bundled table2.json dataset.
GRAPH_PAPER6 = Graph.from_edges(6, [(1, 2), (1, 4), (2, 5), (5, 6), (3, 6)])
FRAME_PAPER6 = LocalFrame.from_tokens(
    [
        ("+X", "+Z"),
        ("+Z", "+X"),
        ("-Z", "+X"),
        ("+Z", "+X"),
        ("-X", "+Z"),
        ("+X", "+Z"),
    ]
)

FRAME_PRESETS = {"paper4": FRAME_PAPER4, "paper6": FRAME_PAPER6}
# graph presets, under the same names: a preset frame combined with a plain
# path spec of the matching size implies its preset's vertex labeling
GRAPH_PRESETS = {"paper4": GRAPH_PAPER4, "paper6": GRAPH_PAPER6}
