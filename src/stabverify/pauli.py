"""Graphs, local frames, and the stabilizer elements of a graph state in the
binary symplectic form: X and Z bit masks over GF(2) plus a sign (Dehaene and
De Moor, PRA 68, 042318; Aaronson and Gottesman, PRA 70, 052328).

Conventions used throughout the package:
  * qubits are numbered 1..n; bit q-1 of any mask or index refers to qubit q
    (little endian);
  * the qubit factor for mask bits (x, z) is I, X, Z, Y for (0,0), (1,0),
    (0,1), (1,1);
  * stabilizer group elements are indexed by k in [0, 2^n): bit a-1 of k says
    whether generator a enters the product, so k = k1 + 2*k2 + 4*k3 + ...;
  * text serialization puts qubit 1 leftmost, e.g. "-ZZII".

``StabilizerCodec`` is the one place that computes an element's bits and
sign from (graph, frame); nothing here builds the 2^n group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NotTwoColorableError(ValueError):
    """Raised when a graph contains an odd cycle."""


_CHAR_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_CHAR = {v: k for k, v in _CHAR_TO_BITS.items()}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]
    # vertex -> frozenset of its neighbors; derived from edges, so it takes
    # no part in equality, hashing or JSON
    _adjacency: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = set()
        adjacency = {}
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= self.n and 1 <= b <= self.n):
                raise ValueError(f"edge {e} outside vertex range 1..{self.n}")
            norm.add((min(a, b), max(a, b)))
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_adjacency",
                           {v: frozenset(nb) for v, nb in adjacency.items()})

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(a, a + 1) for a in range(1, n)])

    def neighbors(self, a: int) -> frozenset[int]:
        return self._adjacency.get(a, frozenset())

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @classmethod
    def from_json_dict(cls, d) -> "Graph":
        """Graph from {"n": n, "edges": [[a, b], ...]} of JSON ints (not bools)."""
        if not isinstance(d, dict):
            raise ValueError(f"'graph' must be an object, got {type(d).__name__}")
        if type(d.get("n")) is not int:
            raise ValueError(f"graph 'n' must be an integer, got {d.get('n')!r}")
        edges = d.get("edges", [])
        if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
                for e in edges):
            raise ValueError("graph 'edges' must be a list of pairs of vertex numbers")
        return cls.from_edges(d["n"], edges)


_SIGNED_TOKENS = {}
for _s, _sv in (("+", 1), ("-", -1), ("", 1)):
    for _c, _bits in _CHAR_TO_BITS.items():
        if _c != "I":
            _SIGNED_TOKENS[_s + _c] = (_bits[0], _bits[1], _sv)


def _parse_signed_pauli(token: str):
    try:
        return _SIGNED_TOKENS[token.strip().upper()]
    except KeyError:
        raise ValueError(f"invalid signed Pauli token {token!r} in a frame") from None


def _format_signed_pauli(bits):
    bx, bz, s = bits
    return ("+" if s > 0 else "-") + _BITS_TO_CHAR[(bx, bz)]


@dataclass(frozen=True)
class LocalFrame:
    """Per-qubit signed substitution of X and Z (a local Clifford action).

    images[q-1] is a pair ((x-image), (z-image)); each image is a tuple
    (x_bit, z_bit, sign) encoding a signed single-qubit Pauli.
    """

    n: int
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.n:
            raise ValueError("need one image pair per qubit")
        for q, (ix, iz) in enumerate(self.images, start=1):
            for im in (ix, iz):
                bx, bz, s = im
                if (bx, bz) == (0, 0) or s not in (1, -1):
                    raise ValueError(f"invalid image {im} on qubit {q}")
            # images of X and Z must anticommute for a valid Clifford action
            if (ix[0] & iz[1]) ^ (ix[1] & iz[0]) != 1:
                raise ValueError(
                    f"images on qubit {q} commute; not a valid frame"
                )

    @classmethod
    def identity(cls, n: int) -> "LocalFrame":
        return cls(n, tuple(((1, 0, 1), (0, 1, 1)) for _ in range(n)))

    @classmethod
    def from_tokens(cls, pairs) -> "LocalFrame":
        """pairs: iterable of (x_token, z_token), e.g. ("-Z", "+X")."""
        images = tuple(
            (_parse_signed_pauli(tx), _parse_signed_pauli(tz)) for tx, tz in pairs
        )
        return cls(len(images), images)

    def to_json_list(self) -> list:
        return [
            {"X": _format_signed_pauli(ix), "Z": _format_signed_pauli(iz)}
            for ix, iz in self.images
        ]

    @classmethod
    def from_json_list(cls, items) -> "LocalFrame":
        """Frame from [{"X": "-Z", "Z": "+X"}, ...], one entry per qubit."""
        if not isinstance(items, list) or not all(
                isinstance(d, dict) and all(isinstance(d.get(a), str) for a in "XZ")
                for d in items):
            raise ValueError("'frame' must be a list of {\"X\": token, \"Z\": token} objects")
        return cls.from_tokens((d["X"], d["Z"]) for d in items)

    def is_identity(self) -> bool:
        return self == LocalFrame.identity(self.n)


# letter code x | z << 1 of each byte: I, X, Z, Y -> 0, 1, 2, 3; anything else 4
_LETTER_CODE = np.full(256, 4, dtype=np.uint8)
for _c, (_bx, _bz) in _CHAR_TO_BITS.items():
    _LETTER_CODE[ord(_c)] = _bx | _bz << 1
_CODE_LETTER = np.frombuffer(b"IXZY", dtype=np.uint8)


# Group indices of up to this many qubits are int64; past it, exact Python ints.
INT64_INDEX_QUBITS = 62


def index_column(bits: np.ndarray) -> np.ndarray:
    """Group index of each column of an (n, rows) array of 0/1 bits, bit a-1 in
    row a-1: int64 up to INT64_INDEX_QUBITS qubits, else an object array of
    Python ints."""
    n, rows = bits.shape
    if n <= INT64_INDEX_QUBITS:
        return (1 << np.arange(n, dtype=np.int64)) @ bits
    packed = np.packbits(bits, axis=0, bitorder="little").T  # (rows, bytes)
    width = packed.shape[1]
    buf = np.ascontiguousarray(packed).tobytes()
    return np.array([int.from_bytes(buf[i:i + width], "little")
                     for i in range(0, rows * width, width)], dtype=object)


def index_bits(ks, n: int) -> np.ndarray:
    """(n, rows) 0/1 bits of group indices k in [0, 2^n), the inverse of index_column."""
    if n <= INT64_INDEX_QUBITS:
        words = np.asarray(ks if isinstance(ks, np.ndarray) else list(ks), dtype=np.int64)
        raw = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    else:
        width = (n + 7) // 8
        buf = b"".join(k.to_bytes(width, "little") for k in ks)
        raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, width)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").T.copy()


def _map_bits(m, x: np.ndarray, z: np.ndarray):
    """Per-qubit GF(2) map m = (a, b, c, d): (x, z) -> (a x ^ b z, c x ^ d z)."""
    a, b, c, d = (v[:, None] for v in m)
    return (a & x) ^ (b & z), (c & x) ^ (d & z)


class StabilizerCodec:
    """Text <-> group index for the stabilizer elements of one (graph, frame).

    Element k of the graph's group has X mask k and Z mask Gamma k (the XOR
    of the neighborhoods of the vertices in k), and in letters I, X, Y, Z

        S_k = (-1)^{|E(k)| + popcount(k & Gamma k) / 2}  X^k Z^{Gamma k},

    where |E(k)| counts the edges inside k and the popcount term turns each
    XZ = -iY into a Y letter (Hein, Eisert and Briegel, PRA 69, 062311).
    Mod 2 the exponent equals sum_{a in k} ceil(c_a / 2), with c_a the
    number of neighbors of a inside k.  The frame maps the (x, z) bits of each
    qubit by a fixed invertible 2x2 matrix over GF(2) and multiplies in the
    sign of that qubit's X, Y or Z image, so it moves no information between
    qubits.  Rows are decoded and encoded together as (n, rows) bit arrays,
    with no loop over rows: time and memory are O(rows * n) plus one pass
    over the edges, and the 2^n group is never built.  ``y_masks`` takes the
    same steps over all 2^n indices at once, for the reduced PPT path.
    """

    def __init__(self, graph: Graph, frame: LocalFrame):
        if frame.n != graph.n:
            raise ValueError(f"qubit counts differ: {frame.n} vs {graph.n}")
        self.n = graph.n
        self._neighbors = [np.array(sorted(graph.neighbors(a)), dtype=np.intp) - 1
                           for a in range(1, self.n + 1)]
        # per qubit: bits (x bit, z bit) and sign of the images of X and Z
        xi = np.array([im[0] for im in frame.images], dtype=np.int64).T
        zi = np.array([im[1] for im in frame.images], dtype=np.int64).T
        ax, bx = xi[:2].astype(np.uint8)
        az, bz = zi[:2].astype(np.uint8)
        # x' = ax x ^ az z, z' = bx x ^ bz z; the inverse is the adjugate,
        # since the determinant is 1 for anticommuting images
        self._forward = (ax, az, bx, bz)
        self._inverse = (bz, az, bx, ax)
        # Y = i X Z maps to i sx sz P_X P_Z = i^{1 + phase} sx sz P_Y, with
        # P_X P_Z = i^phase P_Y: taking each factor with bits (x, z) as
        # i^{xz} X^x Z^z, the product of (x1, z1) and (x2, z2) is i^phase
        # times (x3, z3) = (x1 ^ x2, z1 ^ z2), phase = x1 z1 + x2 z2 - x3 z3
        # + 2 z1 x2 mod 4
        phase = ((xi[0] & xi[1]) + (zi[0] & zi[1]) - ((xi[0] ^ zi[0]) & (xi[1] ^ zi[1]))
                 + 2 * (xi[1] & zi[0])) % 4
        sy = xi[2] * zi[2] * np.where(phase == 1, -1, 1)
        self._image_negative = tuple((s < 0).astype(np.uint8) for s in (xi[2], sy, zi[2]))

    def _neighbor_counts(self, x: np.ndarray) -> np.ndarray:
        """c_a = |N(a) & k| per row, mod 256 (which keeps c_a mod 4)."""
        c = np.empty_like(x)
        for a, nb in enumerate(self._neighbors):
            np.add.reduce(x[nb], axis=0, dtype=np.uint8, out=c[a])
        return c

    def _negative(self, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """1 for each row whose element (x, z = Gamma x) has sign -1 after the frame."""
        neg_x, neg_y, neg_z = (s[:, None] for s in self._image_negative)
        t = x & ((c + 1) >> 1)  # ceil(c_a / 2) mod 2 on the vertices in k
        t ^= (neg_x & x & ~z) ^ (neg_y & x & z) ^ (neg_z & ~x & z)
        return np.bitwise_xor.reduce(t & 1, axis=0)

    def y_masks(self) -> np.ndarray:
        """Y-factor mask x' & z' of every group element, in index order, as int64."""
        x = index_bits(np.arange(1 << self.n), self.n)
        z = self._neighbor_counts(x) & 1
        xp, zp = _map_bits(self._forward, x, z)
        return index_column(xp & zp)

    def indices(self, texts) -> tuple[np.ndarray, np.ndarray]:
        """(k, member) of Pauli texts ("-YZX", "+XZI", "XZI").  k[i] is the
        group index of text i (an ``index_column``), and member[i] is False
        where the text is not an element of this group: a wrong sign, a wrong
        length, a letter other than I, X, Y, Z, or a non-member.  k[i] means
        nothing there."""
        texts = texts if isinstance(texts, list) else list(texts)
        lengths = np.fromiter(map(len, texts), np.intp, len(texts))
        start = np.cumsum(lengths + 1) - (lengths + 1)
        buf = "\n".join(texts).encode("ascii", "replace")
        n = self.n
        # one byte per character, anything beyond ASCII a '?' (no letter);
        # the padding keeps every row's n-byte window inside the buffer
        buf = np.frombuffer(buf + b"?" * (n + 1), dtype=np.uint8)
        negative = buf[start] == ord("-")
        signed = negative | (buf[start] == ord("+"))
        member = lengths - signed == n
        body = np.where(member, start + signed, 0)
        codes = np.take(_LETTER_CODE, buf[body + np.arange(n)[:, None]])  # (n, rows)
        member &= (codes < 4).all(axis=0)
        x, z = _map_bits(self._inverse, codes & 1, codes >> 1)
        c = self._neighbor_counts(x)
        member &= (z == c & 1).all(axis=0)
        member &= self._negative(x, z, c) == negative
        return index_column(x), member

    def decode(self, texts) -> list:
        """Group index of each Pauli text, or None where ``indices`` finds it
        is not an element of this group."""
        k, member = self.indices(texts)
        out = k.tolist()
        for i in np.flatnonzero(~member).tolist():
            out[i] = None
        return out

    def encode(self, ks) -> list[str]:
        """Pauli text of each group index k in [0, 2^n), as ``str(group[k])``."""
        x = index_bits(ks, self.n)
        c = self._neighbor_counts(x)
        z = c & 1
        negative = self._negative(x, z, c)
        xp, zp = _map_bits(self._forward, x, z)
        # rows "<sign>letters\n" with a blank for no sign, split on whitespace
        rows = np.empty((x.shape[1], self.n + 2), dtype=np.uint8)
        rows[:, 0] = np.where(negative, ord("-"), ord(" "))
        rows[:, 1:-1] = _CODE_LETTER[(xp | zp << 1).T]
        rows[:, -1] = ord("\n")
        return rows.tobytes().decode("ascii").split()


@dataclass(frozen=True)
class TwoColoring:
    """Bipartition of the vertices with no edge inside either class."""

    amber: frozenset[int]
    blue: frozenset[int]

    def __post_init__(self):
        if len(self.amber) < len(self.blue):
            raise ValueError("amber must be the larger class")

    @property
    def b_size(self) -> int:
        return len(self.blue)


def two_coloring(graph: Graph) -> TwoColoring:
    """BFS two-coloring; |blue| <= |amber|.  Requires a connected graph."""
    color = {1: 0}
    queue = [1]
    while queue:
        v = queue.pop()
        for u in graph.neighbors(v):
            if u not in color:
                color[u] = 1 - color[v]
                queue.append(u)
            elif color[u] == color[v]:
                raise NotTwoColorableError(
                    "graph is not two-colorable (odd cycle)"
                )
    if len(color) != graph.n:
        raise ValueError("graph is not connected")
    c0 = frozenset(v for v, c in color.items() if c == 0)
    c1 = frozenset(v for v, c in color.items() if c == 1)
    if len(c0) < len(c1):
        c0, c1 = c1, c0
    return TwoColoring(amber=c0, blue=c1)

