"""Per-Pauli reference objects for the tests: signed Pauli strings, their
products and frame images, the explicit 2^n stabilizer group and dense Pauli
matrices.

stabverify computes with stabilizer elements only as GF(2) bit arrays
(``StabilizerCodec``).  This module keeps the slow, one-object-at-a-time form
of the same algebra, so the tests can check the bit arrays against it.

Conventions: qubit q is bit q-1 of every mask; a PauliString's qubit factor
for mask bits (x, z) is I, X, Z, Y for (0,0), (1,0), (0,1), (1,1); group
element k is the product of the generators over the set bits of k; text puts
qubit 1 leftmost, e.g. "-ZZII".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from stabverify.operators import PAULI_1Q, _dense_dim, eig_hermitian, fidelity_pure, shannon_entropy
from stabverify.pauli import _BITS_TO_CHAR, _CHAR_TO_BITS, Graph, LocalFrame


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli operator in bit-mask form."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask has bits outside the qubit range")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 1)

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        s = text.strip()
        sign = -1 if s.startswith("-") else 1
        s = s[1:] if s[:1] in ("-", "+") else s
        if not s:
            raise ValueError(f"empty Pauli string: {text!r}")
        x = z = 0
        for q, ch in enumerate(s):
            try:
                bx, bz = _CHAR_TO_BITS[ch.upper()]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
            x |= bx << q
            z |= bz << q
        return cls(len(s), x, z, sign)

    def __str__(self):
        chars = [_BITS_TO_CHAR[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n)]
        return ("-" if self.sign < 0 else "") + "".join(chars)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def commutes_with(self, other: "PauliString") -> bool:
        _check_same_n(self, other)
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise ValueError(f"qubit counts differ: {p.n} vs {q.n}")


def _bare_product(p: PauliString, q: PauliString):
    """Masks of p*q with the accumulated power of i (mod 4), each factor
    taken as i^{x.z} X^x Z^z per qubit, which makes the (1,1) factor Y."""
    x3 = p.x ^ q.x
    z3 = p.z ^ q.z
    phase = (p.y_count + q.y_count - (x3 & z3).bit_count()
             + 2 * (p.z & q.x).bit_count()) % 4
    return x3, z3, phase


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Signed product of two commuting Pauli strings (anticommuting ones
    would carry a factor +/-i and are rejected)."""
    _check_same_n(p, q)
    x3, z3, phase = _bare_product(p, q)
    if phase % 2:
        raise ValueError(f"anticommuting product {p} * {q} carries an imaginary phase")
    return PauliString(p.n, x3, z3, p.sign * q.sign * (1 if phase == 0 else -1))


def apply_frame(frame: LocalFrame, p: PauliString) -> PauliString:
    """Image of p under the frame substitution, with the exact sign."""
    if frame.n != p.n:
        raise ValueError(f"qubit counts differ: {frame.n} vs {p.n}")
    # map p's X-part and Z-part qubit by qubit; the i^{y_count} prefactor
    # accounts for Y = i X Z per qubit
    xs_x = xs_z = zs_x = zs_z = 0
    sign = p.sign
    for q, (ix, iz) in enumerate(frame.images):
        if (p.x >> q) & 1:
            xs_x |= ix[0] << q
            xs_z |= ix[1] << q
            sign *= ix[2]
        if (p.z >> q) & 1:
            zs_x |= iz[0] << q
            zs_z |= iz[1] << q
            sign *= iz[2]
    x3, z3, phase = _bare_product(PauliString(p.n, xs_x, xs_z), PauliString(p.n, zs_x, zs_z))
    phase = (phase + p.y_count) % 4
    if phase % 2:
        raise ValueError("frame image carries an imaginary phase (invalid frame)")
    return PauliString(p.n, x3, z3, sign * (1 if phase == 0 else -1))


def generators(graph: Graph) -> list[PauliString]:
    """Graph-state generators: X on vertex a, Z on each neighbor, sign +1."""
    return [PauliString(graph.n, 1 << (a - 1), sum(1 << (b - 1) for b in graph.neighbors(a)))
            for a in range(1, graph.n + 1)]


def stabilizer_group(gens: list[PauliString]) -> list[PauliString]:
    """All 2^n products of the generators, indexed by the generator bit mask;
    index 0 is the identity."""
    if not gens:
        raise ValueError("need at least one generator")
    for i, g in enumerate(gens):
        if not all(g.commutes_with(h) for h in gens[i + 1:]):
            raise ValueError("generators must commute pairwise")
    group = [PauliString.identity(gens[0].n)] * (1 << len(gens))
    for k in range(1, 1 << len(gens)):
        low = k & (-k)
        group[k] = multiply(gens[low.bit_length() - 1], group[k ^ low])
    if len({(g.x, g.z) for g in group}) != len(group):
        raise ValueError("generators are dependent (duplicate group elements)")
    return group


def transformed_generators(graph: Graph, frame: LocalFrame) -> list[PauliString]:
    return [apply_frame(frame, g) for g in generators(graph)]


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a signed Pauli string (qubit 1 = least significant bit)."""
    _dense_dim(p.n)
    mats = [PAULI_1Q[((p.x >> q) & 1, (p.z >> q) & 1)] for q in range(p.n - 1, -1, -1)]
    return p.sign * reduce(np.kron, mats)


def stabilizer_expectations(vec: np.ndarray, group: list[PauliString]) -> np.ndarray:
    """<v|S_k|v> for every group element."""
    return np.array([fidelity_pure(pauli_to_matrix(s), vec) for s in group])


def von_neumann_entropy(op: np.ndarray, tol: float = 1e-9) -> float:
    """Base-2 entropy of a density operator; 0 log 0 = 0."""
    w = eig_hermitian(op)[0]
    if w[0] < -tol:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} in entropy input")
    return shannon_entropy(np.clip(w, 0.0, None))
