"""Hadamard matrix construction and validation.

Supported strategies: Sylvester doubling for powers of two, Paley type I
(order q+1, q prime, q = 3 mod 4), Paley type II (order 2(q+1), q prime,
q = 1 mod 4) and Kronecker products of smaller orders, each built in int64:
Sylvester doubles in place, Paley reads its Legendre symbols off the squares
mod q, and a Kronecker product is one broadcast product.  A matrix is only
ever returned after its entries are checked to be +-1 and H @ H.T == n*I is
checked entrywise.  That product is formed in float64 through BLAS, and it
is exact: each entry is a sum of n terms +-1, so every partial sum is an
integer of magnitude at most n < 2^53, which a double holds exactly in
whatever order BLAS adds.  It is one n x n x n gemm: at n = 256 about
1.2 ms on 2 cores with OpenBLAS, where numpy's int64 matmul, which has
no BLAS, takes 10-11 ms.  A matrix is written as {"order", "rows"}
(hadamard_to_json), the form `hadamard --out` prints and a family artifact
holds, and read back by hadamard_from_json through the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadResidueClass, MalformedArtifact, NotPrime, UnsupportedOrder
from .matcore import json_int, json_int_matrix
from .numth import is_prime


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """Order-n matrix with entries in {+1, -1} and H @ H.T = n*I exactly."""

    order: int
    entries: np.ndarray

    def __post_init__(self):
        given = np.asarray(self.entries)  # read as given: a cast to int64 would truncate 1.7 to 1
        if given.shape != (self.order, self.order):
            raise UnsupportedOrder(
                f"entries shape {given.shape} does not match order {self.order}"
            )
        if given.dtype.kind not in "iuf" or not np.all(np.abs(given) == 1):  # no bool, complex or text
            raise UnsupportedOrder(f"entries must all be +1 or -1, got {given.dtype} entries")
        entries = given.astype(np.int64)
        rows = entries.astype(float)
        if not np.array_equal(rows @ rows.T, self.order * np.eye(self.order)):
            raise UnsupportedOrder(f"H @ H.T != {self.order}*I; not a Hadamard matrix")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _jacobsthal(q: int) -> np.ndarray:
    """q x q matrix with entry (i, j) equal to the Legendre symbol of i - j: one symbol per residue, read at (i - j) mod q.

    The symbol is 0 at 0, +1 on the squares a^2 mod q for 1 <= a <= q/2,
    which hold every quadratic residue since a^2 = (q - a)^2, and -1
    elsewhere: q/2 squarings, no modular exponentiation.
    """
    residues = np.arange(q)
    symbols = np.full(q, -1, dtype=np.int64)
    symbols[residues[1 : q // 2 + 1] ** 2 % q] = 1
    symbols[0] = 0
    return symbols[(residues[:, None] - residues) % q]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two square matrices, [i*m + u, j*m + v] = a[i, j] * b[u, v], as one broadcast product."""
    return (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1)


def sylvester(k: int) -> HadamardMatrix:
    """Order 2^k matrix by iterated doubling of [[1, 1], [1, -1]], each in place in its top-left corner."""
    h = np.ones((2**k, 2**k), dtype=np.int64)
    for m in (2**j for j in range(k)):  # h[:m, :m] is the order-m matrix H; [[H, H], [H, -H]] doubles it
        h[:m, m : 2 * m] = h[m : 2 * m, :m] = h[:m, :m]
        h[m : 2 * m, m : 2 * m] = -h[:m, :m]
    return HadamardMatrix(order=2**k, entries=h)


def paley_one(q: int) -> HadamardMatrix:
    """Order q+1 matrix from the Jacobsthal matrix of a prime q = 3 (mod 4)."""
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")
    if q % 4 != 3:
        raise BadResidueClass(f"Paley I needs q = 3 (mod 4), got q={q}")
    n = q + 1
    h = np.ones((n, n), dtype=np.int64)
    h[1:, 0] = -1
    # core block is I_q + Q; diagonal of the Jacobsthal matrix is 0
    h[1:, 1:] = np.eye(q, dtype=np.int64) + _jacobsthal(q)
    return HadamardMatrix(order=n, entries=h)


def paley_two(q: int) -> HadamardMatrix:
    """Order 2(q+1) matrix from a prime q = 1 (mod 4)."""
    if not is_prime(q):
        raise NotPrime(f"q={q} is not prime")
    if q % 4 != 1:
        raise BadResidueClass(f"Paley II needs q = 1 (mod 4), got q={q}")
    n = q + 1
    s = np.zeros((n, n), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = 1
    s[1:, 1:] = _jacobsthal(q)
    # each +-1 of S becomes +-[[1,1],[1,-1]]; each diagonal 0 becomes [[1,-1],[-1,-1]]
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    b = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    h = _kron(s, a) + _kron(np.eye(n, dtype=np.int64), b)
    return HadamardMatrix(order=2 * n, entries=h)


def kronecker(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    """Kronecker product; order n_a * n_b."""
    return HadamardMatrix(order=a.order * b.order, entries=_kron(a.entries, b.entries))


def construct(n: int) -> HadamardMatrix:
    """Build an order-n Hadamard matrix, trying strategies in a fixed order.

    Order of attempts: Sylvester (n a power of two), Paley I (n-1 prime,
    3 mod 4), Paley II (n/2-1 prime, 1 mod 4), then Kronecker factorizations
    n = a*b with the smallest constructible factor a first.  Deterministic:
    the same n always yields the identical matrix.
    """
    if n == 1:
        return sylvester(0)
    if n == 2:
        return sylvester(1)
    if n < 1 or n % 4 != 0:
        raise UnsupportedOrder(f"Hadamard order must be 1, 2 or a multiple of 4, got {n}")
    if n & (n - 1) == 0:
        return sylvester(n.bit_length() - 1)
    if is_prime(n - 1) and (n - 1) % 4 == 3:
        return paley_one(n - 1)
    if n % 2 == 0 and is_prime(n // 2 - 1) and (n // 2 - 1) % 4 == 1:
        return paley_two(n // 2 - 1)
    for a in range(2, n // 2 + 1):
        if n % a != 0:
            continue
        try:
            return kronecker(construct(a), construct(n // a))
        except UnsupportedOrder:
            continue
    raise UnsupportedOrder(f"no construction strategy applies to order {n}")


def hadamard_to_json(h: HadamardMatrix) -> dict:
    return {"order": h.order, "rows": h.entries.tolist()}


def hadamard_from_json(obj: dict) -> HadamardMatrix:
    """Inverse of hadamard_to_json for any Hadamard matrix, not only construct's; MalformedArtifact or UnsupportedOrder on bad input.

    The fields must be exactly "order" and "rows", and rows order lists of
    order JSON integers (matcore.json_int_matrix), which is checked before
    any array is built; HadamardMatrix then checks that every entry is +-1
    and that H @ H.T = order*I.
    """
    fields = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
    if fields != ["order", "rows"]:
        raise MalformedArtifact(f"a Hadamard matrix has the fields ['order', 'rows'], not {fields}")
    n = json_int(obj["order"], "Hadamard order")
    return HadamardMatrix(order=n, entries=json_int_matrix(obj["rows"], n, "Hadamard rows"))
