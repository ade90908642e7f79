"""The table loops the monogenic builder replaced: the references for it.

froblab builds F_p[t]/(t^n) and F_p[u]/(m(u)) from one builder, which reads
e_i e_j = u^(i+j) mod m off the powers of the companion matrix of m.  Here
each is built as before: the truncated table by setting table[i, j, i + j]
for i + j < n, and the extension table by multiplying e_i by u one step at
a time (times_u), reducing u^n through the coefficients of m.  Both return
(table, one, labels), the arguments the builders hand FiniteAlgebra.
"""
import numpy as np


def _labels(n: int, var: str) -> list[str]:
    return ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, n)]


def truncated_table_by_loops(p: int, n: int, var: str = "t"):
    """F_p[t]/(t^n) with basis 1, t, ..., t^(n-1)."""
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                table[i, j, i + j] = 1
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    return table, one, _labels(n, var)


def extension_table_by_loops(p: int, min_poly: list[int], var: str = "u"):
    """F_p[u]/(m(u)) for the monic m whose coefficients of 1, u, ..., u^n
    are min_poly."""
    n = len(min_poly) - 1
    if n < 1 or min_poly[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    reduction = [(-c) % p for c in min_poly[:-1]]

    def times_u(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        out[1:] = vec[:-1]
        out = (out + vec[-1] * np.array(reduction, dtype=np.int64)) % p
        return out

    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        base = np.zeros(n, dtype=np.int64)
        base[i] = 1
        for j in range(n):
            if j == 0:
                prod = base.copy()
            else:
                prod = times_u(prod)
            table[i, j] = prod
    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    return table, one, _labels(n, var)
