"""Exact dense linear algebra on Python ints and Fractions.

Matrices are lists of row lists.  Everything stays in exact arithmetic; the
sizes involved (edge counts of marked graphs) are tiny, only the entries get
large.
"""

from fractions import Fraction
from math import log, log1p


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError("matrix dimensions do not compose")
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def mat_pow(M, k):
    """M^k for k >= 1 by repeated squaring: O(log k) products.  M^1 is M
    itself, not a copy."""
    power = None
    while True:
        if k & 1:
            power = M if power is None else mat_mul(power, M)
        k >>= 1
        if not k:
            return power
        M = mat_mul(M, M)


def mat_vec(A, x):
    if A and len(A[0]) != len(x):
        raise ValueError("matrix and vector dimensions do not match")
    z = _zero_like(x)
    return [sum((a * v for a, v in zip(row, x) if a), z) for row in A]


def transpose_vec(A, x):
    """A^T x without forming the transpose."""
    if len(A) != len(x):
        raise ValueError("matrix and vector dimensions do not match")
    m = len(A[0]) if A else 0
    out = [_zero_like(x)] * m
    for row, v in zip(A, x):
        if v:
            for j in range(m):
                if row[j]:
                    out[j] = out[j] + row[j] * v
    return out


def dot(x, y):
    if len(x) != len(y):
        raise ValueError("vector dimensions do not match")
    return sum((a * b for a, b in zip(x, y)), _zero_like(x))


def _zero_like(x):
    return Fraction(0) if any(isinstance(v, Fraction) for v in x) else 0


def frac_log(q):
    """Natural log of a positive Fraction, safe for huge numerators and
    near 1 (log1p of the exact q - 1 there).  A positive int takes the
    numerator's part of the general path alone: the float is the same,
    since the denominator's part is log(1) - 0*log(2)."""
    if isinstance(q, int) and q > 0:
        shift = q.bit_length() - 500
        return log(q >> shift) + shift * log(2) if shift > 0 else log(q)
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    np_, dp = q.numerator, q.denominator
    if np_ <= 0:
        raise ValueError("log of a non-positive rational")
    if 2 * abs(np_ - dp) <= dp:
        return log1p((np_ - dp) / dp)
    # scale both parts into float range via bit lengths
    shift_n = max(np_.bit_length() - 500, 0)
    shift_d = max(dp.bit_length() - 500, 0)
    return (log(np_ >> shift_n) + shift_n * log(2)
            - log(dp >> shift_d) - shift_d * log(2))


def log_ratio(n, d):
    """log(n/d) for positive n and d: the same float as
    ``frac_log(Fraction(n, d))``, without reducing n/d near 1, where that
    float depends only on the exact n/d - 1."""
    if 2 * abs(n - d) <= d:
        return log1p((n - d) / d)
    return frac_log(Fraction(n, d))
