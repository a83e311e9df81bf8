"""Verification kernels: exact field arithmetic, keyed digests and item
tags, majority resolution, and the randomized matrix-product check.

Matrix entries live in the prime field mod p = 2^61 - 1 so that equality
tests are exact.  `f_matmul` is the one matrix-product kernel (block
products, Freivalds' mat-vecs and the harness oracle all use it): it runs
on float64 BLAS over 21-bit limbs, in inner chunks of 2^10 terms, so every
float64 partial sum is an integer below 2^53 and the result is exact
whatever the BLAS summation order or thread count.
Digests and item tags are keyed per run and the key never crosses the
adversary-facing API, which models collision resistance and unforgeability
at simulation fidelity without public-key machinery.

Canonical serialization (documented for cross-implementation
reproducibility): a matrix digest is computed over
``b"M1" + rows.to_bytes(8,"little") + cols.to_bytes(8,"little")`` followed
by the entries row-major as little-endian 64-bit words, hashed with keyed
blake2b truncated to 128 bits.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .metrics import Metrics

P = np.uint64((1 << 61) - 1)
_U61 = np.uint64(61)
_TWO = np.uint64(2)
_LIMB_SHIFTS = np.array([0, 21, 42], dtype=np.uint64)
_LIMB_MASK = np.uint64((1 << 21) - 1)
# Inner terms per float64 product: with entries below 2^61 the top limb is
# below 2^19, so every shift-group sum stays below 1.5 * 2^42 * 2^10 < 2^53.
_CHUNK = 1 << 10

MODULUS = int(P)


def f_reduce(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """Reduce values below 2^64 into [0, p)."""
    x = (x & P) + (x >> _U61)  # at most p + 7
    return np.where(x >= P, x - P, x)


def _rotl61(x: np.ndarray, s: int) -> np.ndarray:
    """x * 2^s mod p for x < 2^61: a 61-bit rotation, since 2^61 = 1 mod p.
    The result lies in [0, 2^61 - 1], where 2^61 - 1 stands for 0."""
    return ((x << np.uint64(s)) & P) | (x >> np.uint64(61 - s))


def f_matmul(
    a: np.ndarray,
    b: np.ndarray,
    metrics: Metrics | None = None,
) -> np.ndarray:
    """Matrix product over the field; charges rows·cols·inner madds to the
    worker.

    Entries must lie below 2^61.  Each operand is split into three 21-bit
    limbs, a = Σ a_i·2^(21i) and b = Σ b_j·2^(21j), stacked so that one
    float64 product per inner chunk yields every a_i·b_j.  The shift groups
    g_k = Σ_{i+j=k} a_i·b_j are integers below 2^53, hence exact whatever
    order or thread count BLAS sums in, and fold back mod p.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    rows, inner = a.shape
    cols = b.shape[1]
    # limb i of a fills rows i*rows.., limb j of b fills columns j*cols..
    la = (a >> _LIMB_SHIFTS[:, None, None]) & _LIMB_MASK
    la = la.astype(np.float64).reshape(3 * rows, inner)
    lb = (b[:, None, :] >> _LIMB_SHIFTS[:, None]) & _LIMB_MASK
    lb = lb.astype(np.float64).reshape(inner, 3 * cols)
    out = np.zeros((rows, cols), dtype=np.uint64)
    for t0 in range(0, inner, _CHUNK):
        part = la[:, t0 : t0 + _CHUNK] @ lb[t0 : t0 + _CHUNK]
        p = part.astype(np.uint64).reshape(3, rows, 3, cols)
        # 2^63 = 4 and 2^84 = 2^23 (mod p), so the chunk's product is
        # g0 + 4·g3 + 2^21·(g1 + 4·g4) + 2^42·g2, with both sums below 2^54
        g1 = p[0, :, 1] + p[1, :, 0]
        g2 = p[0, :, 2] + p[1, :, 1] + p[2, :, 0]
        g3 = p[1, :, 2] + p[2, :, 1]
        low = p[0, :, 0] + (g3 << _TWO)
        mid = g1 + (p[2, :, 2] << _TWO)
        out = f_reduce(out + low + _rotl61(mid, 21) + _rotl61(g2, 42))
    if metrics is not None:
        metrics.charge_comp("worker", rows * cols * inner)
    return out


def freivalds(
    a_i: np.ndarray,
    b_j: np.ndarray,
    c: np.ndarray,
    tau: int,
    rng: np.random.Generator,
    metrics: Metrics | None = None,
) -> bool:
    """Randomized check that a_i · b_j = c, with τ independent repetitions.

    Each repetition draws a fresh 0/1 vector r, computes x = b_j·r,
    y = a_i·x and z = c·r, and compares y to z.  A correct product always
    passes; a wrong one passes a single repetition with probability at most
    1/2, hence at most 2^-τ overall.  Only the y-stage is charged (the
    other two stages are sums of columns selected by r); cost is
    τ·rows(a_i)·cols(a_i) multiply-adds, far below the full product.
    """
    if tau < 1:
        raise ValueError(f"need at least one repetition, got tau={tau}")
    rows, inner = a_i.shape
    if b_j.shape[0] != inner or b_j.shape[1] != rows or c.shape != (rows, rows):
        raise ValueError(
            f"incompatible shapes a={a_i.shape} b={b_j.shape} c={c.shape}"
        )
    for _ in range(tau):
        r = rng.integers(0, 2, size=rows, dtype=np.uint64)
        if not freivalds_once(a_i, b_j, c, r, metrics):
            return False
    return True


def freivalds_once(
    a_i: np.ndarray,
    b_j: np.ndarray,
    c: np.ndarray,
    r: np.ndarray,
    metrics: Metrics | None = None,
) -> bool:
    """One repetition with a caller-supplied 0/1 vector r."""
    r = r[:, np.newaxis]
    x = f_matmul(b_j, r)
    y = f_matmul(a_i, x, metrics)
    z = f_matmul(c, r)
    return bool(np.array_equal(y, z))


# ---------------------------------------------------------------------------
# Keyed digests


def serialize_matrix(m: np.ndarray) -> bytes:
    if m.ndim != 2:
        raise ValueError("matrix serialization requires a 2-d array")
    rows, cols = m.shape
    return (
        b"M1"
        + rows.to_bytes(8, "little")
        + cols.to_bytes(8, "little")
        + np.ascontiguousarray(m, dtype="<u8").tobytes()
    )


def digest(data: bytes, key: bytes) -> bytes:
    """128-bit keyed digest over a canonical byte serialization."""
    return hashlib.blake2b(data, key=key, digest_size=16).digest()


def majority_digest(ds: list[bytes]) -> bytes | None:
    """Strict-majority value of a digest list, or None if there is none."""
    if not ds:
        return None
    value, count = Counter(ds).most_common(1)[0]
    return value if 2 * count > len(ds) else None


# ---------------------------------------------------------------------------
# Item tags: keyed 128-bit authenticators over (value, index) pairs.


def _mix64(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class SigningKey:
    """Run-secret tag key.  Held by the source; never handed to strategies."""

    k0: int
    k1: int

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "SigningKey":
        k = rng.integers(0, 1 << 63, size=2, dtype=np.uint64)
        return cls(int(k[0]) | 1, int(k[1]) | 1)


def sign_items(
    values: np.ndarray, indices: np.ndarray, key: SigningKey
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized 128-bit tags binding each (value, index) pair to the key."""
    v = np.asarray(values, dtype=np.uint64)
    i = np.asarray(indices, dtype=np.uint64)
    k0, k1 = np.uint64(key.k0), np.uint64(key.k1)
    # t0 = mix(v ^ mix(i ^ k0)) and t1 = mix(v ^ mix(i + k1) ^ k1), both
    # halves in one pass per mixing stage
    inner = _mix64(np.stack([i ^ k0, i + k1]))
    inner[1] ^= k1
    t0, t1 = _mix64(v ^ inner)
    return t0, t1


def verify_items(
    values: np.ndarray,
    indices: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    key: SigningKey,
) -> np.ndarray:
    """Boolean mask of items whose tags are genuine."""
    e0, e1 = sign_items(values, indices, key)
    return (np.asarray(t0, dtype=np.uint64) == e0) & (
        np.asarray(t1, dtype=np.uint64) == e1
    )

