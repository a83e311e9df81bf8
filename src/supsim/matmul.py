"""Verified matrix multiplication over GF(2^61 - 1).

The product C = A * B of two m x m matrices is cut into k^2 block tasks.
Stripe A_i is the i-th band of m/k rows of A, stripe B_j the j-th band of
m/k columns of B, and block C_ij = A_i * B_j.  Workers never see whole
matrices: each stripe flows from the source through a forwarding list
and a binary broadcast tree to the k multiplication tasks that need it,
and each block C_ij flows through its own forwarding list to the target.
Every forwarding step re-checks a stripe digest pinned by the source;
every output-list step re-verifies the block with random masks, so a
wrong product survives a single check with probability at most 2^-tau.

In-/out-degree never exceeds 2, so per-worker communication stays within
a constant factor of the payload it forwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import Metrics
from .protocol import Done, Reject, Silent, SupervisorState, read_only
from .taskgraph import GraphBuilder, TaskGraph, TaskKind, _is_pow2
from .verify import (
    MODULUS,
    digest,
    f_matmul,
    freivalds,
    majority_digest,
    serialize_matrix,
)

_MAGIC = b"SUPMM01\n"

_DONE_PLAIN = Done(None)


def _validate_k(k: int) -> None:
    if not _is_pow2(k) or k < 2:
        raise ValueError(f"k must be a power of two >= 2, got {k}")


def _validate_params(m: int, k: int) -> None:
    """Shape rules for m x m matrices cut into k x k blocks."""
    _validate_k(k)
    if m % k != 0:
        raise ValueError(f"k={k} must divide m={m}")
    if m < k * math.ceil(math.log2(k * k)):
        raise ValueError(
            f"m={m} too small for k={k}: need m >= k*ceil(log2(k^2))"
        )


@dataclass(frozen=True)
class MatmulInstance:
    """A pair of m x m matrices over the field, plus the blocking factor.

    k must be a power of two at least 2, k must divide m, and m must be
    at least k * ceil(log2(k^2)) so every stripe is big enough to carry
    the verification masks.
    """

    a: np.ndarray
    b: np.ndarray
    k: int

    def __post_init__(self) -> None:
        a, b, k = self.a, self.b, self.k
        for name, mat in (("a", a), ("b", b)):
            if not isinstance(mat, np.ndarray) or mat.dtype != np.uint64:
                raise ValueError(f"{name} must be a uint64 ndarray")
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got shape {mat.shape}")
            if not bool(np.all(mat < MODULUS)):
                raise ValueError(f"{name} has entries outside the field")
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        _validate_params(a.shape[0], k)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.k * self.k


def random_instance(m: int, k: int, rng: np.random.Generator) -> MatmulInstance:
    a = rng.integers(0, MODULUS, size=(m, m), dtype=np.uint64)
    b = rng.integers(0, MODULUS, size=(m, m), dtype=np.uint64)
    return MatmulInstance(a=a, b=b, k=k)


def stripes(
    a: np.ndarray, b: np.ndarray, k: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Row stripes of a and column stripes of b, k of each, read-only (an
    A-stripe is a view into a)."""
    m = a.shape[0]
    w = m // k
    a_stripes = [read_only(np.ascontiguousarray(a[i * w : (i + 1) * w, :]))
                 for i in range(k)]
    b_stripes = [read_only(np.ascontiguousarray(b[:, j * w : (j + 1) * w]))
                 for j in range(k)]
    return a_stripes, b_stripes


def save_instance(path, inst: MatmulInstance) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        np.array([inst.m, inst.k], dtype="<u8").tofile(fh)
        inst.a.astype("<u8").tofile(fh)
        inst.b.astype("<u8").tofile(fh)


def load_instance(path) -> MatmulInstance:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a matrix-pair file")
        header = np.fromfile(fh, dtype="<u8", count=2)
        if header.size != 2:
            raise ValueError(f"{path}: truncated header")
        m, k = int(header[0]), int(header[1])
        body = np.fromfile(fh, dtype="<u8", count=2 * m * m)
    if body.size != 2 * m * m:
        raise ValueError(f"{path}: expected {2 * m * m} elements, got {body.size}")
    a = body[: m * m].reshape(m, m).astype(np.uint64)
    b = body[m * m :].reshape(m, m).astype(np.uint64)
    return MatmulInstance(a=a, b=b, k=k)


# ---------------------------------------------------------------------------
# Graph


def build_matmul_graph(k: int, c: float = 1.0) -> TaskGraph:
    """The blocked-multiplication task graph for blocking factor k.

    Per stripe: a forwarding list of ceil(c*log2(n)) tasks, then a
    complete binary broadcast tree with k leaves.  Multiplication task
    (i,j) reads leaf j of A-tree i and leaf i of B-tree j.  Each block
    then crosses its own forwarding list of the same length before
    reaching the target.
    """
    _validate_k(k)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    n = k * k
    log2k = k.bit_length() - 1
    list_len = math.ceil(c * math.log2(n))

    b = GraphBuilder()
    sids = [("A", i) for i in range(k)] + [("B", j) for j in range(k)]

    chain_end: dict[tuple[str, int], int] = {}
    for sid in sids:
        prev = None
        for t in range(list_len):
            tid = b.add_task(
                TaskKind.FORWARD_INPUT,
                level=t,
                meta={"role": "input", "stripe": sid, "seq": t},
            )
            if prev is not None:
                b.add_edge(prev, tid)
            prev = tid
        chain_end[sid] = prev

    # broadcast trees in heap layout: node p has children 2p and 2p+1,
    # leaves sit at positions k..2k-1 in left-to-right order
    leaf: dict[tuple[str, int], list[int]] = {}
    for sid in sids:
        nodes: list[int | None] = [None] * (2 * k)
        for pos in range(1, 2 * k):
            depth = pos.bit_length() - 1
            nodes[pos] = b.add_task(
                TaskKind.TREE_BROADCAST,
                level=list_len + depth,
                meta={"role": "tree", "stripe": sid, "pos": pos},
            )
        b.add_edge(chain_end[sid], nodes[1])
        for pos in range(1, k):
            b.add_edge(nodes[pos], nodes[2 * pos])
            b.add_edge(nodes[pos], nodes[2 * pos + 1])
        leaf[sid] = [nodes[k + t] for t in range(k)]

    mul_level = list_len + log2k + 1
    for i in range(k):
        for j in range(k):
            mul = b.add_task(
                TaskKind.MULTIPLY,
                level=mul_level,
                meta={"role": "multiply", "i": i, "j": j},
            )
            b.add_edge(leaf[("A", i)][j], mul)
            b.add_edge(leaf[("B", j)][i], mul)
            prev = mul
            for t in range(list_len):
                tid = b.add_task(
                    TaskKind.FORWARD_OUTPUT,
                    level=mul_level + 1 + t,
                    meta={"role": "output", "i": i, "j": j, "seq": t},
                )
                b.add_edge(prev, tid)
                prev = tid

    g = b.freeze(require_leveled=True)
    assert g.max_degree <= 2
    return g


# ---------------------------------------------------------------------------
# Application


class MatmulApp:
    """Worker, source, and target behavior for blocked multiplication.

    Digest hints are keyed with a per-instance secret so nothing can be
    precomputed; the key lives on this object and the adversary-facing
    corrupt/forge helpers never touch it, which is how the simulation
    states "stripe digests are unforgeable".
    """

    def __init__(
        self,
        instance: MatmulInstance,
        tau: int,
        key: bytes,
        c: float = 1.0,
    ) -> None:
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.instance = instance
        self.tau = tau
        self.graph = build_matmul_graph(instance.k, c)
        self._key = key

        k, m = instance.k, instance.m
        self._w = m // k
        a_str, b_str = stripes(instance.a, instance.b, k)
        self._stripe: dict[tuple[str, int], np.ndarray] = {}
        self._hint: dict[tuple[str, int], bytes] = {}
        for i in range(k):
            self._stripe[("A", i)] = a_str[i]
            self._stripe[("B", i)] = b_str[i]
        for sid, mat in self._stripe.items():
            self._hint[sid] = self._digest(mat)

        g = self.graph
        self._olist: dict[tuple[int, int], list[int]] = {}
        for v in range(g.n):
            meta = g.meta[v]
            if meta["role"] == "output":
                self._olist.setdefault((meta["i"], meta["j"]), []).append(v)
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    # -- digesting ---------------------------------------------------------

    def _digest(self, mat: np.ndarray) -> bytes:
        return digest(serialize_matrix(mat), self._key)

    def _stripe_shape(self, sid: tuple[str, int]) -> tuple[int, int]:
        m, w = self.instance.m, self._w
        return (w, m) if sid[0] == "A" else (m, w)

    def _check_stripe(self, payload, sid, metrics: Metrics, role="worker") -> bool:
        shape = self._stripe_shape(sid)
        if (
            not isinstance(payload, np.ndarray)
            or payload.dtype != np.uint64
            or payload.shape != shape
        ):
            return False
        metrics.charge_verify(role, payload.size)
        if not bool(np.all(payload < MODULUS)):
            return False
        return self._digest(payload) == self._hint[sid]

    def _check_triple(self, payload, i, j, metrics: Metrics, role="worker") -> bool:
        w = self._w
        if not (isinstance(payload, tuple) and len(payload) == 3):
            return False
        a_i, b_j, c_ij = payload
        if (
            not isinstance(c_ij, np.ndarray)
            or c_ij.dtype != np.uint64
            or c_ij.shape != (w, w)
            or not bool(np.all(c_ij < MODULUS))
        ):
            return False
        metrics.charge_verify(role, w * w)
        return self._check_stripe(a_i, ("A", i), metrics, role) and self._check_stripe(
            b_j, ("B", j), metrics, role
        )

    # -- engine-facing interface --------------------------------------------

    def source_payload(self, task: int) -> np.ndarray:
        return self._stripe[self.graph.meta[task]["stripe"]]

    def payload_size(self, payload) -> int:
        if isinstance(payload, np.ndarray):
            return int(payload.size)
        if isinstance(payload, tuple):
            return sum(
                int(p.size) for p in payload if isinstance(p, np.ndarray)
            )
        return 1

    def hint_units(self, task: int) -> int:
        role = self.graph.meta[task]["role"]
        return 1 if role in ("input", "tree") else 2

    def execute(self, task: int, inputs, sup: SupervisorState, rng,
                metrics: Metrics):
        meta = self.graph.meta[task]
        role = meta["role"]
        preds = self.graph.preds[task]

        if role in ("input", "tree"):
            payload = inputs[0]
            if not self._check_stripe(payload, meta["stripe"], metrics):
                # a list head reads from the reliable source, so only the
                # relayed copies can ever fail this
                return (Reject(preds), None) if preds else (Silent, None)
            return _DONE_PLAIN, payload

        if role == "multiply":
            i, j = meta["i"], meta["j"]
            a_i, b_j = inputs
            bad = []
            if not self._check_stripe(a_i, ("A", i), metrics):
                bad.append(preds[0])
            if not self._check_stripe(b_j, ("B", j), metrics):
                bad.append(preds[1])
            if bad:
                return Reject(bad), None
            c_ij = read_only(f_matmul(a_i, b_j, metrics=metrics, role="worker"))
            return _DONE_PLAIN, (a_i, b_j, c_ij)

        # output list: re-verify the block before vouching for it
        i, j = meta["i"], meta["j"]
        payload = inputs[0]
        if not self._check_triple(payload, i, j, metrics):
            return Reject(preds), None
        a_i, b_j, c_ij = payload
        if not freivalds(a_i, b_j, c_ij, self.tau, rng, metrics=metrics):
            return Reject(preds), None
        return Done(self._digest(c_ij)), payload

    def supervisor_on_done(self, task: int, aux, sup: SupervisorState) -> bool:
        role = self.graph.meta[task]["role"]
        if role == "output":
            if not (isinstance(aux, bytes) and len(aux) == 16):
                return False
            sup.digests[task] = aux
            return True
        return aux is None

    def target_verify(
        self, task: int, payload, sup: SupervisorState, metrics: Metrics
    ) -> bool:
        meta = self.graph.meta[task]
        i, j = meta["i"], meta["j"]
        if not self._check_triple(payload, i, j, metrics, role="target"):
            return False
        votes = [
            sup.digests[v] for v in self._olist[(i, j)] if v in sup.digests
        ]
        winner = majority_digest(votes)
        return winner is not None and self._digest(payload[2]) == winner

    def target_collect(self, task: int, payload, metrics: Metrics) -> None:
        meta = self.graph.meta[task]
        self._blocks[(meta["i"], meta["j"])] = payload[2]

    def target_drop(self, task: int) -> None:
        meta = self.graph.meta[task]
        self._blocks.pop((meta["i"], meta["j"]), None)

    def target_finalize(self, sup: SupervisorState) -> set[int]:
        return set()

    def result(self) -> np.ndarray:
        m, w = self.instance.m, self._w
        out = np.zeros((m, m), dtype=np.uint64)
        for (i, j), blk in self._blocks.items():
            out[i * w : (i + 1) * w, j * w : (j + 1) * w] = blk
        return out

    # -- adversary-facing helpers (no key material) ---------------------------

    def _perturb(self, mat: np.ndarray, rng) -> np.ndarray:
        out = mat.copy()
        flat = out.reshape(-1)
        pos = int(rng.integers(0, flat.size))
        flat[pos] = (int(flat[pos]) + 1 + int(rng.integers(0, MODULUS - 1))) % MODULUS
        return out

    def corrupt_payload(self, payload, rng):
        if isinstance(payload, np.ndarray):
            return self._perturb(payload, rng)
        a_i, b_j, c_ij = payload
        return (a_i, b_j, self._perturb(c_ij, rng))

    def forge_payload(self, task: int, rng):
        meta = self.graph.meta[task]
        m, w = self.instance.m, self._w
        if meta["role"] in ("input", "tree"):
            shape = self._stripe_shape(meta["stripe"])
            return rng.integers(0, MODULUS, size=shape, dtype=np.uint64)
        return (
            rng.integers(0, MODULUS, size=(w, m), dtype=np.uint64),
            rng.integers(0, MODULUS, size=(m, w), dtype=np.uint64),
            rng.integers(0, MODULUS, size=(w, w), dtype=np.uint64),
        )

    def forge_aux(self, task: int, rng):
        if self.graph.meta[task]["role"] == "output":
            return rng.bytes(16)
        return None

    def truncate_payload(self, payload, k: int):
        # fixed-shape payloads: withholding part of a matrix is just a
        # corruption, so hand back a perturbed copy instead
        return payload


def make_matmul_app(
    m: int, k: int, tau: int, rng: np.random.Generator, c: float = 1.0
) -> MatmulApp:
    """Instance and application from a trial's instance stream."""
    inst = random_instance(m, k, rng)
    return MatmulApp(inst, tau=tau, c=c, key=rng.bytes(16))
