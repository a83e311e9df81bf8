"""Supervised mergesort with authenticated items.

The source permutes the m input values, indexes them 1..m in permuted
order, and signs every (value, index) pair.  Each of the n initial
blocks is sorted by a chain of partial-sort tasks, then routed through
log2(n) merge layers.  Routing is by quantile ranges: the source samples
n items without replacement, sorts them, and every merge task owns a
half-open cyclic interval between two quantiles, refined by a factor of
two per layer (quantile indices follow the bit-reversal order, which is
what makes each layer's groups partition the whole value cycle).  The
last layer's n tasks hold exactly the runs between consecutive
quantiles; each feeds a forwarding list whose tail hands the stream to
the target.

Every consumer re-checks what it is fed: item count against the
sender's declared split, signatures, strict (value, index) order, index
membership in the sender's block segment, and value membership in the
consumer's own quantile range.  Counts declared to the supervisor must
be conserved, so an item can be dropped or duplicated only at the price
of a detectable mismatch one hop later.
"""

from __future__ import annotations

import math

import numpy as np

from .metrics import Metrics
from .protocol import TARGET, Done, Reject, Silent, SupervisorState, read_only
from .taskgraph import GraphBuilder, TaskGraph, TaskKind, _is_pow2
from .verify import SigningKey, sign_items, verify_items


def bit_reversal(j: int, bits: int) -> int:
    """Reverse the low `bits` bits of j."""
    if not 0 <= j < (1 << bits):
        raise ValueError(f"j={j} out of range for {bits} bits")
    out = 0
    for _ in range(bits):
        out = (out << 1) | (j & 1)
        j >>= 1
    return out


def _validate_params(m: int, n: int) -> None:
    if not _is_pow2(n) or n < 2:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    if m % n != 0 or not _is_pow2(m // n):
        raise ValueError(f"m={m} must be n times a power of two (n={n})")
    if m < n * math.ceil(math.log2(n)):
        raise ValueError(f"m={m} too small: need m >= n*ceil(log2 n) = "
                         f"{n * math.ceil(math.log2(n))}")


# ---------------------------------------------------------------------------
# Graph


def build_mergesort_graph(n: int, m: int, c: float = 1.0) -> TaskGraph:
    """Structure only; quantile ranges are instance data and live on the app.

    Per initial block: a chain of ceil(c*log2 n) partial-sort tasks, a
    splitter, then one task per merge layer, then per final run a
    forwarding list of the same length.  Sort task metadata carries the
    block-sort resolution it must verify (s_in) and produce (s_out), in
    log2 of the block size.
    """
    _validate_params(m, n)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    w = m // n
    big_s = (w).bit_length() - 1  # log2 of the block size
    log2n = n.bit_length() - 1
    chain_len = max(1, math.ceil(c * log2n))
    levels_per_task = max(1, math.ceil(big_s / chain_len))

    def s_of(t: int) -> int:
        return min(levels_per_task * t, big_s)

    b = GraphBuilder()
    split0 = []
    for j in range(n):
        prev = None
        for t in range(chain_len):
            tid = b.add_task(
                TaskKind.SORT_PARTIAL,
                level=t,
                meta={
                    "role": "sort",
                    "j": j,
                    "seq": t,
                    "s_in": s_of(t),
                    "s_out": s_of(t + 1),
                    "segment": (j * w + 1, (j + 1) * w),
                },
            )
            if prev is not None:
                b.add_edge(prev, tid)
            prev = tid
        sid = b.add_task(
            TaskKind.LAYER0_SPLIT,
            level=chain_len,
            meta={"role": "split0", "j": j, "segment": (j * w + 1, (j + 1) * w)},
        )
        b.add_edge(prev, sid)
        split0.append(sid)

    # merge layer i has n tasks: n >> i groups, each a partition of the
    # full value cycle into 2^i ranges
    prev_layer = {(j, 0): split0[j] for j in range(n)}
    layer_nodes: dict[tuple[int, int], int] = {}
    for i in range(1, log2n + 1):
        layer_nodes = {}
        pieces = 1 << i
        for g in range(n >> i):
            seg = (g * pieces * w + 1, (g + 1) * pieces * w)
            for k in range(pieces):
                tid = b.add_task(
                    TaskKind.MERGE_SPLIT,
                    level=chain_len + i,
                    meta={"role": "merge", "layer": i, "g": g, "k": k,
                          "segment": seg},
                )
                p0 = prev_layer[(2 * g, k >> 1)]
                p1 = prev_layer[(2 * g + 1, ((k - 1) % pieces) >> 1)]
                b.add_edge(p0, tid)
                b.add_edge(p1, tid)
                layer_nodes[(g, k)] = tid
        prev_layer = layer_nodes

    for k in range(n):
        prev = prev_layer[(0, k)]
        for t in range(chain_len):
            tid = b.add_task(
                TaskKind.FORWARD_OUTPUT,
                level=chain_len + log2n + 1 + t,
                meta={"role": "final", "k": k, "seq": t, "segment": (1, m)},
            )
            b.add_edge(prev, tid)
            prev = tid

    g = b.freeze(require_leveled=True)
    assert g.max_degree <= 2
    return g


# ---------------------------------------------------------------------------
# Item-level predicates (columns: value, index, tag0, tag1)


def _pair_ge(vals, idxs, q) -> np.ndarray:
    return (vals > q[0]) | ((vals == q[0]) & (idxs >= q[1]))


def _pair_lt(vals, idxs, q) -> np.ndarray:
    return (vals < q[0]) | ((vals == q[0]) & (idxs < q[1]))


def in_cyclic_range(vals, idxs, bounds) -> np.ndarray:
    """Membership of (value, index) pairs in a half-open cyclic interval.

    bounds is (lo, hi) of (value, index) pairs, or None for the full
    cycle.  lo > hi wraps around.
    """
    if bounds is None:
        return np.ones(vals.shape[0], dtype=bool)
    lo, hi = bounds
    ge = _pair_ge(vals, idxs, lo)
    lt = _pair_lt(vals, idxs, hi)
    return (ge & lt) if lo < hi else (ge | lt)


def _block_sorted(vals, idxs, block: int) -> bool:
    """Strict (value, index) order inside every aligned block."""
    if vals.shape[0] <= 1 or block <= 1:
        return True
    inc = (vals[:-1] < vals[1:]) | ((vals[:-1] == vals[1:]) & (idxs[:-1] < idxs[1:]))
    if block >= vals.shape[0]:
        return bool(np.all(inc))
    at_boundary = (np.arange(1, vals.shape[0]) % block) == 0
    return bool(np.all(inc | at_boundary))


# ---------------------------------------------------------------------------
# Application


class MergesortApp:
    """Worker, source, and target behavior for supervised mergesort.

    The signing key stays on this object; adversary-facing helpers
    corrupt or fabricate items without it, which is the simulation's
    rendering of "item tags are unforgeable".
    """

    def __init__(
        self,
        values: np.ndarray,
        n: int,
        rng: np.random.Generator,
        c: float = 1.0,
    ) -> None:
        values = np.asarray(values, dtype=np.uint64)
        if values.ndim != 1:
            raise ValueError("values must be a flat array")
        m = values.shape[0]
        _validate_params(m, n)
        self.m, self.n, self.c = m, n, c
        self.input_values = values.copy()
        self.graph = build_mergesort_graph(n, m, c)

        perm = rng.permutation(m)
        vals = values[perm]
        idxs = np.arange(1, m + 1, dtype=np.uint64)
        self._key = SigningKey.generate(rng)
        t0, t1 = sign_items(vals, idxs, self._key)
        self._items = read_only(np.column_stack([vals, idxs, t0, t1]))

        sel = rng.choice(m, size=n, replace=False)
        pairs = self._items[np.sort(sel)][:, :2]
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        self._quantiles = [
            (int(pairs[r, 0]), int(pairs[r, 1])) for r in order
        ]

        self._ranges: dict[int, tuple | None] = {}
        g = self.graph
        log2n = n.bit_length() - 1
        for v in range(g.n):
            meta = g.meta[v]
            role = meta["role"]
            if role == "merge":
                i, grp, k = meta["layer"], meta["g"], meta["k"]
                base = bit_reversal(grp << i, log2n) if log2n else 0
                stride = n >> i
                lo = self._quantiles[(base + k * stride) % n]
                hi = self._quantiles[(base + (k + 1) * stride) % n]
                self._ranges[v] = (lo, hi)
            elif role == "final":
                k = meta["k"]
                lo = self._quantiles[k]
                hi = self._quantiles[(k + 1) % n]
                self._ranges[v] = (lo, hi)
            else:
                self._ranges[v] = None

        self._streams: dict[int, np.ndarray] = {}

    # -- structural helpers ---------------------------------------------------

    def expected_in(self, task: int, sup: SupervisorState) -> int:
        preds = self.graph.preds[task]
        if not preds:
            return self.m // self.n
        counts = [sup.expected_counts.get((p, task)) for p in preds]
        if None in counts:
            raise LookupError(f"task {task} has undeclared predecessor counts")
        return sum(counts)

    # -- engine-facing interface ------------------------------------------------

    def source_payload(self, task: int) -> np.ndarray:
        j = self.graph.meta[task]["j"]
        w = self.m // self.n
        return self._items[j * w : (j + 1) * w]

    def payload_size(self, payload) -> int:
        return int(payload.shape[0]) if isinstance(payload, np.ndarray) else 1

    def hint_units(self, task: int) -> int:
        return len(self.graph.preds[task]) + 1

    def _check_run(
        self,
        arr,
        expect: int,
        segment: tuple[int, int],
        bounds,
        block: int,
        metrics: Metrics,
        role: str = "worker",
    ) -> bool:
        """All receiver-side checks for one incoming run."""
        if (
            not isinstance(arr, np.ndarray)
            or arr.dtype != np.uint64
            or arr.ndim != 2
            or arr.shape[1] != 4
        ):
            return False
        if arr.shape[0] != expect:
            return False
        if arr.shape[0] == 0:
            return True
        vals, idxs = arr[:, 0], arr[:, 1]
        metrics.charge_verify(role, 3 * arr.shape[0])
        if not bool(np.all(verify_items(vals, idxs, arr[:, 2], arr[:, 3], self._key))):
            return False
        if not _block_sorted(vals, idxs, block):
            return False
        lo, hi = segment
        if not bool(np.all((idxs >= lo) & (idxs <= hi))):
            return False
        if np.unique(idxs).size != idxs.size:
            return False
        return bool(np.all(in_cyclic_range(vals, idxs, bounds)))

    def execute(self, task: int, inputs, sup: SupervisorState, rng,
                metrics: Metrics):
        meta = self.graph.meta[task]
        role = meta["role"]
        preds = self.graph.preds[task]
        w = self.m // self.n

        if role == "sort":
            arr = inputs[0]
            ok = self._check_run(
                arr, w, meta["segment"], None, 1 << meta["s_in"], metrics
            )
            if not ok:
                return (Reject(preds), None) if preds else (Silent, None)
            metrics.saw_task_items(w)
            if meta["s_out"] > meta["s_in"]:
                metrics.charge_comp("worker", (meta["s_out"] - meta["s_in"]) * w)
                block_out = 1 << meta["s_out"]
                group = np.arange(w, dtype=np.uint64) // block_out
                order = np.lexsort((arr[:, 1], arr[:, 0], group))
                arr = read_only(arr[order])
            return Done((w,)), arr

        if role == "split0":
            arr = inputs[0]
            if not self._check_run(arr, w, meta["segment"], None, w, metrics):
                return Reject(preds), None
            metrics.saw_task_items(w)
            return self._split_and_done(task, arr, metrics)

        if role == "merge":
            runs = []
            offenders = []
            bounds = self._ranges[task]
            for p, arr in zip(preds, inputs):
                expect = sup.expected_counts[(p, task)]
                p_seg = self.graph.meta[p]["segment"]
                if self._check_run(arr, expect, p_seg, bounds, self.m, metrics):
                    runs.append(arr)
                else:
                    offenders.append(p)
            if offenders:
                return Reject(offenders), None
            merged = np.concatenate(runs)
            if merged.shape[0]:
                order = np.lexsort((merged[:, 1], merged[:, 0]))
                merged = merged[order]
            read_only(merged)
            metrics.charge_comp("worker", merged.shape[0])
            metrics.saw_task_items(merged.shape[0])
            if len(self.graph.succs[task]) == 2:
                return self._split_and_done(task, merged, metrics)
            return Done((int(merged.shape[0]),)), merged

        # forwarding list toward the target
        (p,) = preds
        arr = inputs[0]
        expect = sup.expected_counts[(p, task)]
        ok = self._check_run(
            arr, expect, self.graph.meta[p]["segment"], self._ranges[task],
            self.m, metrics,
        )
        if not ok:
            return Reject(preds), None
        metrics.saw_task_items(arr.shape[0])
        return Done((int(arr.shape[0]),)), arr

    def _split_and_done(self, task: int, arr: np.ndarray, metrics: Metrics):
        s0, s1 = self.graph.succs[task]
        mask = in_cyclic_range(arr[:, 0], arr[:, 1], self._ranges[s0])
        metrics.charge_comp("worker", arr.shape[0])
        low, high = read_only(arr[mask]), read_only(arr[~mask])
        outs = {s0: low, s1: high}
        return Done((int(low.shape[0]), int(high.shape[0]))), outs

    # -- supervisor side ----------------------------------------------------------

    def supervisor_on_done(self, task: int, aux, sup: SupervisorState) -> bool:
        succs = self.graph.succs[task]
        slots = max(1, len(succs))
        if not (
            isinstance(aux, tuple)
            and len(aux) == slots
            and all(isinstance(x, (int, np.integer)) and int(x) >= 0 for x in aux)
        ):
            return False
        try:
            expect = self.expected_in(task, sup)
        except LookupError:
            return False
        if sum(int(x) for x in aux) != expect:
            return False
        dests = succs if succs else (TARGET,)
        for dest, cnt in zip(dests, aux):
            sup.expected_counts[(task, dest)] = int(cnt)
        return True

    # -- target side ------------------------------------------------------------------

    def target_verify(
        self, task: int, payload, sup: SupervisorState, metrics: Metrics
    ) -> bool:
        expect = sup.expected_counts.get((task, TARGET))
        if expect is None:
            return False
        return self._check_run(
            payload, expect, (1, self.m), self._ranges[task], self.m,
            metrics, role="target",
        )

    def target_collect(self, task: int, payload, metrics: Metrics) -> None:
        self._streams[self.graph.meta[task]["k"]] = payload

    def target_drop(self, task: int) -> None:
        self._streams.pop(self.graph.meta[task]["k"], None)

    def _assemble(self) -> np.ndarray:
        q0 = self._quantiles[0]
        wrap = self._streams[self.n - 1]
        low_cnt = int(np.sum(_pair_lt(wrap[:, 0], wrap[:, 1], q0)))
        parts = [wrap[:low_cnt]]
        parts.extend(self._streams[k] for k in range(self.n - 1))
        parts.append(wrap[low_cnt:])
        return np.concatenate(parts)

    def target_finalize(self, sup: SupervisorState) -> set[int]:
        if len(self._streams) != self.n:
            return set(self.graph.final_tasks)
        full = self._assemble()
        ok = full.shape[0] == self.m
        if ok:
            idxs = np.sort(full[:, 1])
            ok = bool(
                idxs[0] == 1
                and idxs[-1] == self.m
                and np.unique(idxs).size == self.m
            )
        if ok:
            ok = _block_sorted(full[:, 0], full[:, 1], full.shape[0])
        if ok:
            return set()
        # per-stream checks make this unreachable without a tag forgery;
        # restart every delivery rather than guess at the culprit
        return set(self.graph.final_tasks)

    def result(self) -> np.ndarray:
        return self._assemble()[:, 0].copy()

    # -- adversary-facing helpers (no key material) --------------------------------------

    def corrupt_payload(self, payload, rng):
        if not isinstance(payload, np.ndarray) or payload.shape[0] == 0:
            return payload
        out = payload.copy()
        row = int(rng.integers(0, out.shape[0]))
        out[row, 0] += np.uint64(1)
        return out

    def forge_payload(self, task: int, rng):
        cnt = int(rng.integers(1, 4))
        return rng.integers(0, 1 << 61, size=(cnt, 4), dtype=np.uint64)

    def forge_aux(self, task: int, rng):
        slots = max(1, len(self.graph.succs[task]))
        return tuple(int(x) for x in rng.integers(0, self.m + 1, size=slots))

    def truncate_payload(self, payload, k: int):
        if not isinstance(payload, np.ndarray):
            return payload
        return payload[: max(0, payload.shape[0] - k)]


def read_values(path) -> np.ndarray:
    """Newline-delimited unsigned 64-bit integers; blank lines are skipped."""
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if not line.isdecimal() or int(line) >= 1 << 64:
                raise ValueError(
                    f"{path}:{lineno}: expected an unsigned 64-bit integer, "
                    f"got {line!r}"
                )
            vals.append(int(line))
    return np.array(vals, dtype=np.uint64)


def make_mergesort_app(
    m: int, n: int, rng: np.random.Generator, c: float = 1.0
) -> MergesortApp:
    """Instance and application from a trial's instance stream."""
    values = rng.integers(0, 1 << 61, size=m, dtype=np.uint64)
    return MergesortApp(values, n=n, c=c, rng=rng)
