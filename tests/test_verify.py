import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supsim.metrics import Metrics
from supsim.rngs import stream
from supsim.verify import (
    MODULUS,
    SigningKey,
    _CHUNK,
    digest,
    f_matmul,
    f_reduce,
    freivalds,
    freivalds_once,
    majority_digest,
    serialize_matrix,
    sign_items,
    verify_items,
)

from _oracles import P, exhaustive_freivalds_rate, py_matmul_mod

# entries at the edges of f_matmul's 21-bit limbs, and inner dimensions at
# the edges of its float64 chunks
LIMB_EDGES = np.array(
    [0, 1, 2**21 - 1, 2**21, 2**42 - 1, 2**42, P - 1], dtype=np.uint64
)
CHUNK_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _arr(rows):
    return np.array(rows, dtype=np.uint64)


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=200)
def test_f_reduce_matches_python_ints(x):
    got = f_reduce(_arr([x]))
    assert int(got[0]) == x % P


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_f_matmul_matches_bigint_oracle(seed, rows, inner, cols):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(rows, inner), dtype=np.uint64)
    b = rng.integers(0, P, size=(inner, cols), dtype=np.uint64)
    got = f_matmul(a, b)
    assert got.tolist() == py_matmul_mod(a.tolist(), b.tolist())


@pytest.mark.parametrize("inner", [1] + CHUNK_EDGES)
def test_f_matmul_all_entries_p_minus_1(inner):
    # the largest grouped float64 sums the kernel can meet
    a = np.full((2, inner), P - 1, dtype=np.uint64)
    b = np.full((inner, 3), P - 1, dtype=np.uint64)
    assert f_matmul(a, b).tolist() == py_matmul_mod(a.tolist(), b.tolist())


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from([1, 2, 3] + CHUNK_EDGES),
    st.integers(1, 3),
)
@settings(max_examples=30, deadline=None)
def test_f_matmul_exact_at_limb_edges(seed, rows, inner, cols):
    rng = np.random.default_rng(seed)
    a = rng.choice(LIMB_EDGES, size=(rows, inner))
    b = rng.choice(LIMB_EDGES, size=(inner, cols))
    assert f_matmul(a, b).tolist() == py_matmul_mod(a.tolist(), b.tolist())


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.sampled_from([1, 5] + CHUNK_EDGES),
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_f_matmul_column_vector_operand(seed, rows, inner, mask):
    # the mat-vec shape Freivalds uses: 0/1 masks and field vectors
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(rows, inner), dtype=np.uint64)
    high = 2 if mask else P
    x = rng.integers(0, high, size=(inner, 1), dtype=np.uint64)
    assert f_matmul(a, x).tolist() == py_matmul_mod(a.tolist(), x.tolist())


@pytest.mark.parametrize(
    "rows, inner, cols", [(0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)]
)
def test_f_matmul_empty_shapes(rows, inner, cols):
    a = np.ones((rows, inner), dtype=np.uint64)
    b = np.ones((inner, cols), dtype=np.uint64)
    got = f_matmul(a, b)
    assert got.shape == (rows, cols) and got.dtype == np.uint64
    assert got.tolist() == py_matmul_mod(a, b)


def test_f_matmul_charges_multiply_adds():
    m = Metrics()
    a = np.ones((3, 4), dtype=np.uint64)
    b = np.ones((4, 5), dtype=np.uint64)
    f_matmul(a, b, metrics=m, role="worker")
    assert m.comp_work["worker"] == 3 * 4 * 5


def test_freivalds_charges_only_the_matvec_part():
    # the two masked sums (B_j r and C r) are additions only; each
    # repetition costs rows*inner multiply-adds from y = A_i (B_j r)
    rng = np.random.default_rng(5)
    a = rng.integers(0, P, size=(4, 12), dtype=np.uint64)
    b = rng.integers(0, P, size=(12, 4), dtype=np.uint64)
    c = f_matmul(a, b)
    m = Metrics()
    assert freivalds(a, b, c, tau=6, rng=rng, metrics=m, role="worker")
    assert m.comp_work["worker"] == 6 * 4 * 12


def test_freivalds_accepts_correct_products():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, P, size=(4, 6), dtype=np.uint64)
        b = rng.integers(0, P, size=(6, 4), dtype=np.uint64)
        c = f_matmul(a, b)
        assert freivalds(a, b, c, tau=8, rng=rng)


def test_freivalds_single_entry_error_rate_is_exactly_half():
    # one wrong entry leaves a rank-one difference detected iff the
    # corresponding mask bit is set, so exactly half of all r accept
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        b = rng.integers(0, P, size=(4, 4), dtype=np.uint64)
        c = f_matmul(a, b)
        i, j = rng.integers(0, 4, size=2)
        c[i, j] = (int(c[i, j]) + 1 + int(rng.integers(0, P - 1))) % P
        assert exhaustive_freivalds_rate(a.tolist(), b.tolist(), c.tolist()) == 0.5


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_freivalds_exhaustive_rate_at_most_half(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, P, size=(3, 3), dtype=np.uint64)
    b = rng.integers(0, P, size=(3, 3), dtype=np.uint64)
    c = rng.integers(0, P, size=(3, 3), dtype=np.uint64)
    if np.array_equal(c, f_matmul(a, b)):
        return
    assert exhaustive_freivalds_rate(a.tolist(), b.tolist(), c.tolist()) <= 0.5


def test_freivalds_once_uses_given_mask():
    a = np.array([[1, 0], [0, 1]], dtype=np.uint64)
    b = np.array([[2, 3], [4, 5]], dtype=np.uint64)
    c = f_matmul(a, b)
    wrong = c.copy()
    wrong[0, 0] = (int(wrong[0, 0]) + 1) % P
    r0 = np.array([0, 1], dtype=np.uint64)
    r1 = np.array([1, 0], dtype=np.uint64)
    assert freivalds_once(a, b, wrong, r0)  # error column unmasked
    assert not freivalds_once(a, b, wrong, r1)


def test_serialize_matrix_is_shape_sensitive():
    a = np.arange(6, dtype=np.uint64).reshape(2, 3)
    b = np.arange(6, dtype=np.uint64).reshape(3, 2)
    assert serialize_matrix(a) != serialize_matrix(b)
    assert serialize_matrix(a) == serialize_matrix(a.copy())


def test_digest_is_keyed_and_sensitive():
    key = b"k" * 16
    d = digest(b"payload", key)
    assert len(d) == 16
    assert d == digest(b"payload", key)
    assert d != digest(b"payloae", key)
    assert d != digest(b"payload", b"j" * 16)


def test_majority_digest_picks_strict_majority():
    a, b = b"a" * 16, b"b" * 16
    assert majority_digest([a, a, b]) == a
    assert majority_digest([a, a, b, b]) is None
    assert majority_digest([]) is None
    assert majority_digest([b]) == b


def test_signed_items_roundtrip_and_tamper():
    rng = stream(99, 3)
    key = SigningKey.generate(rng)
    vals = rng.integers(0, P, size=50, dtype=np.uint64)
    idxs = np.arange(1, 51, dtype=np.uint64)
    t0, t1 = sign_items(vals, idxs, key)
    assert bool(verify_items(vals, idxs, t0, t1, key).all())
    bad_vals = vals.copy()
    bad_vals[7] += np.uint64(1)
    ok = verify_items(bad_vals, idxs, t0, t1, key)
    assert not ok[7] and ok.sum() == 49
    bad_idx = idxs.copy()
    bad_idx[3] = 999
    ok = verify_items(vals, bad_idx, t0, t1, key)
    assert not ok[3]
    # tags are not transferable between keys
    other = SigningKey.generate(stream(100, 3))
    assert not verify_items(vals, idxs, t0, t1, other).all()


def test_digest_rejects_wrong_key_type():
    with pytest.raises(TypeError):
        digest(b"x", "not-bytes")
