"""Feature-interaction layer tests against explicit double-loop oracles.

Every catalogued configuration is evaluated on random embeddings and
compared entry by entry with a plain numpy rewrite of its defining sum.
"""

from dataclasses import replace

import numpy as np
import pytest

from ctrzoo.errors import CatalogError, ContractError, DomainError
from ctrzoo.interaction import (
    MODEL_NAMES,
    fi_catalog,
    fi_forward,
    ordered_pairs,
    sym_pair_index,
)
from ctrzoo.tape import ParameterStore, Tape

N, B, D = 4, 3, 4
AFM_T = 5


def softmax_np(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def make_fields(rng, n=N, b=B, d=D):
    f = rng.normal(size=(n, b, d))
    return f


def as_nodes(tape, f):
    """Per-field arrays (n, B, d) as the stacked (B, n, d) node fi_forward reads."""
    return tape.constant(np.transpose(f, (1, 0, 2)))


def as_aware_node(tape, aware):
    """Field-aware arrays keyed (i, j) as the two (B, m, d) nodes over the pairs i < j."""
    n = max(i for i, _ in aware) + 1
    first, second = np.triu_indices(n, 1)
    mine = np.stack([aware[(i, j)] for i, j in zip(first, second)], axis=1)
    theirs = np.stack([aware[(j, i)] for i, j in zip(first, second)], axis=1)
    return tape.constant(mine), tape.constant(theirs)


def per_entry(node):
    """Split an fi_forward output along its field (or pair) axis."""
    return [node.value[:, k] for k in range(node.value.shape[1])]


def make_slots(rng, n=N, d=D):
    """One store holding every slot any catalogued config can read."""
    store = ParameterStore(seed=0)
    store.add_value("fi.k", rng.normal(size=(d, d)))
    store.add_value("fi.q", rng.normal(size=(d, d)))
    store.add_value("fi.v", rng.normal(size=(d, d)))
    store.add_value("fi.attn_w", rng.normal(size=(AFM_T, d)))
    store.add_value("fi.attn_h", rng.normal(size=(AFM_T,)))
    store.add_value("fi.attn_b", rng.normal(size=(AFM_T,)))
    store.add_value("fi.fieldw", rng.normal(size=(n,)))
    store.add_value("fi.pairw", rng.normal(size=(n, n)))
    store.add_value("fi.pairw_sym", rng.normal(size=(n * (n - 1) // 2,)))
    store.add_value("fi.theta", rng.normal(size=(n, d)))
    store.add_value("fi.pairvec", rng.normal(size=(n * n, d)))
    store.add_value("fi.proj_p", rng.normal(size=(d,)))
    store.add_value("head", rng.normal(size=(n * n * d, 1)))
    return store


def grid_entries(cfg, f, store, grid_pairs=None):
    """The grid of a SAM2 config, one (B, d) entry per pair.

    fi_forward returns the grid contracted with the head weights, so entry
    (p, k) is its output under a head that is one-hot at row p*d + k.
    """
    n, b, d = np.shape(f)
    pairs = n * n if grid_pairs is None else len(grid_pairs)
    with_head = ParameterStore()
    for name in store.names():
        if name != "head":
            with_head.add_value(name, store.value(name))
    head = with_head.add_zeros("head", (pairs * d, 1))
    columns = []
    for row in range(pairs * d):
        head[...] = 0.0
        head[row, 0] = 1.0
        tape = Tape()
        columns.append(
            fi_forward(tape, cfg, as_nodes(tape, f), with_head, grid_pairs=grid_pairs, head="head").value
        )
    return list(np.stack(columns, axis=1).reshape(b, pairs, d).transpose(1, 0, 2))


def run_config(cfg, f, store, aware=None, grid_pairs=None):
    if cfg.neighborhood == "grid":
        return grid_entries(cfg, f, store, grid_pairs)
    tape = Tape()
    fields = as_aware_node(tape, aware) if aware is not None else as_nodes(tape, f)
    out = fi_forward(tape, cfg, fields, store, grid_pairs=grid_pairs)
    return per_entry(out)


# ---------------------------------------------------------------------------
# numpy oracles, one per catalogued configuration


def oracle_identity(f, p):
    return [f[i] for i in range(len(f))]


def oracle_fm(f, p):
    n = len(f)
    return [
        sum(np.sum(f[i] * f[j], axis=1) for j in range(n) if j != i) for i in range(n)
    ]


def oracle_ffm(aware, n):
    out = []
    for i in range(n):
        z = 0.0
        for j in range(n):
            if j != i:
                z = z + np.sum(aware[(i, j)] * aware[(j, i)], axis=1)
        out.append(z)
    return out


def oracle_fwfm(f, p):
    n = len(f)
    w = p["fi.pairw_sym"]
    return [
        sum(
            np.sum(f[i] * f[j], axis=1) * w[sym_pair_index(i, j, n)]
            for j in range(n)
            if j != i
        )
        for i in range(n)
    ]


def oracle_ipnn(f, p):
    n = len(f)
    th = p["fi.theta"]
    return [
        sum(np.sum(f[i] * f[j], axis=1) * float(th[i] @ th[j]) for j in range(n))
        for i in range(n)
    ]


def oracle_dcn(f, p):
    return [p["fi.fieldw"][i] * f[i] for i in range(len(f))]


def oracle_cin2(f, p):
    n = len(f)
    w = p["fi.pairw"]
    return [
        sum(np.sum(f[i] * f[j], axis=1) * w[i, j] for j in range(n)) for i in range(n)
    ]


def oracle_afm(f, p):
    n = len(f)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    scores = []
    for i, j in pairs:
        hidden = np.maximum((f[i] * f[j]) @ p["fi.attn_w"].T + p["fi.attn_b"], 0.0)
        scores.append(hidden @ p["fi.attn_h"])
    w = softmax_np(np.stack(scores, axis=-1))
    out = [np.zeros(f.shape[1]) for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        out[i] = out[i] + w[:, k] * ((f[i] * f[j]) @ p["fi.proj_p"])
    return out


def oracle_autoint(f, p):
    n = len(f)
    q, k, v = p["fi.q"], p["fi.k"], p["fi.v"]
    out = []
    for i in range(n):
        scores = np.stack(
            [np.sum((f[i] @ q.T) * (f[j] @ k.T), axis=1) for j in range(n)], axis=-1
        )
        w = softmax_np(scores)
        out.append(sum(w[:, [j]] * (f[j] @ v.T) for j in range(n)))
    return out


def oracle_sam2a(f, p):
    n = len(f)
    vecs = p["fi.pairvec"]
    return [
        np.sum(f[i] * f[j], axis=1)[:, None] * vecs[i * n + j]
        for i in range(n)
        for j in range(n)
    ]


def oracle_sam2e(f, p):
    n = len(f)
    return [
        np.sum(f[i] * f[j], axis=1)[:, None] * (f[i] * f[j])
        for i in range(n)
        for j in range(n)
    ]


def oracle_sam3a(f, p):
    n = len(f)
    k, vecs = p["fi.k"], p["fi.pairvec"]
    out = []
    for i in range(n):
        scores = np.stack(
            [np.sum(f[i] * (f[j] @ k.T), axis=1) for j in range(n)], axis=-1
        )
        w = softmax_np(scores)
        out.append(sum(w[:, [j]] * vecs[i * n + j] for j in range(n)))
    return out


def oracle_sam3e(f, p):
    n = len(f)
    k = p["fi.k"]
    out = []
    for i in range(n):
        scores = np.stack(
            [np.sum(f[i] * (f[j] @ k.T), axis=1) for j in range(n)], axis=-1
        )
        w = softmax_np(scores)
        out.append(sum(w[:, [j]] * (f[i] * f[j]) for j in range(n)))
    return out


ORACLES = {
    "LR": oracle_identity,
    "FM": oracle_fm,
    "FwFM": oracle_fwfm,
    "IPNN": oracle_ipnn,
    "DCN": oracle_dcn,
    "DeepFM-deep": oracle_identity,
    "CIN2": oracle_cin2,
    "AFM": oracle_afm,
    "AutoInt": oracle_autoint,
    "SAM1": oracle_identity,
    "SAM2_A": oracle_sam2a,
    "SAM2_E": oracle_sam2e,
    "SAM3_A": oracle_sam3a,
    "SAM3_E": oracle_sam3e,
}


# ---------------------------------------------------------------------------
# single pairs and neighborhood sums, by hand


def test_pair_with_unit_similarity_returns_utility():
    tape = Tape()
    fields = as_nodes(tape, np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
    out = fi_forward(tape, fi_catalog("SAM1"), fields, ParameterStore())
    assert out is fields


def test_pair_orthogonal_embeddings_vanish():
    out = run_config(fi_catalog("SAM2_E"), [[[1.0, 0.0]], [[0.0, 1.0]]], ParameterStore())
    # grid rows (0, 1) and (1, 0) pair the two orthogonal fields
    np.testing.assert_array_equal(out[1], [[0.0, 0.0]])
    np.testing.assert_array_equal(out[2], [[0.0, 0.0]])


def test_pair_inner_times_hadamard_hand_value():
    out = run_config(fi_catalog("SAM2_E"), [[[1.0, 0.0]], [[2.0, 0.0]]], ParameterStore())
    # pair (0, 1): <f0, f1> * (f0 * f1) = 2 * (2, 0)
    np.testing.assert_array_equal(out[1], [[4.0, 0.0]])


def test_pair_softmax_over_one_neighbor_weighs_it_fully():
    rng = np.random.default_rng(1)
    store = ParameterStore()
    store.add_value("fi.q", rng.normal(size=(2, 2)))
    store.add_value("fi.k", rng.normal(size=(2, 2)))
    store.add_value("fi.v", np.eye(2))
    out = run_config(fi_catalog("AutoInt"), [[[5.0, 6.0]]], store)
    np.testing.assert_array_equal(out[0], [[5.0, 6.0]])


def test_pair_nothing_to_emit_rejected():
    cfg = replace(fi_catalog("SAM1"), utility="one")
    with pytest.raises(ContractError):
        run_config(cfg, [[[1.0]]], ParameterStore())


def test_sum_singleton_equals_pair():
    # with two fields each "others" neighborhood holds one partner
    f = np.array([[[0.5, -1.0]], [[2.0, 3.0]]])
    out = run_config(fi_catalog("FM"), f, ParameterStore())
    pair = np.sum(f[0] * f[1], axis=1)
    np.testing.assert_array_equal(out[0], pair)
    np.testing.assert_array_equal(out[1], pair)


def test_sum_uniform_softmax_averages_utilities():
    # a zero query projection gives every pair the same score, so each
    # field's output is the plain average of the (identity) utilities
    store = ParameterStore()
    store.add_value("fi.q", np.zeros((3, 3)))
    store.add_value("fi.k", np.eye(3))
    store.add_value("fi.v", np.eye(3))
    fields = [[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]], [[0.0, 0.0, 6.0]]]
    out = run_config(fi_catalog("AutoInt"), fields, store)
    for row in out:
        np.testing.assert_allclose(row, [[1.0 / 3.0, 2.0 / 3.0, 2.0]], rtol=0, atol=1e-15)


def test_sum_pairwise_inner_hand_value():
    fields = [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1.0]]]
    out = run_config(fi_catalog("FM"), fields, ParameterStore())
    # field 1 against fields 0 and 2: <f1, f0> + <f1, f2> = 0 + 1
    np.testing.assert_array_equal(out[1], [1.0])


def test_sum_empty_neighborhood_rejected():
    # one field leaves an "others" neighborhood empty
    store = make_slots(np.random.default_rng(0), n=1)
    for name in ("FM", "FFM", "FwFM", "AFM"):
        cfg = fi_catalog(name)
        tape = Tape()
        if cfg.field_aware:
            fields = (tape.constant(np.zeros((1, 0, D))),) * 2
        else:
            fields = as_nodes(tape, np.ones((1, 1, D)))
        with pytest.raises(DomainError):
            fi_forward(tape, cfg, fields, store)


# ---------------------------------------------------------------------------
# catalog rows


def test_catalog_covers_all_models():
    for name in MODEL_NAMES:
        cfg = fi_catalog(name)
        assert cfg.model == name


def test_catalog_spot_rows():
    fm = fi_catalog("FM")
    assert (fm.similarity, fm.utility, fm.neighborhood) == ("inner", "one", "others")
    assert fi_catalog("FFM").field_aware
    assert fi_catalog("AFM").pair_softmax
    assert fi_catalog("AutoInt").softmax
    assert fi_catalog("SAM2_E").utility == "hadamard"
    assert fi_catalog("SAM3_A").similarity == "proj_k"
    assert not fi_catalog("SAM2_A").softmax


def test_catalog_unknown_model_rejected():
    with pytest.raises(CatalogError):
        fi_catalog("FM2000")


def test_sym_pair_index_enumerates_upper_triangle():
    n = 4
    expect = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
    for (i, j), pos in expect.items():
        assert sym_pair_index(i, j, n) == pos
        assert sym_pair_index(j, i, n) == pos
    with pytest.raises(DomainError):
        sym_pair_index(2, 2, n)


def test_ordered_pairs_counts():
    assert len(ordered_pairs(3)) == 9
    assert (1, 1) in ordered_pairs(3)
    assert ordered_pairs(3, upper_only=True) == [(0, 1), (0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# full-layer evaluation against the oracles


@pytest.mark.parametrize("name", [m for m in MODEL_NAMES if m != "FFM"])
def test_forward_matches_oracle(name):
    rng = np.random.default_rng(42)
    f = make_fields(rng)
    store = make_slots(rng)
    cfg = fi_catalog(name)
    if cfg.utility == "scalar_pair_sym":
        # the generic store names the symmetric table differently; remap
        cfg = replace(cfg)
        store2 = ParameterStore(seed=0)
        store2.add_value("fi.pairw", store.value("fi.pairw_sym"))
        for extra in ("fi.k", "fi.q", "fi.v"):
            store2.add_value(extra, store.value(extra))
        got = run_config(cfg, f, store2)
    else:
        got = run_config(cfg, f, store)
    params = {name_: store.value(name_) for name_ in store.names()}
    want = ORACLES[name](f, params)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_ffm_matches_oracle():
    rng = np.random.default_rng(7)
    aware = {
        (i, j): rng.normal(size=(B, D)) for i in range(N) for j in range(N) if i != j
    }
    got = run_config(fi_catalog("FFM"), None, ParameterStore(), aware=aware)
    want = oracle_ffm(aware, N)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_sam1_is_the_identity_on_fields():
    rng = np.random.default_rng(3)
    f = make_fields(rng)
    got = run_config(fi_catalog("SAM1"), f, ParameterStore())
    for i in range(N):
        np.testing.assert_array_equal(got[i], f[i])


def test_sam2e_equal_ones_pair_doubles():
    f = np.ones((2, 1, 2))  # two fields, both (1, 1)
    out = grid_entries(fi_catalog("SAM2_E"), f, ParameterStore())
    # ordered pairs of 2 fields: every entry is <f,f> * (f*f) = 2 * (1,1)
    assert len(out) == 4
    for value in out:
        np.testing.assert_array_equal(value, [[2.0, 2.0]])


def test_autoint_identity_projections_single_field():
    store = ParameterStore()
    store.add_value("fi.q", np.eye(2))
    store.add_value("fi.k", np.eye(2))
    store.add_value("fi.v", np.eye(2))
    f = np.array([[[0.3, -1.2]]])
    tape = Tape()
    out = per_entry(fi_forward(tape, fi_catalog("AutoInt"), as_nodes(tape, f), store))
    np.testing.assert_allclose(out[0], f[0], rtol=0, atol=1e-15)


def test_fm_output_is_quadratic_in_embedding_scale():
    rng = np.random.default_rng(11)
    f = make_fields(rng)
    got1 = run_config(fi_catalog("FM"), f, ParameterStore())
    got3 = run_config(fi_catalog("FM"), 3.0 * f, ParameterStore())
    for a, b in zip(got1, got3):
        np.testing.assert_allclose(b, 9.0 * a, rtol=1e-12, atol=1e-12)


def test_sam2e_grid_is_symmetric_in_the_pair():
    rng = np.random.default_rng(13)
    f = make_fields(rng)
    got = run_config(fi_catalog("SAM2_E"), f, ParameterStore())
    for i in range(N):
        for j in range(N):
            np.testing.assert_array_equal(got[i * N + j], got[j * N + i])


def test_softmax_similarity_weights_sum_to_one_per_field():
    # swap in a unit utility: each output reduces to the weight total
    rng = np.random.default_rng(17)
    f = make_fields(rng)
    store = make_slots(rng)
    cfg = replace(fi_catalog("SAM3_A"), utility="one")
    got = run_config(cfg, f, store)
    for z in got:
        np.testing.assert_allclose(z, np.ones(B), rtol=0, atol=1e-12)


def test_afm_attention_weights_sum_to_one_overall():
    rng = np.random.default_rng(19)
    f = make_fields(rng)
    store = make_slots(rng)
    cfg = replace(fi_catalog("AFM"), utility="one")
    got = run_config(cfg, f, store)
    total = np.sum(np.stack(got, axis=0), axis=0)
    np.testing.assert_allclose(total, np.ones(B), rtol=0, atol=1e-12)


def test_self_product_reads_the_target_field_twice():
    rng = np.random.default_rng(23)
    f = make_fields(rng)
    cfg = replace(fi_catalog("SAM2_E"), self_product=True)
    got = run_config(cfg, f, ParameterStore())
    for i in range(N):
        for j in range(N):
            want = np.sum(f[i] * f[j], axis=1)[:, None] * (f[i] * f[i])
            np.testing.assert_allclose(got[i * N + j], want, rtol=0, atol=1e-12)


def test_grid_respects_explicit_pair_list():
    rng = np.random.default_rng(29)
    f = make_fields(rng)
    pairs = ordered_pairs(N, upper_only=True)
    # the pair vectors hold one row per listed pair, as the model sizes them
    store = ParameterStore()
    store.add_value("fi.pairvec", make_slots(rng).value("fi.pairvec")[: len(pairs)])
    got = run_config(fi_catalog("SAM2_A"), f, store, grid_pairs=pairs)
    assert len(got) == N * (N - 1) // 2
    vecs = store.value("fi.pairvec")
    for pos, (i, j) in enumerate(pairs):
        want = np.sum(f[i] * f[j], axis=1)[:, None] * vecs[pos]
        np.testing.assert_allclose(got[pos], want, rtol=0, atol=1e-12)


def test_softmax_disabled_gives_raw_score_sums():
    rng = np.random.default_rng(31)
    f = make_fields(rng)
    store = make_slots(rng)
    cfg = replace(fi_catalog("SAM3_A"), softmax=False)
    got = run_config(cfg, f, store)
    k, vecs = store.value("fi.k"), store.value("fi.pairvec")
    for i in range(N):
        want = sum(
            np.sum(f[i] * (f[j] @ k.T), axis=1)[:, None] * vecs[i * N + j]
            for j in range(N)
        )
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)


def test_field_aware_config_requires_aware_embeddings():
    with pytest.raises(ContractError):
        fi_forward(Tape(), fi_catalog("FFM"), None, ParameterStore())


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_fi_forward_emits_as_many_nodes_at_eight_fields_as_at_three(name):
    cfg = fi_catalog(name)
    emitted = []
    for n in (3, 8):
        rng = np.random.default_rng(37)
        store = make_slots(rng, n=n)
        if cfg.utility == "scalar_pair_sym":
            sym = ParameterStore()
            sym.add_value("fi.pairw", store.value("fi.pairw_sym"))
            store = sym
        tape = Tape()
        if cfg.field_aware:
            aware = {(i, j): rng.normal(size=(B, D)) for i in range(n) for j in range(n) if i != j}
            fields = as_aware_node(tape, aware)
        else:
            fields = as_nodes(tape, make_fields(rng, n=n))
        before = len(tape)
        fi_forward(tape, cfg, fields, store, head="head")
        emitted.append(len(tape) - before)
    assert emitted[0] == emitted[1]
