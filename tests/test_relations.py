import numpy as np
import pytest

from conftest import count_spectral_norms, random_invertible, random_unitary, sigma
from orthopair import exact, invariants, relations
from orthopair.config import from_hadamard, pair_from_matrices, standard_pair
from orthopair.linalg import GAP_RATIO_REQUIRED, IndeterminateDimension, OffVariety, spectral_norm, worst_above
from orthopair.relations import (
    RELATION_TOL,
    _residual_stack,
    bipartite_relation_terms,
    commutant_dimension,
    commutator_operator,
    evaluate_relations,
    evaluate_word,
    graph_restriction,
    pair_relation_terms,
    require_relations,
    restrict,
    sandwich_relation_terms,
    word_products,
)


def coordinate_projectors(n):
    out = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    return out


def test_bipartite_relation_terms_rows():
    names = [name for name, _ in bipartite_relation_terms(3, 3, 1.0 / 6.0)]
    assert sum(name.startswith("idempotency") for name in names) == 6
    assert sum(name.startswith("edge") for name in names) == 2 * 9
    assert "edge x0x3x0" in names and "non-edge x0x1" in names
    assert "non-edge x0x3" not in names


def _edge_set_terms(k, m, r):
    """The graph relations as a loop over an explicit edge set: every ordered
    pair of distinct vertices, edges once per unordered pair."""
    edges = {frozenset((i, k + j)) for i in range(k) for j in range(m)}
    rel = [(f"idempotency x{i}", [(1.0, (i, i)), (-1.0, (i,))]) for i in range(k + m)]
    for i in range(k + m):
        for j in range(k + m):
            if i == j:
                continue
            if frozenset((i, j)) in edges:
                if i < j:
                    rel.append((f"edge x{i}x{j}x{i}", [(1.0, (i, j, i)), (-r, (i,))]))
                    rel.append((f"edge x{j}x{i}x{j}", [(1.0, (j, i, j)), (-r, (j,))]))
            else:
                rel.append((f"non-edge x{i}x{j}", [(1.0, (i, j))]))
    return rel


def _as_lists(terms):
    """A term list in the loop's form: relations and their terms as lists."""
    return [(name, list(rel)) for name, rel in terms]


def test_relation_terms_match_edge_set_loop():
    # same names, coefficients, words and order
    for k, m in [(1, 1), (2, 2), (3, 3), (3, 6), (6, 6), (2, 4), (1, 5)]:
        assert _as_lists(bipartite_relation_terms(k, m, 1.0 / 6.0)) == _edge_set_terms(k, m, 1.0 / 6.0)
    for n in (2, 3, 6):
        sums = [("sum p - 1", [(1.0, (i,)) for i in range(n)] + [(-1.0, ())]),
                ("sum q - 1", [(1.0, (n + j,)) for j in range(n)] + [(-1.0, ())])]
        assert _as_lists(pair_relation_terms(n)) == _edge_set_terms(n, n, 1.0 / n) + sums


def graph_residual(k, m, r, mats):
    return evaluate_relations(mats, bipartite_relation_terms(k, m, r))[0]


def sandwich_residual(P, qs, r):
    return evaluate_relations([P] + list(qs), sandwich_relation_terms(len(qs), r))[0]


def pair_residual(c):
    return evaluate_relations(c.matrices(), pair_relation_terms(c.n))[0]


def test_tl_residual_standard_pair(base_pair):
    assert graph_residual(6, 6, 1.0 / 6.0, base_pair.matrices()) <= 1e-13


def _relation_norms_by_loop(mats, terms):
    """The evaluator's reference: one spectral_norm per relation residual."""
    out = []
    for _, rel in terms:
        acc = np.zeros(mats[0].shape, dtype=complex)
        for coeff, word in rel:
            acc += coeff * evaluate_word(mats, word, mats[0].shape[0])
        out.append(spectral_norm(acc))
    return np.array(out)


def test_evaluate_relations_matches_spectral_norm_loop(base_pair):
    points = [(c.matrices(), pair_relation_terms(c.n))
              for c in (standard_pair(3), standard_pair(6), base_pair)]
    points += [(list(p.matrices), p.relations)
               for p in (restrict(base_pair, [1, 2, 3]), graph_restriction(base_pair, [1, 2, 3], [1, 2, 3]))]
    for mats, terms in points:
        worst, per = evaluate_relations(mats, terms)
        assert list(per) == [name for name, _ in terms]
        want = _relation_norms_by_loop(mats, terms)
        assert np.array_equal(np.array(list(per.values())), want)
        assert worst == want.max()


def _residual_stack_by_loop(mats, terms):
    """The residual stack term by term: each word through evaluate_word, added
    to its relation's residual in listed order."""
    stack = np.zeros((len(terms), *mats[0].shape), dtype=complex)
    for acc, (_, rel) in zip(stack, terms):
        for coeff, word in rel:
            acc += coeff * evaluate_word(mats, word, mats[0].shape[0])
    return stack


def test_residual_stack_matches_evaluate_word_loop(base_pair, family_sample):
    rng = np.random.default_rng(41)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    sixes = [base_pair, *(from_hadamard(x) for x in family_sample.points[::13][:3]), conj]
    points = [(standard_pair(n).matrices(), pair_relation_terms(n)) for n in (2, 3)]
    for c in sixes:
        points += [(c.matrices(), pair_relation_terms(6)),
                   (list(c.p[:3] + c.q[:3]), bipartite_relation_terms(3, 3, 1.0 / 6.0)),
                   ([sum(c.p[:3])] + list(c.q), sandwich_relation_terms(6, 0.5))]
    for mats, terms in points:
        assert np.array_equal(_residual_stack(mats, terms), _residual_stack_by_loop(mats, terms))


def test_residual_stack_refusals():
    rel = [("x0 x1", [(1.0, (0, 1))])]
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_relations([np.eye(2), np.full((2, 2), np.inf)], rel)
    with pytest.raises(ValueError, match="square of equal size"):
        evaluate_relations([np.eye(2), np.eye(3)], rel)
    with pytest.raises(ValueError, match="expected a matrix, got array of ndim 1"):
        evaluate_relations([np.eye(2), np.ones(2)], rel)
    with pytest.raises(ValueError, match="relation 'x0 x1' needs more than the 1 generators given"):
        evaluate_relations([np.eye(2)], rel)
    # a negative letter names no generator: refused naming its relation, by the kernel too
    with pytest.raises(ValueError, match="relation 'x0 x-1' has a negative letter"):
        evaluate_relations([np.eye(2), np.eye(2)], [("x0 x-1", [(1.0, (0, -1))])])
    with pytest.raises(ValueError, match="a word has a letter outside the generators 0..1"):
        word_products(np.stack([np.eye(2)] * 2), ((0, -1),))


def test_term_lists_are_memoised_tuples():
    # the builders hand out one immutable tuple per system
    for build, args in [(bipartite_relation_terms, (3, 3, 1.0 / 6.0)), (pair_relation_terms, (6,)),
                        (sandwich_relation_terms, (6, 0.5))]:
        terms = build(*args)
        assert build(*args) is terms
        assert isinstance(terms, tuple) and all(isinstance(rel, tuple) for _, rel in terms)


def test_residual_plan_compiled_once(standard6):
    # the identity's relation gate, 100 times: its term order and the product
    # kernel's plan of its words are each compiled once
    mats = list(standard6.p[:3] + standard6.q[:3])
    terms = bipartite_relation_terms(3, 3, 1.0 / 6.0)
    relations._compile.cache_clear()
    relations._word_plan.cache_clear()
    for _ in range(100):
        require_relations(mats, terms, "identity gate")
    for cache in (relations._compile, relations._word_plan):
        info = cache.cache_info()
        assert (info.misses, info.hits) == (1, 99)


def _products_by_loop(gens, words):
    """Each word's product through evaluate_word, at one batch index of the
    (k, ..., d, d) generator stack at a time."""
    out = np.empty((len(words), *gens.shape[1:]), dtype=complex)
    for idx in np.ndindex(gens.shape[1:-2]):
        mats = gens[(slice(None), *idx)]
        for n, word in enumerate(words):
            out[(n, *idx)] = evaluate_word(mats, word, gens.shape[-1])
    return out


def test_kernel_products_match_evaluate_word(base_pair, family_sample):
    # the kernel's words and generator stacks in the package: the u words and
    # their gradient's cofactor words over (P, q1, q2, q3), the z words over
    # (P, q1..q6) and the identity's pair words over (P | Q, q_m | p_m)
    rng = np.random.default_rng(44)
    h = random_invertible(rng, 6)
    hinv = np.linalg.inv(h)
    conj = pair_from_matrices([h @ p @ hinv for p in base_pair.p], [h @ q @ hinv for q in base_pair.q])
    points = [base_pair, *(from_hadamard(x) for x in family_sample.points[::8]), conj]

    def stacks(c):
        P, Q = sum(c.p[:3]), sum(c.q[:3])
        return {"u": np.stack([P, *c.q[:3]]), "z": np.stack([P, *c.q]),
                "identity": np.stack([(P, Q), *zip(c.q[:3], c.p[:3])])}

    for key, words in [("u", invariants.U_WORDS), ("u", invariants._COFACTOR_WORDS),
                       ("z", invariants._Z_WORDS), ("identity", invariants.U_WORDS[:3])]:
        gens = [stacks(c)[key] for c in points]
        batched = word_products(np.stack(gens, axis=1), words)  # [word, point, ...]
        for b, g in enumerate(gens):
            want = _products_by_loop(g, words)
            assert np.array_equal(word_products(g, words), want)
            assert np.array_equal(batched[:, b], want)


def test_residual_stack_of_a_list_equals_its_tuple(base_pair):
    # a plain list, with lists inside, is compiled from its tuple form
    mats = base_pair.matrices()
    terms = pair_relation_terms(6)
    as_lists = [[name, [[coeff, list(word)] for coeff, word in rel]] for name, rel in terms]
    assert np.array_equal(_residual_stack(mats, as_lists), _residual_stack(mats, terms))
    # a letter beyond the generators is refused naming its relation, in both forms
    for form in (terms, as_lists):
        with pytest.raises(ValueError, match="relation 'idempotency x11' needs more than the 11 generators given"):
            _residual_stack(mats[:11], form)


def test_require_relations_frobenius_screen_and_spectral_decision(base_pair, monkeypatch):
    tol = RELATION_TOL
    rel = [("a I", [(1.0, (0,))])]
    svds = count_spectral_norms(monkeypatch)
    require_relations(base_pair.matrices(), pair_relation_terms(6), "base pair")
    assert svds == []  # every Frobenius norm is within the gate: the screen takes no SVD
    # ||a I_6||_F = sqrt(6) a: at a = 0.7 tol the screen fails (1.7 tol) but the
    # spectral norm passes; at a = 1.3 tol the relation is reported
    low = 0.7 * tol * np.eye(6)
    assert np.linalg.norm(low) > tol >= np.linalg.norm(low, 2)
    svds.clear()
    require_relations([low], rel, "low")
    assert len(svds) == 1  # the screen cannot decide: one batched SVD does
    high = [1.3 * tol * np.eye(6)]
    worst, per = evaluate_relations(high, rel)
    with pytest.raises(OffVariety, match="^high: a I residual 1.300e-08 > 1.0e-08$") as info:
        require_relations(high, rel, "high")
    assert info.value.residual == worst == per["a I"]
    assert worst_above(np.stack(high), tol) == (0, worst)


def test_require_relations_matches_worst_residual(base_pair, family_sample):
    terms = bipartite_relation_terms(3, 3, 1.0 / 6.0)
    for c in (base_pair, *(from_hadamard(x) for x in family_sample.points[:3])):
        mats = list(c.p[:3] + c.q[:3])
        require_relations(mats, terms, "on the variety")
        bent = [mats[0] + 1e-6 * np.diag(np.arange(6.0))] + mats[1:]
        worst, per = evaluate_relations(bent, terms)
        name = max(per, key=per.get)
        assert worst > RELATION_TOL
        with pytest.raises(OffVariety) as info:
            require_relations(bent, terms, "bent")
        assert str(info.value).startswith(f"bent: {name} residual ")
        assert info.value.residual == worst
        stack = _residual_stack(bent, terms)
        assert worst_above(stack, RELATION_TOL) == (list(per).index(name), worst)
        assert worst_above(stack, worst) is None  # a tolerance equal to the worst residual passes


def test_evaluate_relations_overflow_names_the_relation(standard6):
    # finite entries whose squares overflow: a numerical failure, not bad input
    big = [1e200 * p for p in standard6.p] + list(standard6.q)
    with pytest.raises(OverflowError, match="idempotency x0"):
        evaluate_relations(big, pair_relation_terms(6))


def test_tl_residual_zero_representation():
    zeros = [np.zeros((4, 4))] * 4
    assert graph_residual(2, 2, 0.5, zeros) == 0.0


def test_tl_residual_on_x33_restriction(base_pair):
    point = graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])
    assert evaluate_relations(point.matrices, point.relations)[0] <= 1e-13
    assert graph_residual(3, 3, 1.0 / 6.0, list(point.matrices)) <= 1e-13


def test_tl_residual_conjugation_invariance(base_pair):
    rng = np.random.default_rng(14)
    base = graph_residual(6, 6, 1.0 / 6.0, base_pair.matrices())
    w = random_unitary(rng, 6)
    mats = [w @ m @ w.conj().T for m in base_pair.matrices()]
    assert abs(graph_residual(6, 6, 1.0 / 6.0, mats) - base) <= 1e-12


def test_tl_residual_graph_automorphism_invariance(base_pair):
    # exchanging the two rows of the bipartite graph together with the matrices
    point = graph_restriction(base_pair, [1, 2, 3], [1, 2, 3])
    mats = list(point.matrices)
    swapped = mats[3:] + mats[:3]
    assert abs(graph_residual(3, 3, 1.0 / 6.0, mats) - graph_residual(3, 3, 1.0 / 6.0, swapped)) <= 1e-14


def test_tl_residual_vertex_count_mismatch():
    with pytest.raises(ValueError):
        graph_residual(2, 2, 0.5, [np.eye(2)] * 3)


def test_bnn_residual(base_pair, standard6):
    assert pair_residual(standard6) <= 1e-13
    assert pair_residual(base_pair) <= 1e-13
    qs = list(standard6.q)
    qs[0] = 2.0 * qs[0]
    scaled = pair_from_matrices(list(standard6.p), qs)
    assert pair_residual(scaled) >= 1.0 - 1.0 / 6.0


def test_bnn_residual_on_family_sample(family_sample):
    from orthopair.config import from_hadamard

    for h in family_sample.points[:10]:
        c = from_hadamard(h)
        assert pair_residual(c) <= 1e-10
        assert c.residual <= 1e-10  # Newton corrector convergence certifies this


def test_restriction_residual_bounded_by_full_residual(family_sample):
    # every vertex-subset restriction inherits the configuration's residual
    from orthopair.config import from_hadamard

    c = from_hadamard(family_sample.points[5])
    tau = pair_residual(c)
    for p_sub, q_sub in [((1, 2), (1, 2, 3, 4)), ((1, 2, 3), (1, 2, 3)), ((4, 6), (2, 5))]:
        point = graph_restriction(c, p_sub, q_sub)
        assert evaluate_relations(point.matrices, point.relations)[0] <= tau + 1e-15


def test_an_residual_examples(standard6):
    P = standard6.p[0] + standard6.p[1] + standard6.p[2]
    assert sandwich_residual(P, list(standard6.q), 0.5) <= 1e-13
    qs = coordinate_projectors(6)
    assert sandwich_residual(np.eye(6), qs, 1.0) == 0.0
    assert sandwich_residual(np.zeros((6, 6)), qs, 0.0) == 0.0


def test_bkn_residual(base_pair):
    # one-sided quotient: three p's against the full q row at r = 1/6, with
    # the sum-to-identity relation on the q row only; it holds exactly on
    # restrictions of a valid configuration
    terms = bipartite_relation_terms(3, 6, 1.0 / 6.0) + (
        ("sum q - 1", tuple((1.0, (3 + j,)) for j in range(6)) + ((-1.0, ()),)),)
    assert evaluate_relations(list(base_pair.p[:3]) + list(base_pair.q), terms)[0] <= 1e-13
    # dropping a q breaks the row sum
    with pytest.raises(ValueError):
        evaluate_relations(list(base_pair.p[:3]) + list(base_pair.q[:5]), terms)


def test_two_idempotent_residual(base_pair):
    # the free pair of idempotents: only the two idempotency relations
    terms = [rel for rel in bipartite_relation_terms(1, 1, 0.0)
             if rel[0].startswith("idempotency")]
    P = sum(base_pair.p[i] for i in range(3))
    Q = sum(base_pair.q[j] for j in range(3))
    assert evaluate_relations([P, Q], terms)[0] <= 1e-13
    # the partial sums land on the rank-3, Tr PQ = 3/2 locus
    assert abs(np.trace(P @ Q) - 1.5) <= 1e-13
    assert evaluate_relations([0.5 * P, Q], terms)[0] >= 0.2


def test_a3_residual_ignores_sum(standard6):
    P = standard6.p[0] + standard6.p[1] + standard6.p[2]
    triple = list(standard6.q[:3])
    # the sum of three rank-1 q's is far from the identity, yet every
    # other sandwich relation of the triple holds exactly
    terms = sandwich_relation_terms(3, 0.5)
    assert evaluate_relations([P] + triple, terms)[0] > 0.4
    no_sum = [rel for rel in terms if not rel[0].startswith("sum")]
    assert evaluate_relations([P] + triple, no_sum)[0] <= 1e-13


def test_restrict(base_pair):
    point = restrict(base_pair, [1, 2, 3])
    assert evaluate_relations(point.matrices, point.relations)[0] <= 1e-13
    P = point.matrices[0]
    assert abs(np.trace(P) - 3.0) <= 1e-13
    full = restrict(base_pair, range(1, 7))
    assert np.allclose(full.matrices[0], np.eye(6), atol=1e-14)
    for make in (lambda s: restrict(base_pair, s), lambda s: graph_restriction(base_pair, s, [1, 2, 3]),
                 lambda s: graph_restriction(base_pair, [1, 2, 3], s)):
        with pytest.raises(ValueError, match="^empty subset$"):
            make([])
        for bad in ([0, 1], [6, 7]):
            with pytest.raises(ValueError, match=r"^subset indices must lie in 1\.\.6$"):
                make(bad)


def test_restrict_complement_is_sigma(base_pair):
    P123 = restrict(base_pair, [1, 2, 3]).matrices[0]
    P456 = restrict(base_pair, [4, 5, 6]).matrices[0]
    assert np.max(np.abs(sigma(P123) - P456)) <= 1e-14
    # sigma keeps the sandwich relations (partial sums are complementary)
    assert sandwich_residual(sigma(P123), list(base_pair.q), 0.5) <= 1e-13


def test_commutant_dimension_examples(standard6):
    assert commutant_dimension(standard6.matrices()) == 1
    assert commutant_dimension([np.eye(6)]) == 36
    e11, e22 = coordinate_projectors(2)
    assert commutant_dimension([e11, e22]) == 2


def test_commutant_dimension_refuses_without_gap():
    # two generators whose entry differences leave 2e-9 above the 1e-10 cut
    # and 4e-11 below it: a gap ratio of 50, so the dimension is undecided
    a = np.diag([0.0, 2e-9, 1.0, 1.0])
    b = np.diag([0.0, 0.0, 1.0, 1.0 + 4e-11])
    with pytest.raises(IndeterminateDimension) as info:
        commutant_dimension([a, b])
    assert info.value.gap_ratio < GAP_RATIO_REQUIRED
    assert commutant_dimension([a]) == 6


def test_commutant_dimension_reducible_pair(standard6):
    # p-system against itself commutes with every diagonal matrix
    mats = list(standard6.p) + list(standard6.p)
    assert commutant_dimension(mats) == 6


def _kron_commutator_operator(mats):
    """The commutator operator as a loop of np.kron blocks."""
    eye = np.eye(mats[0].shape[0])
    return np.vstack([np.kron(eye, m.T) - np.kron(m, eye) for m in mats])


def test_commutator_operator_matches_kron_loop(standard6, base_pair, family_sample):
    # the same products and differences as the loop, so equal, not close
    rng = np.random.default_rng(35)
    stacks = [standard_pair(3).matrices(), standard6.matrices(), base_pair.matrices(),
              *(from_hadamard(h).matrices() for h in family_sample.points[::13][:3]),
              list(rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)))]
    for mats in stacks:
        assert np.array_equal(commutator_operator(mats), _kron_commutator_operator(mats))


def test_orbit_rank_exact_oracle_n3():
    """Exact-rank cross-check of the commutator span over Q(eps)."""
    c3 = standard_pair(3)
    K = commutator_operator(c3.matrices())
    s = np.linalg.svd(K, compute_uv=False)
    float_rank = int(np.sum(s > 1e-10 * s[0]))

    # the same matrix over Q(eps): entries of the n = 3 projectors are
    # (1/3) eps^(2k) since eps^2 is a primitive cube root
    def q6_entry(z):
        # round a float entry of K to the exact lattice (1/3) Z[eps]
        target = 3.0 * z
        for a in range(-9, 10):
            for b in range(-9, 10):
                cand = exact.Q6(a, b)
                if abs(cand.to_complex() - target) < 1e-9:
                    return exact.Q6(a, b) * exact.Q6(1, 0) / 3
        raise AssertionError(f"entry {z} not on the expected lattice")

    rows = [[q6_entry(K[i, j]) for j in range(K.shape[1])] for i in range(K.shape[0])]
    assert exact.exact_rank(rows) == float_rank == 8
