from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupling_4tensor, random_ergodic_chain, tail_rows, unstamped_grand_coupling
from qcoupling import coupling
from qcoupling.chain import ATOL_COMPUTED, TransitionMatrix
from qcoupling.cli import resolve_model
from qcoupling.coupling import (
    EXACT_GUARD_N,
    CouplingMatrix,
    RandomMappingRep,
    check_tail_submultiplicativity,
    coalescence_tail_exact,
    coalescence_tail_mc,
    coupling_from_json_dict,
    grand_coupling_matrix,
    independent_coupling,
    induced_entries,
    pair_transition,
    rmr_to_json_dict,
    coupling_to_json_dict,
    tail_vectors,
    validate_coupling,
)
from qcoupling.csr import Csr
from qcoupling.errors import (
    GuardExceededError,
    InvalidInputError,
    NonErgodicError,
)
from qcoupling.models import hypercube_model, hypercube_worst_pair


class TestValidateCoupling:
    def test_independent_coupling_satisfies_all_conditions(self):
        rng = np.random.Generator(np.random.Philox(11))
        for n in (2, 3, 5):
            C = independent_coupling(random_ergodic_chain(n, rng))
            rep = validate_coupling(C)
            assert rep.valid, rep.issues

    @pytest.mark.parametrize("entries, missing", [
        (np.eye(2), "irreducible"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "aperiodic"),
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
         "irreducible and aperiodic"),
    ])
    def test_independent_coupling_rejects_non_ergodic(self, entries, missing):
        P = TransitionMatrix(tuple(map(str, range(len(entries)))), entries)
        with pytest.raises(NonErgodicError, match=f"chain is not ergodic: fails to be {missing}$"):
            independent_coupling(P)

    def test_grand_coupling_satisfies_all_conditions(self, hypercube3):
        rep = validate_coupling(unstamped_grand_coupling(hypercube3.rmr))
        assert rep.valid, rep.issues

    def test_broken_marginal_reported(self, hypercube2):
        C = hypercube2.coupling()
        E = C.entries.toarray()
        n = C.n
        # move weight within one off-diagonal start column: breaks condition 1
        col = 0 * n + 1
        src = np.nonzero(E[:, col])[0][0]
        dst = (src + 1) % (n * n)
        E[src, col] -= 0.05
        E[dst, col] += 0.05
        rep = validate_coupling(CouplingMatrix(base=C.base, entries=E))
        assert not rep.valid
        assert any("condition" in issue for issue in rep.issues)

    def test_diagonal_leak_reported(self, hypercube2):
        C = hypercube2.coupling()
        E = coupling_4tensor(C)
        E[0, 1, 2, 2] += 0.1  # diagonal start leaking to an off-diagonal pair
        E[0, 0, 2, 2] -= 0.1
        rep = validate_coupling(
            CouplingMatrix(base=C.base, entries=E.reshape(C.n**2, C.n**2))
        )
        assert not rep.details["coalescence"]

    def test_asymmetry_reported(self, hypercube2):
        C = hypercube2.coupling()
        E = coupling_4tensor(C)
        x, y = 0, 1
        # pick an off-diagonal successor pair: perturbing a diagonal one
        # (xp == yp) would cancel out and leave the matrix symmetric
        xps, yps = np.nonzero(E[:, :, x, y])
        xp, yp = next((a, b) for a, b in zip(xps, yps) if a != b)
        E[yp, xp, y, x] -= 0.01
        E[xp, yp, y, x] += 0.01
        rep = validate_coupling(
            CouplingMatrix(base=C.base, entries=E.reshape(C.n**2, C.n**2))
        )
        assert not rep.details["symmetry"]


MAPPING_MODELS = [
    ("hypercube1", 2.0), ("hypercube3", 2.0), ("hypercube6", 2.0),
    ("colorings-k3-q4", 2.0), ("colorings-path2-q4", 2.0), ("colorings-path3-q4", 2.0),
    ("hardcore-path3", 2.0), ("hardcore-path5", 2.0), ("hardcore-path8", 2.0),
    ("hardcore-path3", 0.5), ("hardcore-path5", 0.5), ("hardcore-path8", 0.5),
]


def _assert_stamp_equals_full_check(rmr):
    stamped = validate_coupling(rmr)
    assert grand_coupling_matrix(rmr)._validation == stamped
    assert validate_coupling(unstamped_grand_coupling(rmr)) == stamped


class TestValidByConstruction:
    """A mapping's report, stamped without a pair-space build, is the one the
    full check of its grand-coupling operator gives."""

    @pytest.mark.parametrize("name,fugacity", MAPPING_MODELS)
    def test_bundled_mappings(self, name, fugacity):
        rmr = resolve_model(name, SimpleNamespace(bias=0.5, fugacity=fugacity)).rmr
        _assert_stamp_equals_full_check(rmr)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), n_r=st.integers(1, 6))
    def test_tables_with_collisions_and_zero_weights(self, data, n, n_r):
        # few states and many values of r: successors collide; integer weights
        # with zeros give values of r that the operator stores nothing for
        table = np.array(data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=n_r, max_size=n_r),
            min_size=n, max_size=n)), dtype=np.int64)
        weights = np.array(data.draw(st.lists(
            st.integers(0, 3), min_size=n_r, max_size=n_r).filter(any)), dtype=float)
        probs = weights / weights.sum()
        base = TransitionMatrix(tuple(map(str, range(n))), induced_entries(table, probs))
        rmr = RandomMappingRep(base=base, r_labels=tuple(map(str, range(n_r))),
                               probs=probs, table=table)
        _assert_stamp_equals_full_check(rmr)
        assert validate_coupling(rmr).details == dict.fromkeys(
            ("stochastic", "marginals", "coalescence", "symmetry"), True)

    def test_base_free_mapping_is_valid(self):
        rmr = RandomMappingRep(base=None, r_labels=("a", "b"), probs=np.array([0.5, 0.5]),
                               table=np.array([[0, 1], [0, 1]]))
        assert validate_coupling(rmr).valid and rmr._operator is None


class TestRandomMappingRep:
    def test_marginal_mismatch_rejected(self, hypercube2):
        rmr = hypercube2.rmr
        bad_table = rmr.table.copy()
        bad_table[0, 0] = (bad_table[0, 0] + 1) % rmr.n
        with pytest.raises(InvalidInputError, match="does not reproduce"):
            RandomMappingRep(
                base=rmr.base, r_labels=rmr.r_labels, probs=rmr.probs, table=bad_table
            )

    def test_out_of_range_successor_rejected(self):
        with pytest.raises(InvalidInputError, match="out-of-range"):
            RandomMappingRep(
                base=None, r_labels=("r",), probs=np.array([1.0]),
                table=np.array([[5]]),
            )

    def test_empty_randomness_rejected(self):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            RandomMappingRep(base=None, r_labels=(), probs=np.zeros(0),
                             table=np.zeros((2, 0), dtype=np.int64))

    @pytest.mark.parametrize("table", [
        [[0.9, 1.7], [0.0, 1.0]], [[True, False], [False, True]], [[0.0, np.inf], [1.0, 0.0]],
    ], ids=["fractional", "boolean", "infinite"])
    def test_non_integer_table_rejected_not_truncated(self, table):
        with pytest.raises(InvalidInputError, match="integer successor indices"):
            RandomMappingRep(base=None, r_labels=("a", "b"), probs=np.array([0.5, 0.5]),
                             table=np.array(table))

    def test_integral_float_table_taken(self):
        rmr = RandomMappingRep(base=None, r_labels=("a", "b"), probs=np.array([0.5, 0.5]),
                               table=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert rmr.table.dtype == np.int64 and rmr.table.tolist() == [[1, 0], [0, 1]]

    def test_base_free_mapping_allowed(self):
        rmr = RandomMappingRep(
            base=None, r_labels=("a", "b"), probs=np.array([0.5, 0.5]),
            table=np.array([[0, 1], [0, 1]]),
        )
        assert rmr.n == 2

    def test_grand_coupling_requires_base(self):
        rmr = RandomMappingRep(
            base=None, r_labels=("a",), probs=np.array([1.0]),
            table=np.array([[0], [0]]),
        )
        with pytest.raises(InvalidInputError, match="base chain"):
            grand_coupling_matrix(rmr)


class TestExactTails:
    def test_hypercube2_closed_form(self, hypercube2):
        # worst-pair tail is exactly 2^(1-m) for the bit-refresh coupling
        report = coalescence_tail_exact(hypercube2.coupling(), m_max=10)
        for m in range(1, 11):
            assert report.tail_at(m) == pytest.approx(2.0 ** (1 - m), abs=1e-12)
        assert report.t_couple == 3

    def test_tails_monotone_per_pair(self, hypercube3):
        assert np.all(np.diff(tail_rows(hypercube3.coupling(), 8), axis=0) <= 1e-12)

    def test_increasing_tail_is_refused(self, hypercube3, monkeypatch):
        # a pair's tail that grows from one step to the next stops the run
        rmr = hypercube3.rmr

        def growing(coupling, m_max):
            for m, v in enumerate(tail_vectors(coupling, m_max)):
                yield v * 2 if m == 3 else v

        monkeypatch.setattr(coupling, "tail_vectors", growing)
        with pytest.raises(AssertionError, match="exact tails increased at m=3"):
            coalescence_tail_exact(rmr, m_max=5)

    def test_guard(self):
        rmr = hypercube_model(7).rmr  # N = 128 > EXACT_GUARD_N
        with pytest.raises(GuardExceededError, match=f"N <= {EXACT_GUARD_N}; N = 128"):
            coalescence_tail_exact(rmr, m_max=3)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_property_independent_coupling_tails_decay(self, seed):
        P = random_ergodic_chain(3, np.random.Generator(np.random.Philox(seed)))
        report = coalescence_tail_exact(independent_coupling(P), m_max=12)
        assert report.tail_max[-1] < report.tail_max[0] or report.tail_max[0] == 0


class TestSubmultiplicativity:
    def test_hypercube3_grid(self, hypercube3):
        C = hypercube3.coupling()
        report = coalescence_tail_exact(C, m_max=20)
        for m in (1, 3, 5):
            for l in (2, 4):
                assert check_tail_submultiplicativity(C, report, m, l).passed

    def test_diagonal_block_matches_chain_power(self, hypercube2):
        C = hypercube2.coupling()
        res = check_tail_submultiplicativity(C, coalescence_tail_exact(C, m_max=8), 4, 2)
        assert res.details["diag_block_error"] <= 1e-12

    @pytest.mark.parametrize("name", ["hypercube3", "hardcore-path3", "cycle5-prose"])
    @pytest.mark.parametrize("kind", ["off the diagonal", "added off the diagonal",
                                      "within the diagonal"])
    def test_perturbed_diagonal_column_fails(self, name, kind, monkeypatch):
        # half of the largest entry of diagonal column (0, 0) is moved to an
        # off-diagonal row, added there on top, or moved to another diagonal
        # row; the tails come from the true coupling, so only the block
        # identity can fail. A mapping's check reads D off its table, so its
        # pair operator is perturbed in its grand coupling matrix
        C = resolve_model(name, SimpleNamespace(bias=0.5, fugacity=2.0)).coupling()
        n = C.n
        report = coalescence_tail_exact(C, m_max=6)
        S = pair_transition(C).toarray()
        src = int(np.argmax(S[:, 0]))
        x = src // n
        assert src == x * (n + 1)  # the diagonal absorbs
        delta = S[src, 0] / 2
        y = (x + 1) % n
        dst = y * (n + 1) if kind == "within the diagonal" else x * n + y
        if kind != "added off the diagonal":
            S[src, 0] -= delta
        S[dst, 0] += delta
        monkeypatch.setattr(coupling, "pair_transition", lambda _: Csr.from_dense(S))
        res = check_tail_submultiplicativity(C, report, 2, 3)
        assert res.lhs <= res.rhs + ATOL_COMPUTED
        assert not res.passed
        assert res.details["diag_block_error"] >= delta


BUNDLED_EXACT = [
    "hypercube2", "hypercube3", "hypercube6", "colorings-k3-q4", "colorings-path2-q4",
    "colorings-path3-q4", "hardcore-path3", "hardcore-path4", "hardcore-path5",
    "cycle3-prose", "cycle5-prose",
]


def _exact_coupling(name):
    return resolve_model(name, SimpleNamespace(bias=0.5, fugacity=2.0)).exact_coupling()


class TestCutReport:
    @pytest.mark.parametrize("name", BUNDLED_EXACT)
    def test_cut_equals_fresh_run(self, name):
        C = _exact_coupling(name)
        full = coalescence_tail_exact(C, m_max=60)
        t = full.t_couple
        assert t is not None and t >= 1
        for m in (0, t - 1, t, t + 1, 60):
            cut, fresh = full.up_to(m), coalescence_tail_exact(C, m_max=m)
            assert cut.tail_max.tobytes() == fresh.tail_max.tobytes()
            assert cut.m_values.tobytes() == fresh.m_values.tobytes()
            assert cut.t_couple == fresh.t_couple == (t if m >= t else None)
            assert cut.pairs is fresh.pairs is None and cut.per_pair is fresh.per_pair is None

    def test_negative_m_max_rejected_before_pair_operator(self, hypercube2, monkeypatch):
        def unreachable(c):
            raise AssertionError("pair operator built before m_max was checked")

        monkeypatch.setattr(coupling, "pair_transition", unreachable)
        with pytest.raises(InvalidInputError, match="m_max must be >= 0, got -1"):
            coalescence_tail_exact(hypercube2.rmr, m_max=-1)

    def test_rejects_uncovered_m_and_mc_reports(self, hypercube2):
        full = coalescence_tail_exact(hypercube2.rmr, m_max=5)
        for m in (-1, 6):
            with pytest.raises(InvalidInputError, match="m_max must be in 0..5"):
                full.up_to(m)
        mc = coalescence_tail_mc(hypercube2.rmr, [(0, 3)], [1, 2], samples=100, seed=0)
        with pytest.raises(InvalidInputError, match="exact"):
            mc.up_to(1)


class TestMonteCarlo:
    def test_matches_exact_within_ci(self, hypercube2):
        # hypercube6 with 7001-element blocks: 333 rows of 21 words, so blocks
        # start at odd words (6993 k) and the last of 20 000 trajectories is partial
        cases = [
            (hypercube2, (0, 3), 8, coupling.MC_BLOCK_ELEMENTS, [5]),
            (hypercube_model(6), hypercube_worst_pair(6), 21, 7_001, [5, 17, 2026]),
        ]
        for model, pair, m_max, block, seeds in cases:
            exact = coalescence_tail_exact(model.coupling(), m_max=m_max)
            with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", block):
                for seed in seeds:
                    mc = coalescence_tail_mc(
                        model.rmr, [pair], list(range(m_max + 1)), samples=20_000, seed=seed
                    )
                    for i, m in enumerate(mc.m_values):
                        assert abs(mc.tail_max[i] - exact.tail_at(int(m))) <= 3 * mc.ci_half[i]
        with mock.patch.object(coupling, "MC_BLOCK_ELEMENTS", 7_001):
            assert coupling.mc_block_rows(21) == 333

    def test_seed_changes_result(self, hypercube3):
        a = coalescence_tail_mc(hypercube3.rmr, [(0, 7)], [5], samples=2_000, seed=1)
        b = coalescence_tail_mc(hypercube3.rmr, [(0, 7)], [5], samples=2_000, seed=2)
        assert not np.array_equal(a.per_pair, b.per_pair)

    def test_coupling_time_unresolved(self, hypercube3):
        mc = coalescence_tail_mc(
            hypercube3.rmr, [(0, 7)], [0, 1], samples=1_000, seed=3
        )
        assert mc.t_couple is None


class TestCouplingJson:
    def test_dense_roundtrip(self, hypercube2):
        C = hypercube2.coupling()
        C2 = coupling_from_json_dict(coupling_to_json_dict(C), hypercube2.chain)
        np.testing.assert_allclose(C2.entries.toarray(), C.entries.toarray(), atol=1e-15)
        assert validate_coupling(C2).valid

    def test_rmr_roundtrip(self, hypercube2):
        rmr = hypercube2.rmr
        rmr2 = coupling_from_json_dict(rmr_to_json_dict(rmr), hypercube2.chain)
        np.testing.assert_array_equal(rmr2.table, rmr.table)
        np.testing.assert_allclose(rmr2.probs, rmr.probs, atol=1e-15)

    def test_unknown_kind(self, hypercube2):
        with pytest.raises(InvalidInputError, match="unknown coupling kind"):
            coupling_from_json_dict({"kind": "sparse"}, hypercube2.chain)

    def test_non_square_side(self, hypercube2):
        with pytest.raises(InvalidInputError, match="perfect square"):
            coupling_from_json_dict({"kind": "dense", "C": np.eye(3).tolist()}, hypercube2.chain)
