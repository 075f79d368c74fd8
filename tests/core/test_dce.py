"""DCE tests: every Section IV identity, exactness, security surface."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dce import (
    DCECiphertext,
    DCEScheme,
    DCETrapdoor,
    dce_keygen,
    distance_comp,
    distance_comp_block,
    p_role_rows,
    sdc_mac_count,
)
from repro.core.errors import (
    CiphertextFormatError,
    DimensionMismatchError,
    KeyMismatchError,
)


@pytest.fixture(scope="module")
def scheme():
    return DCEScheme(16, rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def workload(scheme):
    rng = np.random.default_rng(2)
    database = rng.standard_normal((60, 16)) * 5.0
    query = rng.standard_normal(16) * 5.0
    encrypted = scheme.encrypt_database(database)
    trapdoor = scheme.trapdoor(query)
    dists = ((database - query) ** 2).sum(axis=1)
    return database, query, encrypted, trapdoor, dists


class TestKeygen:
    def test_shapes(self):
        key = dce_keygen(16, np.random.default_rng(0))
        assert key.m1.shape == (16 // 2 + 4, 16 // 2 + 4)
        assert key.m2.shape == (16 // 2 + 4, 16 // 2 + 4)
        assert key.m_up.shape == (16 + 8, 2 * 16 + 16)
        assert key.m_down.shape == (16 + 8, 2 * 16 + 16)
        assert key.m3_inv.shape == (2 * 16 + 16, 2 * 16 + 16)
        assert key.kv1.shape == (2 * 16 + 16,)
        assert key.pi1.size == 16
        assert key.pi2.size == 16 + 8

    def test_kv_constraint(self):
        # The transformation correctness hinges on kv1*kv3 == kv2*kv4.
        key = dce_keygen(20, np.random.default_rng(3))
        assert np.allclose(key.kv1 * key.kv3, key.kv2 * key.kv4)

    def test_matrix_inverses_consistent(self):
        key = dce_keygen(12, np.random.default_rng(4))
        half = 12 // 2 + 4
        assert np.allclose(key.m1 @ key.m1_inv, np.eye(half), atol=1e-10)
        assert np.allclose(key.m2 @ key.m2_inv, np.eye(half), atol=1e-10)
        full = np.vstack([key.m_up, key.m_down])
        assert np.allclose(full @ key.m3_inv, np.eye(2 * 12 + 16), atol=1e-10)

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            dce_keygen(15, np.random.default_rng(0))

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            dce_keygen(0, np.random.default_rng(0))

    def test_r4_nonzero(self):
        # gamma_p divides by r4; keygen must keep it away from zero.
        for seed in range(20):
            key = dce_keygen(8, np.random.default_rng(seed))
            assert abs(key.r4) >= 0.5


class TestEquationIdentities:
    """Checks of the numbered equations in Section IV-A."""

    def test_equation_1_pairwise_mix(self):
        # check_p . check_q == -2 p.q  (Equation 1)
        rng = np.random.default_rng(5)
        p = rng.standard_normal(10)
        q = rng.standard_normal(10)
        check_p = DCEScheme._pairwise_mix(p, negate=False)
        check_q = DCEScheme._pairwise_mix(q, negate=True)
        assert np.isclose(check_p @ check_q, -2.0 * (p @ q))

    def test_equation_5_randomization_inner_product(self):
        # p_bar . q_bar == ||p||^2 - 2 p.q  (Equation 5)
        rng = np.random.default_rng(6)
        scheme = DCEScheme(12, rng=rng)
        p = rng.standard_normal(12) * 3.0
        q = rng.standard_normal(12) * 3.0
        p_bar = scheme._randomize_database(p[np.newaxis])[0]
        q_bar = scheme._randomize_query(q)
        expected = float(p @ p) - 2.0 * float(p @ q)
        assert np.isclose(p_bar @ q_bar, expected, rtol=1e-9)

    def test_equation_16_full_transformation(self):
        # F3(o_bar, p_bar).q' == 2 r_o r_p r_q (||o||^2-2o.q - ||p||^2+2p.q)
        # — verified through the sign AND the ratio consistency of Z.
        rng = np.random.default_rng(7)
        scheme = DCEScheme(8, rng=rng)
        vectors = rng.standard_normal((3, 8)) * 2.0
        q = rng.standard_normal(8) * 2.0
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        z_01 = distance_comp(db[0], db[1], t)
        gap_01 = dists[0] - dists[1]
        # Z / gap = 2 r_o r_p r_q > 0 and bounded by the randomizer ranges.
        ratio = z_01 / gap_01
        assert ratio > 0
        assert 2 * 0.5**3 * 0.9 < ratio < 2 * 2.0**3 * 1.1

    def test_randomizer_consistency_across_pairs(self):
        # Z_{o,p} uses r_o * r_p: the products must be mutually consistent:
        # (Z_01 * Z_23) / (Z_03 * Z_21) == (gap01*gap23)/(gap03*gap21).
        rng = np.random.default_rng(8)
        scheme = DCEScheme(8, rng=rng)
        vectors = rng.standard_normal((4, 8)) * 2.0
        q = rng.standard_normal(8) * 2.0
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)

        def z(i, j):
            return distance_comp(db[i], db[j], t)

        def gap(i, j):
            return dists[i] - dists[j]

        lhs = (z(0, 1) * z(2, 3)) / (z(0, 3) * z(2, 1))
        rhs = (gap(0, 1) * gap(2, 3)) / (gap(0, 3) * gap(2, 1))
        assert np.isclose(lhs, rhs, rtol=1e-6)


class TestDistanceComp:
    def test_theorem_3_sign_correctness(self, workload):
        database, _, encrypted, trapdoor, dists = workload
        n = database.shape[0]
        for i in range(0, n, 7):
            for j in range(0, n, 5):
                if i == j:
                    continue
                z = distance_comp(encrypted[i], encrypted[j], trapdoor)
                assert (z < 0) == (dists[i] < dists[j]), (i, j)

    def test_self_comparison_near_zero(self, workload):
        _, _, encrypted, trapdoor, dists = workload
        z = distance_comp(encrypted[0], encrypted[0], trapdoor)
        # dist(o,q) - dist(o,q) == 0; float noise only.
        assert abs(z) < 1e-4 * max(dists.max(), 1.0)

    def test_antisymmetry(self, workload):
        _, _, encrypted, trapdoor, _ = workload
        z_ij = distance_comp(encrypted[3], encrypted[8], trapdoor)
        z_ji = distance_comp(encrypted[8], encrypted[3], trapdoor)
        # Z is not exactly antisymmetric in magnitude (r_o vs r_p swap),
        # but the signs must oppose.
        assert np.sign(z_ij) == -np.sign(z_ji)

    def test_block_matches_single_within_its_slack(self, workload):
        _, _, encrypted, trapdoor, _ = workload
        components = encrypted.components
        indices = np.arange(20)
        z, slack = distance_comp_block(
            components[[2, 7], 0:2],
            trapdoor.vector,
            *p_role_rows(components[indices, 2:4]),
        )
        assert z.shape == slack.shape == (2, 20)
        for row, i in enumerate((2, 7)):
            for col, j in enumerate(indices):
                single = distance_comp(encrypted[i], encrypted[int(j)], trapdoor)
                assert abs(z[row, col] - single) <= slack[row, col]
        # The slack is a rounding bound, not a tolerance: it sits many
        # orders of magnitude below the values it guards, and only the
        # self-comparison (a mathematically exact tie) falls inside it.
        assert (slack[0, indices != 2] < 1e-6 * np.abs(z[0, indices != 2])).all()
        assert abs(z[0, 2]) <= slack[0, 2]

    def test_key_mismatch_detected(self, scheme, workload):
        _, query, encrypted, _, _ = workload
        other = DCEScheme(16, rng=np.random.default_rng(99))
        foreign_trapdoor = other.trapdoor(query)
        with pytest.raises(KeyMismatchError):
            distance_comp(encrypted[0], encrypted[1], foreign_trapdoor)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_sign_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 24))
        scheme = DCEScheme(dim, rng=rng)
        vectors = rng.standard_normal((6, dim)) * 4.0
        q = rng.standard_normal(dim) * 4.0
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                gap = dists[i] - dists[j]
                if abs(gap) < 1e-6 * max(dists.max(), 1.0):
                    continue  # ties may flip under float noise
                z = distance_comp(db[i], db[j], t)
                assert (z < 0) == (gap < 0)


class TestShapesAndPadding:
    def test_ciphertext_shape(self, scheme, workload):
        _, _, encrypted, _, _ = workload
        ct = encrypted[0]
        assert ct.components.shape == (4, 2 * 16 + 16)
        assert ct.size_in_floats == 8 * 16 + 64

    def test_trapdoor_shape(self, workload):
        _, _, _, trapdoor, _ = workload
        assert trapdoor.vector.shape == (2 * 16 + 16,)

    def test_odd_dimension_padding(self):
        rng = np.random.default_rng(9)
        scheme = DCEScheme(7, rng=rng)
        vectors = rng.standard_normal((10, 7)) * 3.0
        q = rng.standard_normal(7) * 3.0
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        for i in range(10):
            for j in range(10):
                if i != j:
                    z = distance_comp(db[i], db[j], t)
                    assert (z < 0) == (dists[i] < dists[j])

    def test_mac_count_formula(self):
        assert sdc_mac_count(128) == 4 * 128 + 32
        assert sdc_mac_count(960) == 4 * 960 + 32

    def test_dim_one(self):
        # d=1 pads to 2 and must still compare exactly.
        rng = np.random.default_rng(10)
        scheme = DCEScheme(1, rng=rng)
        vectors = np.array([[0.0], [5.0], [9.0]])
        db = scheme.encrypt_database(vectors)
        t = scheme.trapdoor(np.array([4.0]))
        assert distance_comp(db[1], db[2], t) < 0  # |5-4| < |9-4|
        assert distance_comp(db[0], db[1], t) > 0  # |0-4| > |5-4|


class TestValidation:
    def test_encrypt_wrong_dim(self, scheme):
        with pytest.raises(DimensionMismatchError):
            scheme.encrypt(np.zeros(5))

    def test_encrypt_database_wrong_dim(self, scheme):
        with pytest.raises(DimensionMismatchError):
            scheme.encrypt_database(np.zeros((4, 5)))

    def test_encrypt_database_wrong_ndim(self, scheme):
        with pytest.raises(CiphertextFormatError):
            scheme.encrypt_database(np.zeros(16))

    def test_trapdoor_wrong_dim(self, scheme):
        with pytest.raises(DimensionMismatchError):
            scheme.trapdoor(np.zeros(3))

    def test_nonpositive_dim(self):
        with pytest.raises(ValueError):
            DCEScheme(0)

    def test_reusing_key_requires_matching_dim(self):
        key = dce_keygen(16, np.random.default_rng(0))
        with pytest.raises(DimensionMismatchError):
            DCEScheme(20, key=key)

    def test_shared_key_interoperates(self):
        # Owner and user instances sharing a key must produce compatible
        # ciphertexts/trapdoors (Figure 1 step 0).
        rng_owner = np.random.default_rng(11)
        owner = DCEScheme(8, rng=rng_owner)
        user = DCEScheme(8, rng=np.random.default_rng(12), key=owner.key)
        vectors = np.random.default_rng(13).standard_normal((5, 8))
        q = np.random.default_rng(14).standard_normal(8)
        db = owner.encrypt_database(vectors)
        t = user.trapdoor(q)
        dists = ((vectors - q) ** 2).sum(axis=1)
        z = distance_comp(db[0], db[1], t)
        assert (z < 0) == (dists[0] < dists[1])

    def test_malformed_ciphertext_rejected(self):
        with pytest.raises(CiphertextFormatError):
            DCECiphertext(np.zeros((3, 10)), key_id=0)

    def test_malformed_trapdoor_rejected(self):
        with pytest.raises(CiphertextFormatError):
            DCETrapdoor(np.zeros((2, 5)), key_id=0)


class TestEncryptedDatabase:
    def test_len_and_getitem(self, workload):
        _, _, encrypted, _, _ = workload
        assert len(encrypted) == 60
        assert encrypted[3].components.shape == (4, 48)

    def test_subset(self, workload):
        _, _, encrypted, _, _ = workload
        sub = encrypted.subset(np.array([1, 4, 7]))
        assert len(sub) == 3
        assert np.array_equal(sub[0].components, encrypted[1].components)

    def test_append(self, scheme, workload):
        database, _, encrypted, _, _ = workload
        new_ct = scheme.encrypt(database[0])
        grown = encrypted.append(new_ct)
        assert len(grown) == 61
        assert np.array_equal(grown[60].components, new_ct.components)

    def test_append_foreign_key_rejected(self, workload):
        _, _, encrypted, _, _ = workload
        other = DCEScheme(16, rng=np.random.default_rng(55))
        foreign = other.encrypt(np.zeros(16))
        with pytest.raises(KeyMismatchError):
            encrypted.append(foreign)


class TestCiphertextRandomness:
    def test_same_plaintext_encrypts_differently(self, scheme):
        p = np.ones(16)
        a = scheme.encrypt(p)
        b = scheme.encrypt(p)
        assert not np.allclose(a.components, b.components)

    def test_trapdoors_randomized(self, scheme):
        q = np.ones(16)
        a = scheme.trapdoor(q)
        b = scheme.trapdoor(q)
        assert not np.allclose(a.vector, b.vector)

    def test_randomized_ciphertexts_still_compare(self, scheme):
        rng = np.random.default_rng(20)
        vectors = rng.standard_normal((2, 16))
        q = rng.standard_normal(16)
        dists = ((vectors - q) ** 2).sum(axis=1)
        for _ in range(5):
            db = scheme.encrypt_database(vectors)
            t = scheme.trapdoor(q)
            z = distance_comp(db[0], db[1], t)
            assert (z < 0) == (dists[0] < dists[1])


def _reference_transform(scheme, bar_vectors):
    """The out-of-place form of ``_transform_database``, term by term."""
    key = scheme.key
    n = bar_vectors.shape[0]
    projected_up = bar_vectors @ key.m_up
    projected_down = bar_vectors @ key.m_down
    r_p = scheme._draw_randomizers((n, 1))
    components = np.empty((n, 4, key.ciphertext_dim))
    components[:, 0] = r_p * (projected_up + 1.0) / key.kv1
    components[:, 1] = r_p * (projected_up - 1.0) / key.kv2
    components[:, 2] = r_p * (projected_down + 1.0) / key.kv3
    components[:, 3] = r_p * (projected_down - 1.0) / key.kv4
    return components


class TestInPlaceTransform:
    """The in-place transform writes the out-of-place expression's bits."""

    @pytest.mark.parametrize("n,d", [(1, 7), (33, 2), (1000, 96), (257, 100)])
    def test_encrypt_database_bit_identical(self, n, d):
        database = np.random.default_rng(n + d).standard_normal((n, d)) * 3.0
        scheme = DCEScheme(d, rng=np.random.default_rng(9))
        twin = DCEScheme(d, rng=np.random.default_rng(9))
        got = scheme.encrypt_database(database).components
        bar = twin._randomize_database(twin._pad(database))
        expected = _reference_transform(twin, bar)
        assert got.shape == (n, 4, 2 * twin.key.dim + 16)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", [7, 2, 96, 100])
    def test_encrypt_bit_identical(self, d):
        vector = np.random.default_rng(d).standard_normal(d) * 3.0
        scheme = DCEScheme(d, rng=np.random.default_rng(10))
        twin = DCEScheme(d, rng=np.random.default_rng(10))
        got = scheme.encrypt(vector).components
        bar = twin._randomize_database(twin._pad(vector)[np.newaxis])
        expected = _reference_transform(twin, bar)[0]
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_encrypt_database_peak_memory(self):
        # The in-place transform peaks at the returned array plus one
        # (n, d+8) bar; the out-of-place form peaked at about 2.1x.
        n, d = 4000, 64
        database = np.random.default_rng(4).standard_normal((n, d))
        scheme = DCEScheme(d, rng=np.random.default_rng(11))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            encrypted = scheme.encrypt_database(database)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * encrypted.components.nbytes
