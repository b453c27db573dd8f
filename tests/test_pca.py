import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import pca, romf, snapshots
from romcast.errors import (
    DegenerateData,
    InvalidConfig,
    NumericalFailure,
    ShapeMismatch,
)

from oracles import covariance_eig


def random_matrix(seed, n=20, m=50):
    return np.random.default_rng(seed).standard_normal((n, m))


def spectral_matrix(singular_values, n=60, m=100, seed=0):
    """An n x m matrix whose centered form has the given singular values:
    U S V^T + 3, with U's columns orthonormal and of zero mean."""
    rng = np.random.default_rng(seed)
    k = len(singular_values)
    u = rng.standard_normal((n, k))
    u = np.linalg.qr(u - u.mean(axis=0))[0]
    v = np.linalg.qr(rng.standard_normal((m, k)))[0]
    return (u * singular_values) @ v.T + 3.0


def svd_oracle(data):
    """Scores and EOF rows from numpy's SVD under the sign convention of
    ``pca.fit``."""
    u, s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    flip = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
    return (u * s) * flip, vt * flip[:, None]


@pytest.fixture()
def eigh_sizes(monkeypatch):
    """The order of each matrix ``pca.fit`` hands to ``np.linalg.eigh``."""
    sizes, eigh = [], np.linalg.eigh

    def recording(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


class TestPcaConfig:
    @pytest.mark.parametrize("field", [*snapshots.FIELD_NAMES, "all"])
    def test_every_field_accepted(self, field):
        assert pca.PcaConfig(field=field).field == field

    def test_replace_checks_the_new_config(self):
        config = pca.PcaConfig()
        assert replace(config, tau=None, variance=0.9).variance == 0.9
        with pytest.raises(InvalidConfig, match="tau"):
            replace(config, tau=0)
        with pytest.raises(InvalidConfig, match="field"):
            replace(config, field="bogus")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change, message", [
        ({"tau": 0}, "tau=0"),
        ({"tau": None, "variance": 0.0}, "variance"),
        ({"tau": None, "variance": 1.5}, "variance"),
        ({"tau": None, "variance": float("nan")}, "variance"),
        ({"variance": 0.9}, "exactly one of tau or variance"),
        ({"tau": None}, "exactly one of tau or variance"),
        ({"field": "bogus"}, "field 'bogus'"),
        ({"field": "Tracer"}, "field 'Tracer'"),
    ])
    def test_bad_value_rejected(self, change, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            pca.PcaConfig(**change)


class TestFit:
    def test_identical_rows_degenerate(self):
        data = np.tile([1.0, 2.0, 3.0], (5, 1))
        with pytest.raises(DegenerateData):
            pca.fit(data, variance=0.9)

    # a constant field whose mean is not exact: its centred matrix is
    # rounding, which must not be fitted
    @pytest.mark.parametrize("source", ["velocity", "random_row",
                                        "large_offset"])
    def test_field_constant_in_time_is_degenerate(self, source):
        rng = np.random.default_rng(7)
        if source == "velocity":
            data = snapshots.generate(snapshots.GeneratorConfig(
                grid_nx=12, grid_ny=10, n_steps=150)).field("vel_x")
        else:
            row = rng.uniform(-2.5, 2.5, 80)
            data = np.tile(row + (1e6 if source == "large_offset" else 0.0),
                           (60, 1))
        assert np.ptp(data, axis=0).max() == 0.0
        with pytest.raises(DegenerateData, match="rounding"):
            pca.fit(data, tau=4)
        with pytest.raises(DegenerateData):
            pca.fit(data, variance=0.99)

    @pytest.mark.parametrize("source", ["relative_1e-9", "modulated"])
    def test_small_or_rank_one_variation_still_fits(self, source):
        rng = np.random.default_rng(8)
        if source == "modulated":
            data = snapshots.generate(snapshots.GeneratorConfig(
                grid_nx=12, grid_ny=10, n_steps=150,
                modulate_velocity=True)).field("vel_x")
        else:
            row = rng.uniform(1.0, 2.5, 80)
            data = row * (1.0 + 1e-9 * rng.standard_normal((60, 80)))
        basis = pca.fit(data, tau=1)
        rec = pca.reconstruct(basis, pca.project(basis, data))
        if source == "modulated":  # rank 1: one component is all of it
            assert pca.explained_variance(basis)[0] == pytest.approx(1.0)
            assert np.abs(rec - data).max() < 1e-12 * np.abs(data).max()
        else:
            centred = data - data.mean(axis=0)
            assert basis.singular_values[0] == pytest.approx(
                np.linalg.svd(centred, compute_uv=False)[0], rel=1e-6)

    def test_two_point_line_matches_eigen_oracle(self):
        data = np.array([[1.0, 1.0], [3.0, 3.0]])
        basis = pca.fit(data, tau=1)
        assert np.allclose(basis.mean, [2.0, 2.0])
        mean, eigvals, vecs = covariance_eig(data)
        assert np.allclose(basis.singular_values**2, eigvals, atol=1e-12)
        assert np.allclose(basis.eofs[0], vecs[0])
        assert np.allclose(basis.eofs[0], [np.sqrt(0.5), np.sqrt(0.5)])
        assert pca.explained_variance(basis)[0] == pytest.approx(1.0)

    def test_full_variance_reconstructs_exactly(self):
        data = random_matrix(0)
        basis = pca.fit(data, variance=1.0)
        rec = pca.reconstruct(basis, pca.project(basis, data))
        err = np.linalg.norm(rec - data) / np.linalg.norm(data)
        assert err < 1e-9

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(InvalidConfig):
            pca.fit(random_matrix(1), tau=21)

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0}, {"tau": -3}, {"variance": 0.0}, {"variance": 1.5},
        {"variance": float("nan")},
    ])
    def test_bad_truncation_rejected_before_the_data(self, kwargs):
        # the NaN matrix would be a NonFiniteInput: the truncation is
        # checked first, before any Gram matrix is formed
        with pytest.raises(InvalidConfig):
            pca.fit(np.full((5, 4), np.nan), **kwargs)

    def test_exactly_one_truncation_argument(self):
        with pytest.raises(InvalidConfig):
            pca.fit(random_matrix(1))
        with pytest.raises(InvalidConfig):
            pca.fit(random_matrix(1), tau=2, variance=0.5)

    def test_variance_rule_minimality(self):
        data = random_matrix(3)
        basis = pca.fit(data, variance=0.9)
        fractions = pca.explained_variance(basis)
        assert fractions[basis.tau - 1] >= 0.9
        if basis.tau > 1:
            assert fractions[basis.tau - 2] < 0.9

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000))
    def test_eofs_orthonormal(self, seed):
        basis = pca.fit(random_matrix(seed, n=8, m=15), variance=1.0)
        gram = basis.eofs @ basis.eofs.T
        assert np.abs(gram - np.eye(len(basis.eofs))).max() < 1e-10

    def test_tall_matrix_matches_covariance_oracle(self):
        data = random_matrix(14, n=50, m=20)
        _, eigvals, vecs = covariance_eig(data)
        full = pca.fit(data, variance=1.0)
        oracle = np.cumsum(eigvals) / eigvals.sum()
        assert np.abs(pca.explained_variance(full) - oracle).max() < 1e-10
        assert np.abs(full.eofs - vecs[: full.tau]).max() < 1e-9
        for tau in (1, 5, 12, 18):
            basis = pca.fit(data, tau=tau)
            rec = pca.reconstruct(basis, pca.project(basis, data))
            expected = np.sqrt(eigvals[tau:].sum())
            assert np.linalg.norm(rec - data) == pytest.approx(expected, rel=1e-8)

    def test_tied_eof_entries_match_svd_oracle_scores(self):
        # all fields with modulated velocity: EOF 0 has many entries of
        # equal magnitude, so the sign fix must pick the same one
        cfg = snapshots.GeneratorConfig(
            grid_nx=12, grid_ny=12, n_steps=90, u0=1.5, kappa=0.05,
            source_period=4.0, source_center=(3, 3), modulate_velocity=True)
        data = snapshots.generate(cfg).data
        basis = pca.fit(data, tau=4)
        centered = data - data.mean(axis=0)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        flip = np.sign(vt[np.arange(vt.shape[0]), np.argmax(np.abs(vt), axis=1)])
        oracle_scores = (u * s) * flip[None, :]
        assert np.abs(pca.project(basis, data) - oracle_scores[:, :4]).max() < 1e-9


class TestSubspaceIteration:
    """The stored spectrum and the kept eigenvectors come from a pivoted
    Cholesky factor L of the Gram matrix, certified once the trace it
    leaves, trace(G) - ||L||_F^2, is within size * eps * trace(G), and one
    ``eigh`` of the small Q^T G Q, Q an orthonormal basis of L's range; or
    else from one ``eigh`` of the Gram: for all the variance, with no
    certificate within a quarter of the Gram's order in steps, when a
    pivot is not positive before the trace is spent, or for tau past the
    steps."""

    def test_desk_tracer_scores_match_svd_oracle(self, eigh_sizes):
        data = snapshots.generate(snapshots.GeneratorConfig()).field("tracer")
        basis = pca.fit(data, tau=16)
        # one eigh, of the factor's Q^T G Q, never of the 600 x 600 Gram: the
        # trace is spent in 51 steps
        assert len(eigh_sizes) == 1 and 16 <= eigh_sizes[0] <= 60
        scores, rows = svd_oracle(data)
        err = np.abs(pca.project(basis, data) - scores[:, :16]).max()
        assert err <= 1e-9 * np.abs(scores).max()
        # the EOFs themselves, about 1e-14 from the SVD's rows
        assert np.abs(basis.eofs - rows[:16]).max() < 1e-11

    def test_modulated_all_fields_scores_match_svd_oracle(self, eigh_sizes):
        # the forecast workload's input, 600 x 3072
        data = snapshots.generate(snapshots.GeneratorConfig(
            modulate_velocity=True)).data
        basis = pca.fit(data, tau=16)
        assert len(eigh_sizes) == 1 and eigh_sizes[0] <= 600 // 4
        scores = svd_oracle(data)[0][:, :16]
        err = np.abs(pca.project(basis, data) - scores).max()
        assert err <= 1e-9 * np.abs(scores).max()

    def test_certified_spectrum_of_exact_rank(self, eigh_sizes):
        values = np.linspace(10.0, 1.0, 12)
        data = spectral_matrix(values, n=80)  # an 80 x 80 Gram of rank 12
        basis = pca.fit(data, tau=4)
        (steps,) = eigh_sizes  # the k x k Q^T G Q alone
        assert 12 <= steps <= 80 // 4
        energy = basis.singular_values**2
        oracle = np.zeros(80)
        oracle[:12] = values**2
        trace = np.sum(values**2)
        bound = 2 * 80 * np.finfo(np.float64).eps * trace
        assert np.abs(energy - oracle).max() <= bound
        assert np.all(energy[steps:] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_non_positive_pivot_takes_full_eigh(self, monkeypatch,
                                                eigh_sizes, caplog):
        # 16 x 12: two columns of a Sylvester-Hadamard matrix times 1 and 2,
        # then zeros; zero mean, so the 12 x 12 Gram is exactly diag(16,
        # 64, 0, ...) and its factor is exact. In exact arithmetic the
        # residual diagonal sums to the trace left, so only rounding can
        # spend it first; a trace stated twice too large stands in for that
        hadamard = np.ones((1, 1))
        for _ in range(4):
            hadamard = np.block([[hadamard, hadamard],
                                 [hadamard, -hadamard]])
        data = np.zeros((16, 12))
        data[:, :2] = hadamard[:, 1:3] * [1.0, 2.0]
        trace = np.trace
        monkeypatch.setattr(np, "trace", lambda a: 2.0 * trace(a))
        with caplog.at_level(logging.INFO, logger="romcast"):
            basis = pca.fit(data, tau=2)
        # the third pivot is 0: no division, one eigh of the Gram
        assert eigh_sizes == [12]
        assert [r.getMessage() for r in caplog.records] == [
            "pca.fit: one eigh of the 12 x 12 Gram: pivot 3 is 0, not "
            "positive, with 80 of the trace left"]
        assert np.allclose(basis.singular_values**2, [64.0, 16.0] + [0.0] * 10,
                           rtol=1e-14, atol=1e-13)
        rec = pca.reconstruct(basis, pca.project(basis, data))
        assert np.abs(rec - data).max() < 1e-13

    def test_zero_tail_matches_eckart_young(self, eigh_sizes):
        values = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        data = spectral_matrix(values, n=80)  # an 80 x 80 Gram
        for tau in (3, 5):
            basis = pca.fit(data, tau=tau)
            rec = pca.reconstruct(basis, pca.project(basis, data))
            err = np.linalg.norm(rec - data)
            expected = np.sqrt(np.sum(values[tau:] ** 2))
            assert err == pytest.approx(expected, rel=1e-8, abs=1e-12)
        # each the Q^T G Q of a run certified at rank 5, never the Gram
        assert eigh_sizes == [5, 5]

    def test_flat_spectrum_at_tau_takes_full_eigh(self, eigh_sizes):
        values = np.array([9.0, 7.0, 5.0, 3.0] + [1.0] * 30)
        data = spectral_matrix(values, n=80)
        basis = pca.fit(data, tau=4)
        assert eigh_sizes == [80]  # rank 34, no certificate in 80 // 4 steps
        rec = pca.reconstruct(basis, pca.project(basis, data))
        expected = np.sqrt(np.sum(values[4:] ** 2))
        assert np.linalg.norm(rec - data) == pytest.approx(expected, rel=1e-8)
        assert np.abs(basis.eofs @ basis.eofs.T - np.eye(4)).max() < 1e-12

    def test_flat_tail_at_tau_two_takes_full_eigh(self, eigh_sizes):
        values = np.array([8.0, 7.0] + [1.0] * 30)
        data = spectral_matrix(values, n=80)
        basis = pca.fit(data, tau=2)
        assert eigh_sizes == [80]  # rank 32, no certificate in 80 // 4 steps
        rec = pca.reconstruct(basis, pca.project(basis, data))
        expected = np.sqrt(np.sum(values[2:] ** 2))
        assert np.linalg.norm(rec - data) == pytest.approx(expected, rel=1e-8)
        scores = svd_oracle(data)[0][:, :2]
        err = np.abs(pca.project(basis, data) - scores).max()
        assert err <= 1e-9 * np.abs(scores).max()

    def test_uncertified_spectrum_and_tau_past_the_steps_take_one_eigh(
            self, monkeypatch, eigh_sizes):
        eigvalsh_calls, eigvalsh = [], np.linalg.eigvalsh

        def recording(matrix):
            eigvalsh_calls.append(matrix.shape[0])
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        # 80 x 80 Gram with 23 eigenvalues above the certificate's floor
        data = spectral_matrix(2.0 ** -np.arange(40.0), n=80)
        scores = svd_oracle(data)[0][:, :5]
        for kwargs in ({"tau": 5}, {"tau": 6}, {"variance": 1.0}):
            basis = pca.fit(data, **kwargs)
            err = np.abs(pca.project(basis, data)[:, :5] - scores).max()
            assert err <= 1e-9 * np.abs(scores).max()
        # no certificate in 80 // 4 steps, and all the variance, take one
        # eigh of the Gram for the spectrum and the vectors alike
        assert eigh_sizes == [80, 80, 80]
        # rank 5 certifies in 5 steps, short of tau 7
        eigh_sizes.clear()
        pca.fit(spectral_matrix(np.arange(5.0, 0.0, -1.0), n=80), tau=7)
        assert eigh_sizes == [5, 80]
        assert eigvalsh_calls == []

    @pytest.mark.parametrize("values, kwargs, message", [
        (np.arange(5.0, 0.0, -1.0), {"tau": 3},
         "spectrum certified by pivoted Cholesky in 5 steps"),
        (np.arange(5.0, 0.0, -1.0), {"tau": 7},
         "one eigh of the 80 x 80 Gram: tau 7 is past the 5 steps taken"),
        (np.arange(5.0, 0.0, -1.0), {"variance": 1.0},
         "one eigh of the 80 x 80 Gram: all the variance is kept"),
        (np.array([9.0, 7.0, 5.0, 3.0] + [1.0] * 30), {"tau": 4},
         "one eigh of the 80 x 80 Gram: the trace is not spent after 20 "
         "steps"),
    ], ids=["certified", "tau_past_steps", "all_variance", "unspent"])
    def test_route_is_one_info_line(self, caplog, values, kwargs, message):
        data = spectral_matrix(values, n=80)
        with caplog.at_level(logging.INFO, logger="romcast"):
            basis = pca.fit(data, **kwargs)
        (record,) = caplog.records
        assert record.name == "romcast" and record.levelno == logging.INFO
        assert record.getMessage().startswith("pca.fit: " + message)
        # the line changes nothing that is fitted
        caplog.clear()
        quiet = pca.fit(data, **kwargs)
        assert quiet.eofs.tobytes() == basis.eofs.tobytes()

    def test_two_fits_give_identical_bytes(self):
        for values in (2.0 ** -np.arange(40.0), np.linspace(10.0, 1.0, 12)):
            data = spectral_matrix(values, n=80)
            first, second = pca.fit(data, tau=5), pca.fit(data, tau=5)
            assert first.eofs.tobytes() == second.eofs.tobytes()
            assert first.singular_values.tobytes() == \
                second.singular_values.tobytes()

    @pytest.mark.parametrize("routine, step, tau", [
        ("qr", "QR of X^T V", 5),
        ("svd", "Rayleigh-Ritz SVD", 5),
        ("eigh", "eigh", 6),  # no certificate: the Gram's eigh
    ])
    def test_linalg_error_is_numerical_failure(self, monkeypatch, routine,
                                               step, tau):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        data = spectral_matrix(2.0 ** -np.arange(40.0), n=80)
        monkeypatch.setattr(np.linalg, routine, failing)
        with pytest.raises(NumericalFailure,
                           match=f"^{re.escape(step)} failed"):
            pca.fit(data, tau=tau)

    def test_factor_eigh_error_is_numerical_failure(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        data = spectral_matrix(np.linspace(10.0, 1.0, 12), n=80)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalFailure,
                           match=f"^{re.escape('eigh of Q^T G Q')} failed"):
            pca.fit(data, tau=5)

    def test_noisy_desk_tracer_gives_up_to_the_eigh_route(self, monkeypatch,
                                                          eigh_sizes):
        # white noise of a tenth of the tracer's std: a full-rank spectrum,
        # whose trace is not spent within 600 // 4 steps
        data = snapshots.generate(snapshots.GeneratorConfig()).field("tracer")
        data = data + 0.1 * data.std() * np.random.default_rng(0) \
            .standard_normal(data.shape)
        fits = [pca.fit(data, tau=16), pca.fit(data, variance=0.99)]
        assert eigh_sizes == [600, 600]  # no Q^T G Q: no certificate
        monkeypatch.setattr(pca, "_cholesky",
                            lambda gram, trace: "no certificate")
        for basis, kwargs in zip(fits, ({"tau": 16}, {"variance": 0.99})):
            oracle = pca.fit(data, **kwargs)
            assert basis.tau == oracle.tau
            assert np.abs(basis.eofs - oracle.eofs).max() <= 1e-12
            assert np.abs(basis.singular_values - oracle.singular_values) \
                .max() <= 1e-12 * oracle.singular_values[0]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(20, 120), st.booleans(), st.data())
    def test_low_rank_spectrum_certifies_within_its_rank(self, size, wide,
                                                         draw):
        rank = draw.draw(st.integers(1, size // 4))
        seed = draw.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        # singular values within a factor 100 of each other, at any scale:
        # the smallest energy is 1e-4 of the largest, far above the bound
        values = np.sort(10.0 ** rng.uniform(-2.0, 0.0, rank))[::-1] \
            * 10.0 ** rng.uniform(-3.0, 3.0)
        other = size + int(rng.integers(1, 60))
        n, m = (size, other) if wide else (other, size)
        data = spectral_matrix(values, n=n, m=m, seed=seed)
        centered = data - data.mean(axis=0)
        gram = centered @ centered.T if wide else centered.T @ centered
        trace = np.trace(gram)
        factored = pca._cholesky(gram, trace)
        assert not isinstance(factored, str) and factored[1].shape[1] <= rank
        tau = draw.draw(st.integers(1, rank))
        basis, again = pca.fit(data, tau=tau), pca.fit(data, tau=tau)
        bound = 2 * size * np.finfo(np.float64).eps * trace
        oracle = np.linalg.eigvalsh(gram)[::-1]
        assert np.abs(basis.singular_values**2 - oracle).max() <= bound
        assert np.abs(basis.eofs @ basis.eofs.T - np.eye(tau)).max() <= 1e-12
        assert basis.eofs.tobytes() == again.eofs.tobytes()
        assert basis.singular_values.tobytes() == \
            again.singular_values.tobytes()


class TestProjectReconstruct:
    def test_mean_rows_project_to_zero(self):
        basis = pca.fit(random_matrix(4), tau=3)
        states = np.tile(basis.mean, (6, 1))
        assert np.abs(pca.project(basis, states)).max() < 1e-9

    def test_project_reconstruct_round_trip_on_scores(self):
        basis = pca.fit(random_matrix(5), tau=4)
        scores = np.random.default_rng(1).standard_normal((7, 4))
        back = pca.project(basis, pca.reconstruct(basis, scores))
        assert np.abs(back - scores).max() < 1e-10

    def test_training_scores_match_svd_oracle(self):
        data = random_matrix(6)
        basis = pca.fit(data, tau=5)
        assert np.allclose(pca.project(basis, data),
                           svd_oracle(data)[0][:, :5], atol=1e-9)

    def test_zero_scores_reconstruct_mean(self):
        basis = pca.fit(random_matrix(7), tau=3)
        rec = pca.reconstruct(basis, np.zeros((4, 3)))
        assert np.allclose(rec, np.tile(basis.mean, (4, 1)))

    def test_shape_mismatch_rejected(self):
        basis = pca.fit(random_matrix(8), tau=3)
        with pytest.raises(ShapeMismatch):
            pca.project(basis, np.zeros((2, 3)))
        with pytest.raises(ShapeMismatch):
            pca.reconstruct(basis, np.zeros((2, 4)))

    def test_eckart_young_tail_formula(self):
        # nonzero-tail truncations; the full-rank (zero tail) case is the
        # exact-reconstruction test above
        data = random_matrix(9)
        _, eigvals, _ = covariance_eig(data)
        for tau in (1, 5, 12, 18):
            basis = pca.fit(data, tau=tau)
            rec = pca.reconstruct(basis, pca.project(basis, data))
            err = np.linalg.norm(rec - data)
            expected = np.sqrt(eigvals[tau:].sum())
            assert err == pytest.approx(expected, rel=1e-8)

    def test_monotone_error_in_tau(self):
        data = random_matrix(10)
        errors = []
        for tau in range(1, 20):
            basis = pca.fit(data, tau=tau)
            rec = pca.reconstruct(basis, pca.project(basis, data))
            errors.append(np.linalg.norm(rec - data))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


class TestExplainedVariance:
    def test_single_component(self):
        basis = _basis_with_singular_values([1.0, 0.0])
        assert np.array_equal(pca.explained_variance(basis), [1.0, 1.0])

    def test_three_four_split(self):
        basis = _basis_with_singular_values([4.0, 3.0])
        assert np.allclose(pca.explained_variance(basis), [16 / 25, 1.0])

    def test_final_entry_exactly_one(self):
        basis = pca.fit(random_matrix(11), variance=1.0)
        assert pca.explained_variance(basis)[-1] == 1.0

    def test_matches_covariance_oracle(self):
        data = random_matrix(12)
        basis = pca.fit(data, variance=1.0)
        _, eigvals, _ = covariance_eig(data)
        oracle = np.cumsum(eigvals[: basis.rank]) / eigvals.sum()
        fractions = pca.explained_variance(basis)
        assert np.abs(fractions - oracle).max() < 1e-10
        assert np.all(np.diff(fractions) >= -1e-15)


def _basis_with_singular_values(values):
    values = np.asarray(values, dtype=np.float64)
    return pca.PcaBasis(mean=np.zeros(5), eofs=np.eye(1, 5),
                        singular_values=values, n=6)


def test_save_load_round_trip(tmp_path):
    basis = pca.fit(random_matrix(13), tau=4)
    path = tmp_path / "basis.romf"
    basis.save(path)
    loaded = pca.PcaBasis.load(path)
    assert loaded.tau == basis.tau
    assert (loaded.n, loaded.m) == (basis.n, basis.m)
    assert np.array_equal(loaded.eofs, basis.eofs)
    assert np.array_equal(loaded.singular_values, basis.singular_values)
    assert np.array_equal(loaded.mean, basis.mean)
    assert loaded.field == "all"
    replace(basis, field="tracer").save(path)
    assert pca.PcaBasis.load(path).field == "tracer"


def test_saved_basis_keeps_tau_rows(tmp_path):
    basis = pca.fit(random_matrix(15), tau=3)
    basis.save(tmp_path / "basis.romf")
    arrays, meta = romf.read_arrays(tmp_path / "basis.romf")
    assert arrays["eofs"].shape == (3, 50)
    assert meta == {"n": 20, "field": "all"}
    assert [p.name for p in tmp_path.iterdir()] == ["basis.romf"]


def _rewrite(path, meta=None, **arrays):
    old_arrays, old_meta = romf.read_arrays(path)
    romf.write_arrays(path, {**old_arrays, **arrays},
                      {**old_meta, **(meta or {})})


@pytest.mark.parametrize("value", [None, "20", [20], True, 20.0])
def test_load_meta_of_wrong_type_is_format_error(tmp_path, value):
    path = tmp_path / "basis.romf"
    pca.fit(random_matrix(16), tau=3).save(path)
    _rewrite(path, meta={"n": value})
    with pytest.raises(romf.FormatError, match="'n' has the wrong type"):
        pca.PcaBasis.load(path)


@pytest.mark.parametrize("value", [None, 1, ["tracer"]])
def test_load_field_of_wrong_type_is_format_error(tmp_path, value):
    path = tmp_path / "basis.romf"
    pca.fit(random_matrix(16), tau=3).save(path)
    _rewrite(path, meta={"field": value})
    with pytest.raises(romf.FormatError, match="'field' has the wrong type"):
        pca.PcaBasis.load(path)


@pytest.mark.parametrize("arrays, message", [
    ({"singular_values": np.ones(2)}, "tau=3 outside"),
    ({"mean": np.zeros(49)}, "mean"),
    ({"eofs": np.ones(50)}, "eofs"),
    # explained_variance would leave [0, 1] on either
    ({"singular_values": np.linspace(1.0, -1.0, 20)}, "nonnegative"),
    ({"singular_values": np.linspace(1.0, 2.0, 20)}, "nonincreasing"),
])
def test_load_inconsistent_arrays_is_format_error(tmp_path, arrays, message):
    path = tmp_path / "basis.romf"
    pca.fit(random_matrix(17), tau=3).save(path)
    _rewrite(path, **arrays)
    with pytest.raises(romf.FormatError, match=message) as caught:
        pca.PcaBasis.load(path)
    assert str(path) in str(caught.value)
