import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from romcast import romf, snapshots
from romcast.errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    StabilityViolation,
)


def small_config(**overrides):
    base = dict(grid_nx=16, grid_ny=16, n_steps=60, u0=1.0, kappa=0.05,
                source_period=4.0)
    base.update(overrides)
    return snapshots.GeneratorConfig(**base)


class TestConfigValidation:
    def test_nonpositive_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(grid_nx=1).validate()

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(kappa=-0.1).validate()

    def test_advection_cfl_enforced(self):
        with pytest.raises(StabilityViolation):
            small_config(u0=10.0, dt=0.2).validate()

    def test_diffusion_bound_enforced(self):
        with pytest.raises(StabilityViolation):
            small_config(kappa=5.0, dt=0.2, u0=0.0).validate()

    def test_source_outside_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(source_center=(16, 0)).validate()


class TestGenerate:
    def test_no_transport_no_source_keeps_state_constant(self):
        cfg = small_config(u0=0.0, kappa=0.0, source_amplitude=0.0)
        snap = snapshots.generate(
            cfg, initial_tracer=np.ones((cfg.grid_ny, cfg.grid_nx))
        )
        assert np.array_equal(snap.data, np.tile(snap.data[0], (snap.n, 1)))

    def test_diffusion_conserves_mass_on_periodic_domain(self):
        cfg = small_config(u0=0.0, kappa=0.2, source_amplitude=0.0,
                           init_amplitude=1.0, seed=11, n_steps=200)
        snap = snapshots.generate(cfg)
        mass = snap.field("tracer").sum(axis=1)
        drift = np.abs(mass - mass[0]).max() / mass[0]
        assert drift < 1e-10

    def test_advection_also_conserves_mass(self):
        cfg = small_config(velocity_mode="rotating", u0=1.5,
                           source_amplitude=0.0, init_amplitude=1.0,
                           seed=5, n_steps=200)
        snap = snapshots.generate(cfg)
        mass = snap.field("tracer").sum(axis=1)
        assert np.abs(mass - mass[0]).max() / mass[0] < 1e-10

    def test_source_node_oscillates_at_source_period(self):
        # dominant FFT component of the tracer at the source node
        cfg = snapshots.GeneratorConfig(u0=2.5, kappa=0.02,
                                        source_period=8.0, n_steps=600)
        snap = snapshots.generate(cfg)
        ix, iy = cfg.source_center
        column = snap.field("tracer")[:, iy * cfg.grid_nx + ix]
        spectrum = np.abs(np.fft.rfft(column - column.mean()))
        dominant = int(np.argmax(spectrum[1:])) + 1
        measured_period = cfg.n_steps * cfg.dt / dominant
        assert measured_period == pytest.approx(cfg.source_period, rel=1e-12)

    def test_expected_matrix_shape(self):
        cfg = snapshots.GeneratorConfig()
        snap = snapshots.generate(cfg)
        assert (snap.n, snap.m) == (600, 3072)

    def test_deterministic_given_seed(self):
        cfg = small_config(init_amplitude=0.7, seed=42)
        a = snapshots.generate(cfg)
        b = snapshots.generate(cfg)
        assert a.data.tobytes() == b.data.tobytes()

    def test_tracer_nonnegative(self):
        cfg = small_config(init_amplitude=0.5, seed=9, n_steps=150)
        snap = snapshots.generate(cfg)
        assert snap.field("tracer").min() >= 0.0

    def test_zero_gradient_boundary_runs(self):
        cfg = small_config(boundary="zero_gradient", init_amplitude=0.5)
        snap = snapshots.generate(cfg)
        assert np.all(np.isfinite(snap.data))

    def test_modulated_velocity_recorded_in_columns(self):
        cfg = small_config(modulate_velocity=True, velocity_mode="uniform")
        snap = snapshots.generate(cfg)
        vel = snap.field("vel_x")
        factors = np.array(
            [0.5 * (1 + np.sin(2 * np.pi * t * cfg.dt / cfg.source_period))
             for t in range(cfg.n_steps)]
        )
        assert np.allclose(vel[:, 0], cfg.u0 * factors)

    def test_bad_initial_tracer_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            snapshots.generate(small_config(), initial_tracer=np.ones((3, 3)))

    @pytest.mark.parametrize("boundary", ["periodic", "zero_gradient"])
    @pytest.mark.parametrize("modulate", [False, True])
    def test_matches_per_step_reference_bit_for_bit(self, boundary, modulate):
        cfg = small_config(boundary=boundary, modulate_velocity=modulate,
                           grid_nx=12, grid_ny=9, n_steps=40)
        c0 = np.random.default_rng(3).random((cfg.grid_ny, cfg.grid_nx))
        snap = snapshots.generate(cfg, initial_tracer=c0)
        assert snap.data.tobytes() == reference_generate(cfg, c0).tobytes()


def reference_generate(cfg, c):
    """The solver as a plain loop that pads every field on every step."""
    mode = "wrap" if cfg.boundary == "periodic" else "edge"
    vx0, vy0 = snapshots._velocity_field(cfg)
    rows = []
    for step in range(cfg.n_steps):
        t = step * cfg.dt
        pulse = 0.5 * (1.0 + np.sin(2.0 * np.pi * t / cfg.source_period))
        s = pulse if cfg.modulate_velocity else 1.0
        vx, vy = vx0 * s, vy0 * s
        rows.append(np.concatenate([c.ravel(), vx.ravel(), vy.ravel()]))
        cp, vxp, vyp = (np.pad(a, 1, mode=mode) for a in (c, vx, vy))
        ufx = 0.5 * (vxp[1:-1, :-1] + vxp[1:-1, 1:])
        cl, cr = cp[1:-1, :-1], cp[1:-1, 1:]
        flux_x = np.where(ufx > 0.0, cl, cr) * ufx
        dcdx_flux = cfg.kappa * (cr - cl) / cfg.dx
        ufy = 0.5 * (vyp[:-1, 1:-1] + vyp[1:, 1:-1])
        cb, ct = cp[:-1, 1:-1], cp[1:, 1:-1]
        flux_y = np.where(ufy > 0.0, cb, ct) * ufy
        dcdy_flux = cfg.kappa * (ct - cb) / cfg.dy
        adv = (flux_x[:, 1:] - flux_x[:, :-1]) / cfg.dx + (
            flux_y[1:, :] - flux_y[:-1, :]) / cfg.dy
        diff = (dcdx_flux[:, 1:] - dcdx_flux[:, :-1]) / cfg.dx + (
            dcdy_flux[1:, :] - dcdy_flux[:-1, :]) / cfg.dy
        source = np.zeros_like(c)
        ix, iy = cfg.source_center
        source[iy, ix] = cfg.source_amplitude * pulse
        c = c + cfg.dt * (diff - adv) + cfg.dt * source
    return np.array(rows)


class TestSnapshotMatrix:
    def test_warns_when_n_not_less_than_m(self):
        with pytest.warns(UserWarning):
            snapshots.SnapshotMatrix(np.ones((4, 3)), ("a",), 3)

    def test_nonfinite_rejected(self):
        data = np.ones((3, 6))
        data[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            snapshots.SnapshotMatrix(data, ("a", "b"), 3)

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config()
        snap = snapshots.generate(cfg)
        path = tmp_path / "snap.romf"
        snap.save(path)
        loaded = snapshots.SnapshotMatrix.load(path)
        assert loaded.field_names == snap.field_names
        assert loaded.data.tobytes() == snap.data.tobytes()

    def test_load_empty_container_rejected(self, tmp_path):
        path = tmp_path / "empty.romf"
        romf.write_arrays(path, {})
        with pytest.raises(EmptyInput):
            snapshots.SnapshotMatrix.load(path)

    def test_load_differing_row_counts_rejected(self, tmp_path):
        path = tmp_path / "ragged.romf"
        romf.write_arrays(path, {"tracer": np.ones((4, 6)),
                                 "vel_x": np.ones((3, 6))})
        with pytest.raises(ShapeMismatch):
            snapshots.SnapshotMatrix.load(path)

    def test_csv_header_labels(self, tmp_path):
        snap = snapshots.SnapshotMatrix(
            np.arange(8.0).reshape(2, 4), ("tracer", "vel_x"), 2
        )
        path = tmp_path / "snap.csv"
        snap.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "tracer:0,tracer:1,vel_x:0,vel_x:1"


class TestScaler:
    def test_endpoints(self):
        scaler = snapshots.fit_scaler(np.array([[0.0], [10.0]]), 0.0, 1.0)
        assert np.array_equal(
            scaler.scale(np.array([[0.0], [10.0]])), [[0.0], [1.0]]
        )

    def test_constant_column_maps_to_midpoint(self):
        scaler = snapshots.fit_scaler(np.array([[5.0], [5.0], [5.0]]), 0.0, 1.0)
        assert np.array_equal(
            scaler.scale(np.array([[5.0], [5.0], [5.0]])),
            [[0.5], [0.5], [0.5]],
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            snapshots.fit_scaler(np.empty((0, 3)))

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(2, 12),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-50, 50, size=(rows, cols))
        data[:, 0] = data[0, 0]  # force one constant column
        scaler = snapshots.fit_scaler(data, -1.0, 1.0)
        scaled = scaler.scale(data)
        assert scaled.min() >= -1.0 - 1e-12 and scaled.max() <= 1.0 + 1e-12
        back = scaler.invert(scaled)
        assert np.max(np.abs(back - data)) <= 1e-12 * max(
            1.0, np.max(np.abs(data))
        )

    def test_save_load_round_trip(self, tmp_path):
        scaler = snapshots.fit_scaler(np.random.default_rng(0).random((5, 3)))
        path = tmp_path / "scaler.romf"
        scaler.save(path)
        loaded = snapshots.MinMaxScaler.load(path)
        data = np.random.default_rng(1).random((4, 3))
        assert np.array_equal(loaded.scale(data), scaler.scale(data))

    @pytest.mark.parametrize("arrays, missing", [
        ({"mins": np.zeros(2), "maxs": np.ones(2)}, "'range'"),
        ({"mean": np.zeros(2)}, "'mins'"),
    ])
    def test_load_missing_array_is_format_error(self, tmp_path, arrays,
                                                missing):
        path = tmp_path / "scaler.romf"
        romf.write_arrays(path, arrays)
        with pytest.raises(romf.FormatError, match=missing):
            snapshots.MinMaxScaler.load(path)

    @pytest.mark.parametrize("bounds", [[0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]])
    def test_load_malformed_range_is_format_error(self, tmp_path, bounds):
        path = tmp_path / "scaler.romf"
        romf.write_arrays(path, {"mins": np.zeros(2), "maxs": np.ones(2),
                                 "range": np.array(bounds)})
        with pytest.raises(romf.FormatError, match="range"):
            snapshots.MinMaxScaler.load(path)
