import tracemalloc
import warnings
from dataclasses import replace

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


def uniform_velocity(config):
    """A uniform field: u0 in x everywhere and zero in y, so that every y
    face velocity is exactly zero; patched in for ``_velocity_field``."""
    shape = (config.grid_ny, config.grid_nx)
    return np.full(shape, float(config.u0)), np.zeros(shape)


class TestConfigValidation:
    def test_nonpositive_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(grid_nx=1)

    def test_negative_kappa_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(kappa=-0.1)

    def test_advection_cfl_enforced(self):
        with pytest.raises(StabilityViolation):
            small_config(u0=10.0, dt=0.2)

    def test_diffusion_bound_enforced(self):
        with pytest.raises(StabilityViolation):
            small_config(kappa=5.0, dt=0.2, u0=0.0)

    def test_source_center_is_a_tuple(self):
        config = snapshots.GeneratorConfig(source_center=[3, 3])
        assert config.source_center == (3, 3)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(InvalidConfig, match="dt"):
            replace(snapshots.GeneratorConfig(), dt=float("nan"))

    def test_source_outside_grid_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(source_center=(16, 0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [
        "dt", "kappa", "u0", "source_amplitude", "source_period",
        "init_amplitude",
    ])
    def test_nonfinite_number_rejected(self, name, value):
        with pytest.raises(InvalidConfig, match=name):
            small_config(**{name: value})

    def test_one_step_rejected(self):
        # a snapshot matrix needs two rows: refused before the solve
        with pytest.raises(InvalidConfig, match="n_steps"):
            small_config(n_steps=1)

    @pytest.mark.parametrize("name", ["grid_nx", "grid_ny", "n_steps",
                                      "seed"])
    def test_integer_field_refuses_a_float_or_a_bool(self, name):
        # grid_nx=8.5 used to end in a bare TypeError
        for value in (16.5, 16.0, True, np.True_, np.float64(16.0), "16"):
            with pytest.raises(InvalidConfig, match=f"{name} must be an "
                                                    f"integer, got"):
                small_config(**{name: value})
        assert getattr(small_config(**{name: np.int64(12)}), name) == 12

    @pytest.mark.parametrize("center", [(1.5, 2), (1, 2, 3), (1,), (),
                                        (True, 2), (np.float64(1.0), 2), 5,
                                        "12", None])
    def test_source_center_that_is_not_two_integers_refused(self, center):
        # (1.5, 2) used to end in an IndexError and (1, 2, 3) in a
        # ValueError
        with pytest.raises(InvalidConfig, match="source_center must be two "
                                                "integers"):
            small_config(source_center=center)

    def test_numpy_integer_source_center_is_stored_as_ints(self):
        config = small_config(source_center=np.array([3, 4]))
        assert config.source_center == (3, 4)
        assert all(type(i) is int for i in config.source_center)


class TestGenerate:
    def test_no_transport_no_source_keeps_state_constant(self):
        cfg = small_config(u0=0.0, kappa=0.0, source_amplitude=0.0,
                           init_amplitude=1.0, seed=2)
        snap = snapshots.generate(cfg)
        assert snap.field("tracer")[0].min() > 0.0
        assert np.array_equal(snap.data, np.tile(snap.data[0], (snap.n, 1)))

    def test_diffusion_conserves_mass_on_periodic_domain(self):
        cfg = small_config(u0=0.0, kappa=0.2, source_amplitude=0.0,
                           init_amplitude=1.0, seed=11, n_steps=200)
        snap = snapshots.generate(cfg)
        mass = snap.field("tracer").sum(axis=1)
        drift = np.abs(mass - mass[0]).max() / mass[0]
        assert drift < 1e-10

    def test_advection_also_conserves_mass(self):
        cfg = small_config(u0=1.5, source_amplitude=0.0, init_amplitude=1.0,
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

    def test_modulated_velocity_recorded_in_columns(self, monkeypatch):
        rotating = snapshots._velocity_field
        for field in (uniform_velocity, rotating):
            monkeypatch.setattr(snapshots, "_velocity_field", field)
            cfg = small_config(modulate_velocity=True)
            snap = snapshots.generate(cfg)
            vx, vy = snapshots._velocity_field(cfg)
            for t in range(cfg.n_steps):
                s = snapshots._source_factor(t * cfg.dt, cfg.source_period)
                assert snap.field("vel_x")[t].tobytes() == (s * vx).tobytes()
                assert snap.field("vel_y")[t].tobytes() == (s * vy).tobytes()

    # ids keep the name of the boundary, periodic, the solver's one rule
    @pytest.mark.parametrize("field", [
        pytest.param(field, id=f"periodic-{field}")
        for field in ("uniform", "rotating", "random")])
    def test_faces_of_a_scaled_field_are_the_scaled_faces(self, field):
        # what lets a modulated step scale its fixed faces: the two cells
        # of every face of the rotating field, and of a uniform one, carry
        # one velocity, which a field whose neighbouring cells differ does
        # not
        cfg = snapshots.GeneratorConfig()
        vel = snapshots._velocity_field(cfg)
        if field == "uniform":
            vel = uniform_velocity(cfg)
        if field == "random":
            vel = np.random.default_rng(5).uniform(
                -cfg.u0, cfg.u0, (2, cfg.grid_ny, cfg.grid_nx))
        vxp0, vyp0 = (snapshots._padded(v) for v in vel)
        ufx, ufy = snapshots._faces(vxp0, vyp0)
        same = []
        for step in range(cfg.n_steps):
            s = snapshots._source_factor(step * cfg.dt, cfg.source_period)
            sfx, sfy = snapshots._faces(vxp0 * s, vyp0 * s)
            same.append(sfx.tobytes() == (s * ufx).tobytes()
                        and sfy.tobytes() == (s * ufy).tobytes())
        assert all(same) != (field == "random")

    # ids: "<modulate>-periodic" for the rotating field from a random
    # tracer, and prefixed by the variant otherwise: "uniform", a uniform
    # field, whose y faces are exactly zero; "zero_tracer", a zero initial
    # tracer (init_amplitude 0, the default); "perturbation", the
    # benchmark's initial tracer, of init_amplitude 1e-9; "amplitude", a
    # source amplitude other than 1; and
    # "random_velocity", a field whose neighbouring cells differ, so that
    # the faces of a scaled field are not the scaled faces: its modulated
    # cases pin that a step's faces are the fixed faces times s. The grid
    # is 12 x 9, other than in two variants that pin the solver's flat row
    # stride: "tall", ny > nx; and "narrow", nx = 2, where a cell's two x
    # neighbours are one cell. The ids keep the name of the boundary,
    # periodic, the solver's one rule.
    @pytest.mark.parametrize("variant, modulate", [
        pytest.param(variant, modulate,
                     id=("" if variant == "rotating" else f"{variant}-")
                     + f"{modulate}-periodic")
        for variant in ("rotating", "uniform", "zero_tracer", "amplitude",
                        "random_velocity", "tall", "narrow", "perturbation")
        for modulate in (False, True)
    ])
    def test_matches_per_step_reference_bit_for_bit(self, variant, modulate,
                                                    monkeypatch):
        # source_period 4 with dt 0.2 makes the modulation factor exactly
        # zero at steps 15 and 35; dt 0.2 is inside both stability bounds
        # of every grid here
        grid = {"tall": dict(grid_nx=9, grid_ny=12),
                "narrow": dict(grid_nx=2, grid_ny=7, source_center=(1, 3))}
        amplitude = {"zero_tracer": 0.0, "perturbation": 1e-9}
        cfg = small_config(**{
            "modulate_velocity": modulate, "grid_nx": 12, "grid_ny": 9,
            "n_steps": 40, "seed": 3,
            "init_amplitude": amplitude.get(variant, 1.0),
            "source_amplitude": 0.37 if variant == "amplitude" else 1.0,
            **grid.get(variant, {})})
        if variant == "uniform":
            monkeypatch.setattr(snapshots, "_velocity_field",
                                uniform_velocity)
        if variant == "random_velocity":
            vx, vy = np.random.default_rng(5).uniform(
                -cfg.u0, cfg.u0, (2, cfg.grid_ny, cfg.grid_nx))
            monkeypatch.setattr(snapshots, "_velocity_field",
                                lambda config: (vx, vy))
        snap = snapshots.generate(cfg)
        assert snap.data.tobytes() == reference_generate(cfg).tobytes()

    @pytest.mark.parametrize("modulate", [False, True])
    def test_desk_size_matches_reference_bit_for_bit(self, modulate):
        cfg = snapshots.GeneratorConfig(n_steps=200, seed=4,
                                        init_amplitude=1.0,
                                        modulate_velocity=modulate)
        snap = snapshots.generate(cfg)
        assert snap.data.tobytes() == reference_generate(cfg).tobytes()


def reference_generate(cfg):
    """The solver as a plain loop that pads every field on every step, in
    grid units: no difference is divided by a spacing. The initial tracer
    is drawn as the config says: ``init_amplitude`` times uniform noise
    from ``PCG64(seed)``."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    c = cfg.init_amplitude * rng.random((cfg.grid_ny, cfg.grid_nx))
    vx0, vy0 = snapshots._velocity_field(cfg)
    rows = []
    for step in range(cfg.n_steps):
        t = step * cfg.dt
        pulse = 0.5 * (1.0 + np.sin(2.0 * np.pi * t / cfg.source_period))
        s = pulse if cfg.modulate_velocity else 1.0
        rows.append(np.concatenate([c.ravel(), (vx0 * s).ravel(),
                                    (vy0 * s).ravel()]))
        # the modulated faces are the faces of the unscaled field times s
        cp, vxp, vyp = (np.pad(a, 1, mode="wrap") for a in (c, vx0, vy0))
        ufx = 0.5 * (vxp[1:-1, :-1] + vxp[1:-1, 1:]) * s
        cl, cr = cp[1:-1, :-1], cp[1:-1, 1:]
        flux_x = np.where(ufx > 0.0, cl, cr) * ufx
        dcdx_flux = cfg.kappa * (cr - cl)
        ufy = 0.5 * (vyp[:-1, 1:-1] + vyp[1:, 1:-1]) * s
        cb, ct = cp[:-1, 1:-1], cp[1:, 1:-1]
        flux_y = np.where(ufy > 0.0, cb, ct) * ufy
        dcdy_flux = cfg.kappa * (ct - cb)
        adv = (flux_x[:, 1:] - flux_x[:, :-1]) + (
            flux_y[1:, :] - flux_y[:-1, :])
        diff = (dcdx_flux[:, 1:] - dcdx_flux[:, :-1]) + (
            dcdy_flux[1:, :] - dcdy_flux[:-1, :])
        source = np.zeros_like(c)
        ix, iy = cfg.source_center
        source[iy, ix] = cfg.source_amplitude * pulse
        c = c + cfg.dt * (diff - adv) + cfg.dt * source
    return np.array(rows)


class TestSnapshotMatrix:
    def test_nonfinite_rejected(self):
        data = np.ones((3, 6))
        data[1, 2] = np.nan
        with pytest.raises(NonFiniteInput):
            snapshots.SnapshotMatrix(data)

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config()
        snap = snapshots.generate(cfg)
        path = tmp_path / "snap.romf"
        snap.save(path)
        loaded = snapshots.SnapshotMatrix.load(path)
        assert loaded.nodes_per_field == cfg.grid_nx * cfg.grid_ny
        assert loaded.data.tobytes() == snap.data.tobytes()

    @pytest.mark.parametrize("field", [*snapshots.FIELD_NAMES, "all"])
    def test_load_field_is_the_field_of_the_load(self, tmp_path, field):
        snap = snapshots.generate(small_config(modulate_velocity=True))
        path = tmp_path / "snap.romf"
        snap.save(path)
        block = snapshots.load_field(path, field)
        assert block.tobytes() == snap.field(field).tobytes()
        assert block.flags.c_contiguous and block.flags.writeable

    def test_load_field_rejects_an_unknown_field(self, tmp_path):
        with pytest.raises(InvalidConfig):
            snapshots.load_field(tmp_path / "unread.romf", "pressure")

    @pytest.mark.parametrize("field", ["all", "tracer"])
    def test_desk_load_holds_little_beyond_what_it_keeps(self, tmp_path,
                                                         field):
        # the desk matrix, 600 x 3072: a load allocates the matrix once, and
        # a one-field read a third of it; the other records pass in blocks
        snap = snapshots.generate(snapshots.GeneratorConfig())
        path = tmp_path / "desk.romf"
        snap.save(path)
        kept = snap.field(field).nbytes
        del snap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracemalloc.start()
            try:
                block = (snapshots.SnapshotMatrix.load(path).data
                         if field == "all"
                         else snapshots.load_field(path, field))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert block.nbytes == kept
        assert peak <= 1.25 * kept + (2 << 20)

    def test_load_empty_container_rejected(self, tmp_path):
        path = tmp_path / "empty.romf"
        romf.write_arrays(path, {})
        with pytest.raises(romf.FormatError, match="missing array 'tracer'"):
            snapshots.SnapshotMatrix.load(path)

    def test_load_differing_row_counts_rejected(self, tmp_path):
        # and the other files that are not three (n, nodes) fields of one
        # shape: each once loaded, mis-split or failed as a usage error
        fields = dict.fromkeys(snapshots.FIELD_NAMES, np.ones((4, 6)))
        cases = {
            "ragged": {"tracer": np.ones((4, 6)), "vel_x": np.ones((3, 6)),
                       "vel_y": np.ones((4, 6))},
            "other_names": {"c": np.ones((4, 6)), "u": np.ones((4, 6)),
                            "v": np.ones((4, 6))},
            "extra_record": {**fields, "pressure": np.ones((4, 6))},
            # an empty tracer record: split evenly, "tracer" would be vel_x
            "empty_tracer": {**fields, "tracer": np.ones((4, 0))},
            "one_row": dict.fromkeys(snapshots.FIELD_NAMES, np.ones((1, 6))),
        }
        for name, arrays in cases.items():
            path = tmp_path / f"{name}.romf"
            romf.write_arrays(path, arrays)
            with pytest.raises(romf.FormatError, match=name):
                snapshots.SnapshotMatrix.load(path)
            with pytest.raises(romf.FormatError, match=name):
                snapshots.load_field(path, "vel_y")


class TestScaler:
    def test_endpoints(self):
        scaler = snapshots.fit_scaler(np.array([[0.0], [10.0]]))
        assert np.array_equal(
            scaler.scale(np.array([[0.0], [10.0]])), [[0.0], [1.0]]
        )

    def test_constant_column_maps_to_midpoint(self):
        scaler = snapshots.fit_scaler(np.array([[5.0], [5.0], [5.0]]))
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
        scaler = snapshots.fit_scaler(data)
        scaled = scaler.scale(data)
        assert scaled.min() >= -1e-12 and scaled.max() <= 1.0 + 1e-12
        back = scaler.invert(scaled)
        assert np.max(np.abs(back - data)) <= 1e-12 * max(
            1.0, np.max(np.abs(data))
        )

    def test_save_load_round_trip(self, tmp_path):
        scaler = snapshots.fit_scaler(np.random.default_rng(0).random((5, 3)))
        path = tmp_path / "scaler.romf"
        scaler.save(path)
        assert list(romf.read_arrays(path)[0]) == ["mins", "maxs"]
        loaded = snapshots.MinMaxScaler.load(path)
        data = np.random.default_rng(1).random((4, 3))
        assert np.array_equal(loaded.scale(data), scaler.scale(data))

    @pytest.mark.parametrize("arrays, missing", [
        ({"mins": np.zeros(2)}, "'maxs'"),
        ({"mean": np.zeros(2)}, "'mins'"),
    ])
    def test_load_missing_array_is_format_error(self, tmp_path, arrays,
                                                missing):
        path = tmp_path / "scaler.romf"
        romf.write_arrays(path, arrays)
        with pytest.raises(romf.FormatError, match=missing):
            snapshots.MinMaxScaler.load(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mins, maxs, error", [
        (np.zeros(3), np.ones(2), ShapeMismatch),
        (np.zeros((1, 2)), np.ones((1, 2)), ShapeMismatch),
        (np.ones(2), np.zeros(2), InvalidConfig),
        (np.array([0.0, 2.0]), np.ones(2), InvalidConfig),
        (np.array([np.nan, 0.0]), np.ones(2), InvalidConfig),
        (np.zeros(2), np.array([1.0, np.inf]), InvalidConfig),
        (np.array([-np.inf, 0.0]), np.ones(2), InvalidConfig),
    ])
    def test_constructor_checks_its_invariants(self, mins, maxs, error):
        with pytest.raises(error):
            snapshots.MinMaxScaler(mins, maxs)
        # fit_scaler orders inverted bounds, so only the others fail it
        if error is InvalidConfig and not np.any(mins > maxs):
            with pytest.raises(error):
                snapshots.fit_scaler(np.stack([mins, maxs]))

    @pytest.mark.parametrize("arrays, message", [
        ({"maxs": np.ones(3)}, "not 1-D of one size"),
        ({"range": np.array([0.0, 1.0])}, "not 'range'"),
        ({"mins": np.array([2.0, 0.0])}, "must not exceed"),
        ({"maxs": np.array([np.nan, 1.0])}, "finite"),
        ({"mins": np.array([-np.inf, 0.0])}, "finite"),
    ])
    def test_load_rewritten_file_is_format_error(self, tmp_path, arrays,
                                                 message):
        path = tmp_path / "scaler.romf"
        snapshots.fit_scaler(np.random.default_rng(2).random((5, 2))).save(path)
        saved, _ = romf.read_arrays(path)
        romf.write_arrays(path, {**saved, **arrays})
        with pytest.raises(romf.FormatError, match="scaler.romf") as info:
            snapshots.MinMaxScaler.load(path)
        assert message in str(info.value)

    # a scaler file of a version that had a scaler range: its range record,
    # the default [0, 1], a range it allowed other than that, or one it
    # refused, is never read as [0, 1]
    @pytest.mark.parametrize("bounds", [[0.0, 1.0], [-1.0, 1.0], [0.0]])
    def test_load_malformed_range_is_format_error(self, tmp_path, bounds):
        path = tmp_path / "scaler.romf"
        romf.write_arrays(path, {"mins": np.zeros(2), "maxs": np.ones(2),
                                 "range": np.array(bounds)})
        with pytest.raises(romf.FormatError) as info:
            snapshots.MinMaxScaler.load(path)
        assert str(info.value) == (f"{path}: a scaler file holds mins and "
                                   "maxs alone, not 'range'")
