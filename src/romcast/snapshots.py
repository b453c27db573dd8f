"""Synthetic advection-diffusion snapshot generation and scaling utilities.

A 2D regular-grid explicit finite-difference solver (first-order upwind
advection in flux form, second-order central diffusion, sinusoidal point
source, periodic boundaries) stands in for the full CFD model. It works
in grid units: a cell is 1 wide, so u0 is in cells per second and kappa
in cells^2 per second. A uniform spacing h is the unit-spacing run with
u0 / h and kappa / h^2, since the rotating field's shape does not depend
on scale and the source is added per cell. Each time step is vectorised
into one row of the snapshot matrix: tracer nodes, then velocity nodes.
The solver steps the tracer on contiguous 1-D slices of one flat padded
buffer, because numpy runs a slice of a 2-D array row by row, at several
times the cost of one flat span (``generate``).

A snapshot file moves between disk and memory once: ``SnapshotMatrix.load``
reads each field's record straight into its column block of the matrix,
and ``load_field`` keeps one field alone, so a command that uses one field
holds a third of the file; the other records are still read and checked
in bounded runs (``romf``).
"""

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import romf
from .errors import (
    EmptyInput,
    InvalidConfig,
    NonFiniteInput,
    ShapeMismatch,
    StabilityViolation,
    is_integer,
)

FIELD_NAMES = ("tracer", "vel_x", "vel_y")


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic solver run, in grid units: ``u0``, the
    peak speed, in cells per second and ``kappa`` in cells^2 per second.

    ``dt`` must satisfy the explicit-scheme stability bounds
    ``dt <= 1 / |u0|`` and ``dt <= 1 / (4 kappa)``. A uniform spacing h
    is this run with u0 / h and kappa / h^2, whose bounds are then
    ``dt <= h / |u0|`` and ``dt <= h^2 / (4 kappa)``.
    ``source_period`` is the period (seconds) of the sinusoidal background
    pollution pulse injected at ``source_center``; the source term is
    ``amplitude * (1 + sin(2 pi t / period)) / 2`` so it stays nonnegative.
    ``seed`` draws the initial tracer alone, so with ``init_amplitude``
    0, the default, it changes no byte.
    A config checks itself when built, and so on ``replace``, raising
    InvalidConfig. Each int field must be an integer, a numpy one
    included, and not a bool, and ``source_center`` exactly two, stored
    as a tuple of ints.
    """

    grid_nx: int = 32
    grid_ny: int = 32
    dt: float = 0.2
    n_steps: int = 600
    kappa: float = 0.02
    u0: float = 2.5
    source_center: tuple = (8, 8)  # (ix, iy)
    source_amplitude: float = 1.0
    source_period: float = 7.4
    seed: int = 0
    modulate_velocity: bool = False
    init_amplitude: float = 0.0  # scale of the seeded random initial tracer

    def __post_init__(self):
        try:
            center = tuple(self.source_center)
        except TypeError:  # not iterable
            center = ()
        if len(center) != 2 or not all(map(is_integer, center)):
            raise InvalidConfig(f"source_center must be two integers "
                                f"(ix, iy), got {self.source_center!r}")
        object.__setattr__(self, "source_center", tuple(map(int, center)))
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if f.type is int and not is_integer(value):
                raise InvalidConfig(f"{f.name} must be an integer, got "
                                    f"{value!r}")
            if f.type is float and not math.isfinite(value):
                raise InvalidConfig(f"{f.name} must be finite")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise InvalidConfig("grid_nx and grid_ny must be >= 2")
        if self.n_steps < 2:  # a snapshot matrix has n >= 2 rows
            raise InvalidConfig("n_steps must be >= 2")
        for name in ("dt", "source_period"):
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive")
        for name in ("seed", "kappa", "source_amplitude", "init_amplitude"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0")
        ix, iy = self.source_center
        if not (0 <= ix < self.grid_nx and 0 <= iy < self.grid_ny):
            raise InvalidConfig("source_center outside the grid")
        speed = abs(self.u0)
        if speed > 0 and self.dt > 1.0 / speed:
            raise StabilityViolation(
                f"dt={self.dt} violates advection CFL bound {1.0 / speed:.6g}"
            )
        if self.kappa > 0 and self.dt > 1.0 / (4.0 * self.kappa):
            raise StabilityViolation(
                f"dt={self.dt} violates diffusion bound "
                f"{1.0 / (4.0 * self.kappa):.6g}"
            )


@dataclass(frozen=True)
class SnapshotMatrix:
    """n x m matrix of vectorised model states, rows ordered in time, the
    columns the fields ``FIELD_NAMES`` in equal blocks; its file holds
    those three (n, nodes) records alone, or ``load`` raises FormatError."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ShapeMismatch("snapshot data must be 2-dimensional")
        if data.shape[1] % len(FIELD_NAMES):
            raise ShapeMismatch(
                f"{data.shape[1]} columns do not split into "
                f"{len(FIELD_NAMES)} equal fields"
            )
        _check_columns(data, data.shape[1])

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def m(self):
        return self.data.shape[1]

    @property
    def nodes_per_field(self):
        return self.m // len(FIELD_NAMES)

    def field(self, name):
        """Return the n x nodes submatrix of one named field (or the whole
        matrix for "all")."""
        check_field(name)
        if name == "all":
            return self.data
        lo = FIELD_NAMES.index(name) * self.nodes_per_field
        return self.data[:, lo:lo + self.nodes_per_field]

    def save(self, path):
        romf.write_arrays(path, {name: self.field(name)
                                 for name in FIELD_NAMES})

    @classmethod
    def load(cls, path):
        with romf.building(path):
            return cls(_read_fields(path, FIELD_NAMES))


def load_field(path, name):
    """``SnapshotMatrix.load(path).field(name)``, with the checks of that
    load, holding only the field in memory."""
    check_field(name)
    if name == "all":
        return SnapshotMatrix.load(path).data
    block = _read_fields(path, (name,))
    with romf.building(path):
        _check_columns(block, len(FIELD_NAMES) * block.shape[1])
    return block


def _check_columns(data, m):
    """The checks of a snapshot matrix of ``m`` columns that hold on any
    of its column blocks ``data``."""
    if data.shape[0] < 2 or m < 1:
        raise InvalidConfig("snapshot matrix needs n >= 2 rows, m >= 1 columns")
    if not np.all(np.isfinite(data)):
        raise NonFiniteInput("snapshot matrix contains NaN/Inf")


def _read_fields(path, names):
    """The fields ``names`` of the snapshot file at ``path``, side by side
    in one matrix, each record read straight into its column block."""
    shapes, out = {}, None

    def into(name, dims):
        nonlocal out
        if name not in FIELD_NAMES or len(dims) != 2 \
                or dims != next(iter(shapes.values()), dims):
            raise romf.FormatError(f"{path}: a snapshot file holds "
                                   f"{', '.join(FIELD_NAMES)} alone, each of "
                                   "one (n, nodes) shape")
        shapes[name] = dims
        n, nodes = dims
        if out is None:
            out = np.empty((n, nodes * len(names)))
        if name not in names:
            return None  # read, checked and dropped
        lo = names.index(name) * nodes
        return out[:, lo:lo + nodes]

    romf.read_arrays(path, into)
    romf.require(shapes, FIELD_NAMES, path)
    return out


def check_field(name):
    """Raise InvalidConfig unless ``name`` is in ``FIELD_NAMES`` or "all"."""
    if name not in (*FIELD_NAMES, "all"):
        raise InvalidConfig(f"unknown field {name!r}; expected "
                            f"{', '.join(FIELD_NAMES)} or all")


def _velocity_field(config):
    """Prescribed velocity on the grid, shape (ny, nx) per component: a
    solid-body rotation about the domain centre, in cell indices, peak
    speed u0."""
    x = np.arange(config.grid_nx)
    y = np.arange(config.grid_ny)
    xc, yc = x.mean(), y.mean()
    xx, yy = np.meshgrid(x - xc, y - yc)
    rmax = np.sqrt(xx**2 + yy**2).max()
    omega = config.u0 / rmax if rmax > 0 else 0.0
    return -omega * yy, omega * xx


def _source_factor(t, period):
    return 0.5 * (1.0 + np.sin(2.0 * np.pi * t / period))


def _fill_halo(cp):
    """Fill the one-cell halo of the padded array ``cp`` from its
    interior, wrapped around: rows first, then columns, which fills the
    corners too. This is the solver's one boundary rule, periodic."""
    cp[0, 1:-1], cp[-1, 1:-1] = cp[-2, 1:-1], cp[1, 1:-1]
    cp[:, 0], cp[:, -1] = cp[:, -2], cp[:, 1]


def _padded(arr):
    """A copy of ``arr`` inside a one-cell halo filled by ``_fill_halo``."""
    cp = np.empty((arr.shape[0] + 2, arr.shape[1] + 2))
    cp[1:-1, 1:-1] = arr
    _fill_halo(cp)
    return cp


def _faces(vxp, vyp):
    """Face velocities of the padded velocity components, as flat spans
    of faces (``generate``): ``ufx`` on x faces W + 1 .. size - W - 1 and
    ``ufy`` on y faces W + 1 .. size - 2; faces that bound no interior
    cell are 0."""
    ufx, ufy = np.zeros(vxp.shape), np.zeros(vyp.shape)
    ufx[1:-1, 1:] = 0.5 * (vxp[1:-1, :-1] + vxp[1:-1, 1:])
    ufy[1:, 1:-1] = 0.5 * (vyp[:-1, 1:-1] + vyp[1:, 1:-1])
    w = vxp.shape[1]
    return ufx.ravel()[w + 1:-w], ufy.ravel()[w + 1:-1]


def _upwind(ufx, ufy, w):
    """Flat indices into the padded tracer, of rows of ``w`` cells, of each
    face's upwind cell: the left (bottom) cell where the face velocity is
    positive, else the right (top) one."""
    k = np.arange(w + 1, w + 1 + ufy.size)
    return (np.where(ufx > 0.0, k[:ufx.size] - 1, k[:ufx.size]),
            np.where(ufy > 0.0, k - w, k))


def _advance(cp, ufx, ufy, upx, upy, config):
    """One explicit step: upwind advection + central diffusion, flux form,
    in grid units, so no difference is divided by a spacing.

    ``cp`` is the tracer padded by one cell, its halo filled by
    ``_fill_halo``; ``ufx`` and ``ufy`` are the face velocities
    (``_faces``) and ``upx`` and ``upy`` their upwind cells (``_upwind``).
    Updates the flat span from the first interior cell to the last in
    place; the halo cells inside it take finite junk.
    """
    dt, kappa = config.dt, config.kappa
    w = cp.shape[1]
    cf = cp.ravel()  # a view: cp is contiguous
    flux_x = cf.take(upx)
    flux_x *= ufx
    dcdx_flux = kappa * (cf[w + 1:-w] - cf[w:-w - 1])
    flux_y = cf.take(upy)
    flux_y *= ufy
    dcdy_flux = kappa * (cf[w + 1:-1] - cf[1:-w - 1])

    # cell k's faces are x faces k and k + 1, y faces k and k + w
    adv = flux_x[1:] - flux_x[:-1]
    adv += flux_y[w:] - flux_y[:-w]
    diff = dcdx_flux[1:] - dcdx_flux[:-1]
    diff += dcdy_flux[w:] - dcdy_flux[:-w]
    # c + dt * (diff - adv), in place
    diff -= adv
    diff *= dt
    cf[w + 1:-w - 1] += diff


def generate(config):
    """Run the solver and return the snapshot matrix (one row per step).

    Row t holds the state at time t*dt: tracer first, then vel_x, vel_y.
    Deterministic given the config: the initial tracer is
    ``init_amplitude`` times uniform noise drawn from ``PCG64(seed)``.

    What does not change between steps is computed once: the padded
    velocities, their face velocities and each face's upwind cell. With
    ``modulate_velocity`` a step's face velocities are the fixed ones
    times the step's factor s; the two cells of every face of the rotating
    field carry one velocity, so these are bit for bit the faces of the
    scaled field. The velocity rows, the fixed fields times each step's
    s, are written after the loop. Each step refills the tracer's halo,
    updates its interior in place and adds the source to its one cell.

    The tracer lives in a padded (ny + 2, W) buffer, W = nx + 2, and a step
    works on its flat form: x face k lies between flat cells k - 1 and k,
    y face k between k - W and k. Every stencil operation is then one
    contiguous slice over the span from the first interior cell to the
    last, where a 2-D view would run row by row. The halo cells inside
    that span take finite junk, which the next halo fill overwrites
    before anything reads it.
    The output is byte for byte that of the flux-form update
    ``c + dt * (diff - adv) + dt * source`` on freshly padded fields
    (``tests/test_snapshots.py``'s ``reference_generate``).
    """
    ny, nx = config.grid_ny, config.grid_nx
    rng = np.random.default_rng(np.random.PCG64(config.seed))
    cp = _padded(config.init_amplitude * rng.random((ny, nx)))
    c = cp[1:-1, 1:-1]

    vx, vy = _velocity_field(config)
    ufx, ufy = _faces(_padded(vx), _padded(vy))
    # the modulation factor s lies in [0, 1], and rounding is monotone, so
    # a scaled face velocity keeps its sign or becomes zero, where either
    # side gives a zero flux: the upwind cells hold for every step
    upx, upy = _upwind(ufx, ufy, nx + 2)
    ix, iy = config.source_center
    factors = np.empty(config.n_steps)
    rows = np.empty((config.n_steps, 3 * nx * ny))
    # row t is the fields (tracer, vel_x, vel_y) of step t, each (ny, nx)
    fields = rows.reshape(config.n_steps, 3, ny, nx)
    for step in range(config.n_steps):
        s = factors[step] = _source_factor(step * config.dt,
                                           config.source_period)
        fields[step, 0] = c
        _fill_halo(cp)
        if config.modulate_velocity:
            _advance(cp, ufx * s, ufy * s, upx, upy, config)
        else:
            _advance(cp, ufx, ufy, upx, upy, config)
        c[iy, ix] += config.dt * (config.source_amplitude * s)
    # in place, without an (n_steps, ny, nx) temporary per field
    scale = factors[:, None, None] if config.modulate_velocity else 1.0
    np.multiply(scale, vx, out=fields[:, 1])
    np.multiply(scale, vy, out=fields[:, 2])
    return SnapshotMatrix(rows)


@dataclass(frozen=True)
class MinMaxScaler:
    """Column-affine map onto [0, 1], the range of the forecaster's
    default sigmoid head; constant columns map to the midpoint, 0.5. Its
    file holds the records ``mins`` and ``maxs`` alone, or ``load``
    raises FormatError."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.ndim(self.mins) != 1 or np.shape(self.mins) != np.shape(self.maxs):
            raise ShapeMismatch(f"scaler mins {np.shape(self.mins)} and maxs "
                                f"{np.shape(self.maxs)} are not 1-D of one size")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise InvalidConfig("scaler bounds must be finite")
        if np.any(self.mins > self.maxs):
            raise InvalidConfig("scaler mins must not exceed maxs")

    def _check(self, data):
        """``data`` as float64, whether each column's span is nonzero,
        and the spans with 1 in place of 0."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape[-1:] != (self.mins.size,):
            raise ShapeMismatch(
                f"expected {self.mins.size} columns, got {data.shape}"
            )
        span = self.maxs - self.mins
        return data, span > 0, np.where(span > 0, span, 1.0)

    def scale(self, data):
        """Map (..., columns) data onto [0, 1], column by column."""
        data, varies, span = self._check(data)
        return np.where(varies, (data - self.mins) / span, 0.5)

    def invert(self, data):
        """The inverse of ``scale``; a constant column maps to its value."""
        data, varies, span = self._check(data)
        return np.where(varies, self.mins + data * span, self.mins)

    def save(self, path):
        romf.write_arrays(path, {"mins": self.mins, "maxs": self.maxs})

    @classmethod
    def load(cls, path):
        arrays, _ = romf.read_arrays(path)
        romf.require(arrays, ["mins", "maxs"], path)
        extra = [name for name in arrays if name not in ("mins", "maxs")]
        if extra:
            raise romf.FormatError(f"{path}: a scaler file holds mins and "
                                   f"maxs alone, not {extra[0]!r}")
        with romf.building(path):
            return cls(mins=arrays["mins"], maxs=arrays["maxs"])


def fit_scaler(data):
    """Fit per-column min/max from the rows of an (n, columns) matrix."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch("a scaler is fitted on an (n, columns) matrix")
    if data.size == 0:
        raise EmptyInput("cannot fit a scaler on empty data")
    return MinMaxScaler(mins=data.min(axis=0), maxs=data.max(axis=0))
