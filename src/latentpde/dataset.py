"""Dataset generation, on-disk layout, normalization, and image export.

A dataset is a directory holding ``manifest.json`` plus one binary blob
per trajectory (``traj_00000.bin``, ...).  Blobs are raw little-endian
float64, frames first, row-major within a frame, no header; the manifest
records every shape needed to read them back and the full generation
config needed to regenerate them bit for bit.  All writes go through a
temp file and an atomic rename so readers never see partial data.
"""

from dataclasses import dataclass, field, asdict, replace
import contextlib
import datetime
import json
import os

import numpy as np

from .errors import DataFormatError, Key, ParameterError, check_entries
from .lattice_ops import GRID_TABLE, GridSpec, build_modified_laplacian, build_wave_generator
from .random_fields import GRF_TABLE, GrfParams, build_conductivity, sample_matern_field
from .solvers import TRAJECTORY_TABLE, Trajectory, euler_frames, simulate_kse1d, simulate_kse2d
from .tokenizer import amplitude, tokenize_trajectory

FORMAT_VERSION = 1
# the entries a reader uses; the version first, as a manifest of another one may lack the rest
_MANIFEST_TABLE = {"format_version": Key(int, "==", FORMAT_VERSION), "kind": Key(str),
                   "trajectories": Key(int, ">=", 1), "frames": Key(int, ">=", 1),
                   "dt": TRAJECTORY_TABLE["dt"], "frame_shape": Key(list, ">=", 1),
                   "config": Key(dict), "patch": Key((int, None))}


@dataclass
class DatasetManifest:
    """Everything needed to read a dataset back and to regenerate it."""

    equation: str
    kind: str                  # "fields" or "tokens"
    grid_size: int
    trajectories: int
    frames: int                # stored frames per trajectory
    dt: float                  # time between stored frames
    skip: int
    burn_in: int
    frame_shape: list          # e.g. [32, 32], [2, 32, 32], [200] or [64] (tokens)
    init_seeds: list
    config: dict               # fully-resolved generation config
    patch: int | None = None   # set on token datasets
    normalization: dict | None = None
    created: str = ""
    format_version: int = FORMAT_VERSION
    extra: dict = field(default_factory=dict)

    @property
    def amplitude_shape(self) -> tuple:
        """Shape of one field frame as the verbs read it: the amplitude
        block of a stacked wave state, the frame itself otherwise."""
        return amplitude(np.empty((0, *self.frame_shape))).shape[1:]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"manifest is not valid JSON: {exc}") from exc
        check_entries(raw, _MANIFEST_TABLE, "manifest.json", DataFormatError)
        shape = raw["frame_shape"]
        n = shape[-1] if shape else 0
        # a frame is a line (N,); a field frame may be a lattice (n, n) or a wave state (2, n, n)
        if shape != [n] and not (raw["kind"] == "fields" and shape in ([n, n], [2, n, n])):
            raise DataFormatError(f"manifest.json: no {raw['kind']} dataset has frames {shape}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise DataFormatError(f"manifest fields do not match schema: {exc}") from exc


def _tmp_path(path: str) -> str:
    return f"{path}.tmp.{os.getpid()}"


def atomic_write(path: str, data: bytes) -> None:
    tmp = _tmp_path(path)
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _blob_name(index: int) -> str:
    return f"traj_{index:05d}.bin"


class _BlobWriter:
    """The blobs of one dataset, each written to its own temp file as its
    frames arrive: ``append(index, frames)`` adds frames to blob ``index``,
    the first append starting its temp file afresh.  ``commit(manifest)``
    syncs every temp blob before it renames any into place, and writes
    the manifest last.  Each call opens the one file it touches and
    closes it again, so a dataset of any number of trajectories holds one
    descriptor at a time.
    Leaving the ``with`` block on an exception before that removes the
    temp files, and ``out_dir`` too if it was made here and is empty, so
    a failed write leaves ``out_dir`` as it was."""

    def __init__(self, out_dir: str, count: int):
        self.out_dir = out_dir
        self.paths = [os.path.join(out_dir, _blob_name(i)) for i in range(count)]
        self.begun = set()
        self.made = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)

    def __enter__(self):
        return self

    def append(self, index: int, frames) -> None:
        # os-level calls cost about half of a file object's open and close,
        # and a lattice dataset appends one frame per trajectory per step
        flags = os.O_WRONLY | os.O_CREAT | (os.O_APPEND if index in self.begun else os.O_TRUNC)
        fd = os.open(_tmp_path(self.paths[index]), flags, 0o666)
        try:
            data = memoryview(np.ascontiguousarray(frames, dtype="<f8")).cast("B")
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self.begun.add(index)

    def commit(self, manifest: DatasetManifest) -> None:
        for path in self.paths:
            fd = os.open(_tmp_path(path), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        for path in self.paths:
            os.replace(_tmp_path(path), path)
        atomic_write(os.path.join(self.out_dir, "manifest.json"), manifest.to_json().encode())

    def __exit__(self, kind, value, traceback):
        if kind is None:
            return
        for path in self.paths:
            with contextlib.suppress(OSError):
                os.remove(_tmp_path(path))
        if self.made:
            with contextlib.suppress(OSError):
                os.rmdir(self.out_dir)


def write_dataset(frame_arrays, manifest: DatasetManifest, out_dir: str) -> None:
    """Write blobs plus manifest: every blob lands, with the manifest
    last, or none does."""
    frame_arrays = list(frame_arrays)
    if len(frame_arrays) != manifest.trajectories:
        raise ParameterError(
            f"{len(frame_arrays)} trajectories but manifest says {manifest.trajectories}")
    shape = (manifest.frames,) + tuple(manifest.frame_shape)
    for idx, frames in enumerate(frame_arrays):
        if np.shape(frames) != shape:
            raise ParameterError(f"trajectory {idx} shape {np.shape(frames)} != {shape}")
    with _BlobWriter(out_dir, len(frame_arrays)) as blobs:
        for idx, frames in enumerate(frame_arrays):
            blobs.append(idx, frames)
        blobs.commit(manifest)


def load_manifest(data_dir: str) -> DatasetManifest:
    path = os.path.join(data_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataFormatError(f"{data_dir}: no manifest.json")
    with open(path, "rb") as fh:
        return DatasetManifest.from_json(fh.read().decode())


def load_field_manifest(data_dir: str) -> DatasetManifest:
    """The manifest of a field dataset.  A token dataset, which no verb
    reads, is refused here, before any blob is read."""
    manifest = load_manifest(data_dir)
    if manifest.kind != "fields":
        raise DataFormatError(f"{data_dir}: a dataset of kind {manifest.kind!r}; "
                              "this verb reads a 'fields' dataset")
    return manifest


def read_float64(path: str, shape) -> np.ndarray:
    """The array of ``shape`` in a file of raw little-endian float64, as a
    dataset blob or a rollout clip is written.  A missing file, another
    byte count or a value that is not finite, which no program writes, is
    a DataFormatError."""
    shape = tuple(shape)
    if not os.path.exists(path):
        raise DataFormatError(f"{path}: no such file")
    expected, actual = int(np.prod(shape)) * 8, os.path.getsize(path)
    if actual != expected:
        raise DataFormatError(f"{path}: {actual} bytes, not the {expected} of shape {shape}")
    values = np.fromfile(path, dtype="<f8").reshape(shape)
    if not np.isfinite(values).all():
        raise DataFormatError(f"{path}: holds a value that is not finite")
    return values


def load_trajectory(data_dir: str, manifest: DatasetManifest, index: int) -> np.ndarray:
    """Read one blob of a dataset, of the shape its manifest records."""
    if not 0 <= index < manifest.trajectories:
        raise ParameterError(f"trajectory index {index} outside 0..{manifest.trajectories - 1}")
    return read_float64(os.path.join(data_dir, _blob_name(index)),
                        (manifest.frames, *manifest.frame_shape))


def trajectories(data_dir: str, manifest: DatasetManifest, indices=None):
    """Yield the trajectories ``indices`` (all by default) of a field
    dataset, each blob read when the iteration reaches it.  This is the one
    way the verbs read a dataset: a verb that keeps only what it needs of
    each trajectory holds one trajectory at a time, not the dataset."""
    for index in range(manifest.trajectories) if indices is None else indices:
        yield load_trajectory(data_dir, manifest, index)


def load_all(data_dir: str):
    """Every trajectory of a field dataset at once, with its manifest."""
    manifest = load_field_manifest(data_dir)
    return list(trajectories(data_dir, manifest)), manifest


# ---------------------------------------------------------------------------
# normalization

def compute_normalization(frame_arrays) -> dict:
    """Global min/max over the given (training) trajectories: one pass over
    any iterable of arrays, so a generator is read once."""
    lows, highs = [], []
    for fr in frame_arrays:
        lows.append(float(np.min(fr)))
        highs.append(float(np.max(fr)))
    if not lows:
        raise ParameterError("no trajectories to normalize over")
    lo, hi = min(lows), max(highs)
    return {"lo": lo, "hi": hi, "constant": lo == hi}


# the normalization entry of a model header and of a clip's metadata
NORMALIZATION_TABLE = {"lo": Key(float), "hi": Key(float), "constant": Key(bool)}


def check_normalization(stats, where: str) -> None:
    """A DataFormatError (the file ``where`` is malformed) unless ``stats``, which met
    :data:`NORMALIZATION_TABLE`, could come from :func:`compute_normalization`."""
    if not stats["lo"] <= stats["hi"] or stats["constant"] != (stats["lo"] == stats["hi"]):
        raise DataFormatError(f"{where}: normalization {stats!r} is no min and max of any data")


def apply_normalization(x: np.ndarray, stats: dict) -> np.ndarray:
    """Affine map of [lo, hi] onto [-1, 1]; constant data goes to 0."""
    x = np.asarray(x, dtype=float)
    if stats["constant"]:
        return x - stats["lo"]
    return 2.0 * (x - stats["lo"]) / (stats["hi"] - stats["lo"]) - 1.0


# ---------------------------------------------------------------------------
# image export

def export_frame_image(frame: np.ndarray, path: str, colormap: str = "gray") -> None:
    """Write one field as a binary PGM (gray) or PPM (diverging colormap).

    Values map linearly from the normalized range [-1, 1] to 0..255
    (clipped, rounded half to even), so a zero field lands on mid-gray
    128.  The diverging map runs blue -> white -> red.
    """
    check_entries(locals(), {"colormap": Key(str, "in", ("gray", "diverging"))},
                  "export_frame_image", ParameterError)
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise ParameterError(f"image export needs a 2-d field, got shape {frame.shape}")
    t = np.clip((frame + 1.0) / 2.0, 0.0, 1.0)
    h, w = frame.shape
    if colormap == "gray":
        payload = np.rint(t * 255).astype(np.uint8)
        data = b"P5\n%d %d\n255\n" % (w, h) + payload.tobytes()
    else:
        r = np.rint(np.clip(2 * t, 0, 1) * 255).astype(np.uint8)
        g = np.rint((1 - np.abs(2 * t - 1)) * 255).astype(np.uint8)
        b = np.rint(np.clip(2 - 2 * t, 0, 1) * 255).astype(np.uint8)
        payload = np.stack([r, g, b], axis=-1)
        data = b"P6\n%d %d\n255\n" % (w, h) + payload.tobytes()
    atomic_write(path, data)


# ---------------------------------------------------------------------------
# generation

def _conductivity_field(cond: dict, n: int) -> np.ndarray:
    if "constant" in cond:
        return np.full((n, n), float(cond["constant"]))
    params = GrfParams(grid_size=n, sigma=cond["sigma"], m=cond["m"],
                       nu=cond["nu"], seed=cond["seed"])
    return cond.get("scale", 1.0) * build_conductivity(params)


# Each key an equation reads, as a row of :class:`errors.Key`; a key naming a GrfParams,
# GridSpec or Trajectory field takes that field's row.  Other keys, such as ``patch``, pass.
_POSITIVE, _COUNT = Key(float, ">", 0), Key(int, ">=", 1)
_GRF = {key: GRF_TABLE[key] for key in ("sigma", "m", "nu")}
_STEPPED = {"grid_size": GRF_TABLE["grid_size"], "dt": _POSITIVE, "trajectories": _COUNT,
            "frames": _COUNT, "skip": TRAJECTORY_TABLE["skip"], "init_seed": GRF_TABLE["seed"],
            "init": Key(_GRF)}
# a lattice keeps every frame from the first; its conductivity is a constant or a GRF
_LATTICE = {**_STEPPED, "dx": GRID_TABLE["dx"], "burn_in": Key(int, "==", 0, True),
            "conductivity": Key({"constant": _POSITIVE._replace(omit=True),
                                  **{key: GRF_TABLE[key]._replace(omit="constant")
                                     for key in ("sigma", "m", "nu", "seed")},
                                  "scale": _POSITIVE._replace(omit=True)})}
_CONFIG_TABLES = {
    "heat": _LATTICE, "wave": _LATTICE,
    "kse2d": {**_STEPPED, "domain_length": _POSITIVE, "burn_in": TRAJECTORY_TABLE["burn_in"]},
    # the sine initial state ignores init_seed: a second trajectory repeats the first
    "kse1d": {"sites": _COUNT, "domain_length": _POSITIVE, "dt": _POSITIVE, "steps": _COUNT,
              "trajectories": Key(int, "==", 1), "init_seed": Key(int, ">=", 0),
              "init": Key({"kind": Key(str, "==", "sine", True), "waves": Key(float)})},
}


def _check_config(config) -> None:
    """Raise ParameterError unless the config names an equation and meets its
    table, nested entries included; the objects it builds check their rows again."""
    check_entries(config, {"equation": Key(str, "in", sorted(_CONFIG_TABLES))}, "config",
                  ParameterError)
    check_entries(config, _CONFIG_TABLES[config["equation"]], "config", ParameterError)


def _grf_init(config: dict, seed: int) -> np.ndarray:
    init = config["init"]
    return sample_matern_field(GrfParams(grid_size=config["grid_size"], sigma=init["sigma"],
                                         m=init["m"], nu=init["nu"], seed=seed))


def lattice_system(config: dict, seeds=()):
    """The operator of a heat or wave config, from one conductivity, and the
    initial states of its trajectories ``seeds``, stacked (an empty stack reads
    no ``init``); a wave is released from rest.  :func:`generate_dataset` steps these."""
    n = config["grid_size"]
    grid = GridSpec(n=n, dx=config.get("dx", 1.0))
    cond = _conductivity_field(config["conductivity"], n)
    heat = config["equation"] == "heat"
    op = build_modified_laplacian(cond, grid) if heat else build_wave_generator(cond, grid)
    u0s = np.reshape([_grf_init(config, seed) for seed in seeds], (len(seeds), n, n))
    return op, u0s if heat else np.stack([u0s, np.zeros_like(u0s)], axis=1)


def _kse_trajectory(config: dict, seed: int) -> Trajectory:
    if config["equation"] == "kse2d":
        skip, burn = config.get("skip", 1), config.get("burn_in", 0)
        steps = (config["frames"] + burn) * skip
        return simulate_kse2d(_grf_init(config, seed), config["domain_length"], config["dt"],
                              steps, skip=skip, burn_in=burn)
    sites, length = config["sites"], config["domain_length"]
    x = np.arange(sites) * length / sites
    u0 = np.sin(config["init"]["waves"] * np.pi * x / length)
    return simulate_kse1d(u0, length, config["dt"], config["steps"])


def _generate(config: dict, emit) -> DatasetManifest:
    """Simulate every trajectory of a checked config, each self-seeded,
    and hand its frames to ``emit(index, frames)`` as they are computed.
    Heat and wave trajectories share one conductivity and one operator
    and are stepped together, so each of their stored frames goes out as
    it is stepped (see :func:`euler_frames`); a kse trajectory goes out
    whole.  Returns the dataset's manifest."""
    seeds = [config["init_seed"] + i for i in range(config["trajectories"])]
    if config["equation"] in ("heat", "wave"):
        op, x0s = lattice_system(config, seeds)
        skip = config.get("skip", 1)
        steps = (config["frames"] - 1) * skip + 1
        for frame in euler_frames(op, x0s, config["dt"], steps, skip=skip):
            for index, stored in enumerate(frame):
                emit(index, stored[None])
        frames, shape, dt, burn_in = config["frames"], x0s.shape[1:], config["dt"] * skip, 0
    else:
        for index, seed in enumerate(seeds):
            traj = _kse_trajectory(config, seed)
            emit(index, traj.frames)
        frames, shape, dt = traj.n_frames, traj.frames.shape[1:], traj.dt
        skip, burn_in = traj.skip, traj.burn_in
    return DatasetManifest(
        equation=config["equation"],
        kind="fields",
        grid_size=config.get("grid_size", config.get("sites")),
        trajectories=len(seeds),
        frames=frames,
        dt=dt,
        skip=skip,
        burn_in=burn_in,
        frame_shape=list(shape),
        init_seeds=seeds,
        config=dict(config),
        patch=None,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def generate_dataset(config: dict):
    """All trajectories of a config, held in memory; returns (frame arrays,
    manifest).  Trajectory i is the one trajectory of the config with
    ``init_seed + i`` and ``trajectories = 1``.  :func:`write_generated_dataset`
    writes the same bytes without holding them."""
    _check_config(config)
    parts = [[] for _ in range(config["trajectories"])]
    # a copy, so a lattice frame does not keep the whole stepped state
    manifest = _generate(config, lambda index, frames: parts[index].append(np.array(frames)))
    for index, part in enumerate(parts):
        parts[index] = np.concatenate(part)
    return parts, manifest


def write_generated_dataset(config: dict, out_dir: str) -> DatasetManifest:
    """Generate the dataset of a config into ``out_dir``, each frame
    appended to its blob as soon as it is computed, so only the stepped
    states (heat, wave) or one trajectory (kse) are held at once.  The
    blobs land as :func:`write_dataset`'s do: every one, with the
    manifest last, or none, whatever stops the run."""
    _check_config(config)
    with _BlobWriter(out_dir, config["trajectories"]) as blobs:
        manifest = _generate(config, blobs.append)
        blobs.commit(manifest)
    return manifest


def tokenize_dataset(data_dir: str, patch: int, out_dir: str) -> DatasetManifest:
    """Patch-average every trajectory of a field dataset into a token one."""
    if os.path.realpath(out_dir) == os.path.realpath(data_dir):
        raise ParameterError(f"tokenize would write its tokens over the dataset {data_dir}")
    manifest = load_field_manifest(data_dir)
    tokens = [tokenize_trajectory(fr, patch) for fr in trajectories(data_dir, manifest)]
    token_manifest = replace(
        manifest, kind="tokens", frame_shape=[tokens[0].shape[1]], patch=patch,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        extra={"source": os.path.abspath(data_dir)})
    write_dataset(tokens, token_manifest, out_dir)
    return token_manifest


def write_csv(path: str, header: list, rows, comment: str = "") -> None:
    """CSV with one optional leading '#' provenance line."""
    import csv
    import io

    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write(path, buf.getvalue().encode())

