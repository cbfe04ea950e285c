"""Canonical on-disk dataset format, loaders and writers.

One directory per sequence:

    manifest.json    format version, sequence id, camera intrinsics,
                     camera-to-body extrinsics (R_cb, t_cb), sensor rates,
                     depth_scale, and a sha256 inventory of every file
    frames.csv       t,image,depth       (depth column may be empty)
    frame_NNNNNN.pgm 16-bit binary PGM (P5, big-endian), gray in [0,1]
    depth_NNNNNN.pgm 16-bit PGM; meters = value / 65535 * depth_scale
    imu.csv          t,gx,gy,gz,ax,ay,az
    motors.csv       t,rpm1,rpm2,rpm3,rpm4
    groundtruth.csv  t,px,py,pz,qw,qx,qy,qz,vx,vy,vz   (optional)

Timestamps are float64 seconds from sequence start; CSV headers are
mandatory, floats are written with repr() so they round-trip exactly.

This module is the one CSV reader and writer: the dataset's files above and
every CSV the CLI verbs write go through `csv_text`, and their time series
are read back through `read_series`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics
from .synth import ImuStream, MotorStream

FORMAT_NAME = "selfvio-dataset"
FORMAT_VERSION = 1


class DatasetError(Exception):
    """Base class for dataset loading problems."""


class MissingFileError(DatasetError):
    pass


class ChecksumMismatchError(DatasetError):
    pass


class FormatError(DatasetError):
    pass


class NonMonotoneTimestampError(FormatError):
    def __init__(self, stream, index):
        super().__init__(f"non-monotone timestamp in {stream} at row {index}")
        self.stream = stream
        self.index = index


# --------------------------------------------------------------------------
# PGM 16-bit


def pgm16_bytes(values) -> bytes:
    """Encode float values in [0,1] as a 16-bit binary PGM."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.min() < 0.0 or v.max() > 1.0:
        raise FormatError("PGM expects a 2-D array with values in [0,1]")
    q = np.rint(v * 65535.0).astype(">u2")
    h, w = v.shape
    return f"P5\n{w} {h}\n65535\n".encode("ascii") + q.tobytes()


def write_pgm16(path, values):
    with open(path, "wb") as f:
        f.write(pgm16_bytes(values))


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    try:
        parts = data.split(b"\n", 3)
        magic, dims, maxval, payload = parts[0], parts[1], parts[2], parts[3]
        if magic != b"P5" or maxval != b"65535":
            raise FormatError(f"unsupported PGM variant in {path}")
        w, h = (int(x) for x in dims.split())
        q = np.frombuffer(payload, dtype=">u2", count=h * w).reshape(h, w)
    except (IndexError, ValueError) as e:
        raise FormatError(f"malformed PGM {path}: {e}") from e
    return q.astype(np.float64) / 65535.0


# --------------------------------------------------------------------------
# CSV helpers


def _cell(x):
    """One CSV cell: floats (np.float64 too) by repr(), so they round-trip
    exactly; strings and bools as they are; integers as integers."""
    if isinstance(x, float):            # the common cell first
        return repr(float(x))
    if isinstance(x, (str, bool)):      # bool before int: True, not 1
        return str(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_text(header, rows):
    """A headed CSV: the header line, then one line of `_cell`s per row.
    rows is an iterable of rows, or a 2-D array, taken as Python scalars."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    return "\n".join([header] + [",".join(map(_cell, r)) for r in rows]) + "\n"


def write_csv(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(csv_text(header, rows))


def _read_csv(path, expect_header):
    """Data rows of a headed CSV as lists of strings.

    `expect_header` is the exact header line, or a tuple of column names
    the header must contain; then each row keeps just those columns, in
    that order.
    """
    if not os.path.exists(path):
        raise MissingFileError(path)
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    pick = not isinstance(expect_header, str)
    header = lines[0].split(",") if lines else []
    if not lines or (not set(expect_header) <= set(header) if pick
                     else lines[0] != expect_header):
        raise FormatError(f"{path}: expected header {expect_header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise FormatError(f"{path}: a row's length differs from the header's")
    if pick:
        sel = [header.index(k) for k in expect_header]
        rows = [[r[i] for i in sel] for r in rows]
    return rows


def _floats(path, rows):
    """CSV rows of `path` parsed to a float64 (rows, columns) array; no rows
    or a non-numeric or non-finite cell is a FormatError."""
    if not rows:
        raise FormatError(f"{path}: no data rows")
    try:
        arr = np.array([[float(x) for x in r] for r in rows])
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
    if not np.isfinite(arr).all():
        raise FormatError(f"{path}: non-finite cell")
    return arr


def _read_floats(path, expect_header):
    """`_read_csv` parsed to a float64 (rows, columns) array."""
    return _floats(path, _read_csv(path, expect_header))


def _check_monotone(t, stream):
    t = np.asarray(t)
    bad = np.nonzero(np.diff(t) <= 0)[0]
    if len(bad):
        raise NonMonotoneTimestampError(stream, int(bad[0]) + 1)


def read_series(path, header):
    """`_read_floats` of a time series: its first column, the time, must
    strictly increase; the stream is named by the file's basename."""
    arr = _read_floats(path, header)
    _check_monotone(arr[:, 0], os.path.basename(path))
    return arr


# --------------------------------------------------------------------------
# manifest


@dataclass
class DatasetManifest:
    sequence_id: str
    intrinsics: CameraIntrinsics
    R_cb: np.ndarray
    t_cb: np.ndarray
    cam_hz: float
    imu_hz: float
    depth_scale: float
    files: dict                     # relpath -> sha256

    def to_json(self) -> str:
        doc = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "sequence_id": self.sequence_id,
            "intrinsics": {
                "fx": self.intrinsics.fx, "fy": self.intrinsics.fy,
                "cx": self.intrinsics.cx, "cy": self.intrinsics.cy,
                "width": self.intrinsics.width, "height": self.intrinsics.height,
            },
            "R_cb": self.R_cb.tolist(),
            "t_cb": self.t_cb.tolist(),
            "cam_hz": self.cam_hz,
            "imu_hz": self.imu_hz,
            "depth_scale": self.depth_scale,
            "files": {k: self.files[k] for k in sorted(self.files)},
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"manifest is not valid JSON: {e}") from e
        if doc.get("format") != FORMAT_NAME or doc.get("version") != FORMAT_VERSION:
            raise FormatError("unrecognized dataset format/version")
        ii = doc["intrinsics"]
        R_cb = np.asarray(doc["R_cb"], dtype=np.float64)
        if np.max(np.abs(R_cb @ R_cb.T - np.eye(3))) > 1e-9:
            raise FormatError("extrinsic rotation is not orthonormal")
        return cls(
            sequence_id=doc["sequence_id"],
            intrinsics=CameraIntrinsics(ii["fx"], ii["fy"], ii["cx"], ii["cy"],
                                        ii["width"], ii["height"]),
            R_cb=R_cb,
            t_cb=np.asarray(doc["t_cb"], dtype=np.float64),
            cam_hz=float(doc["cam_hz"]),
            imu_hz=float(doc["imu_hz"]),
            depth_scale=float(doc["depth_scale"]),
            files=dict(doc["files"]),
        )


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# writer


class DatasetWriter:
    """Incremental writer producing the canonical layout above."""

    def __init__(self, root, sequence_id, K: CameraIntrinsics, R_cb, t_cb,
                 cam_hz, imu_hz, depth_scale=20.0):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.manifest = DatasetManifest(
            sequence_id=sequence_id, intrinsics=K,
            R_cb=np.asarray(R_cb, dtype=np.float64),
            t_cb=np.asarray(t_cb, dtype=np.float64),
            cam_hz=float(cam_hz), imu_hz=float(imu_hz),
            depth_scale=float(depth_scale), files={})
        self.frame_rows = []

    def _put(self, name, data: bytes):
        path = os.path.join(self.root, name)
        with open(path, "wb") as f:
            f.write(data)
        self.manifest.files[name] = hashlib.sha256(data).hexdigest()

    def add_frame(self, t, image, depth=None):
        i = len(self.frame_rows)
        img_name = f"frame_{i:06d}.pgm"
        self._put(img_name, pgm16_bytes(image))
        depth_name = ""
        if depth is not None:
            depth_name = f"depth_{i:06d}.pgm"
            d = np.asarray(depth, dtype=np.float64) / self.manifest.depth_scale
            if d.max() > 1.0 or d.min() < 0.0:
                raise FormatError("depth exceeds manifest depth_scale")
            self._put(depth_name, pgm16_bytes(d))
        self.frame_rows.append((float(t), img_name, depth_name))

    def write_imu(self, imu: ImuStream):
        self._put_csv("imu.csv", "t,gx,gy,gz,ax,ay,az",
                      np.column_stack([imu.t, imu.gyro, imu.accel]))

    def write_motors(self, motors: MotorStream):
        self._put_csv("motors.csv", "t,rpm1,rpm2,rpm3,rpm4",
                      np.column_stack([motors.t, motors.rpm]))

    def write_groundtruth(self, t, pos, quat_wb, vel_w):
        self._put_csv("groundtruth.csv", "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz",
                      np.column_stack([t, pos, quat_wb, vel_w]))

    def _put_csv(self, name, header, rows):
        self._put(name, csv_text(header, rows).encode("ascii"))

    def finalize(self):
        self._put_csv("frames.csv", "t,image,depth", self.frame_rows)
        with open(os.path.join(self.root, "manifest.json"), "w",
                  encoding="ascii", newline="\n") as f:
            f.write(self.manifest.to_json())
        return self.manifest


# --------------------------------------------------------------------------
# loader


@dataclass
class FrameIndex:
    t: np.ndarray
    image_files: list
    depth_files: list


@dataclass
class DatasetBundle:
    root: str
    manifest: DatasetManifest
    frames: FrameIndex
    imu: ImuStream
    motors: MotorStream
    groundtruth: dict | None

    def load_image(self, i) -> np.ndarray:
        return read_pgm16(os.path.join(self.root, self.frames.image_files[i]))

    def load_depth(self, i) -> np.ndarray:
        name = self.frames.depth_files[i]
        if not name:
            raise MissingFileError(f"frame {i} has no depth file")
        d = read_pgm16(os.path.join(self.root, name))
        return d * self.manifest.depth_scale


def load_sequence(root) -> DatasetBundle:
    """Load and validate a dataset directory (checksums verified)."""
    man_path = os.path.join(root, "manifest.json")
    if not os.path.exists(man_path):
        raise MissingFileError(man_path)
    with open(man_path, "r", encoding="ascii") as f:
        manifest = DatasetManifest.from_json(f.read())

    for name, digest in manifest.files.items():
        path = os.path.join(root, name)
        if not os.path.exists(path):
            raise MissingFileError(path)
        if _sha256(path) != digest:
            raise ChecksumMismatchError(path)

    frames_path = os.path.join(root, "frames.csv")
    rows = _read_csv(frames_path, "t,image,depth")
    ft = _floats(frames_path, [r[:1] for r in rows])[:, 0]
    _check_monotone(ft, "frames.csv")
    frames = FrameIndex(t=ft, image_files=[r[1] for r in rows],
                        depth_files=[r[2] for r in rows])

    arr = read_series(os.path.join(root, "imu.csv"), "t,gx,gy,gz,ax,ay,az")
    imu = ImuStream(t=arr[:, 0], gyro=arr[:, 1:4], accel=arr[:, 4:7]).validate()

    arr = read_series(os.path.join(root, "motors.csv"), "t,rpm1,rpm2,rpm3,rpm4")
    motors = MotorStream(t=arr[:, 0], rpm=arr[:, 1:5]).validate()

    gt = None
    gt_path = os.path.join(root, "groundtruth.csv")
    if os.path.exists(gt_path):
        arr = read_series(gt_path, "t,px,py,pz,qw,qx,qy,qz,vx,vy,vz")
        gt = {"t": arr[:, 0], "pos": arr[:, 1:4], "quat_wb": arr[:, 4:8],
              "vel_w": arr[:, 8:11]}
    return DatasetBundle(root=root, manifest=manifest, frames=frames,
                         imu=imu, motors=motors, groundtruth=gt)
