"""Dataset format, loaders and writers."""

import os

import numpy as np
import pytest

from conftest import small_intrinsics

from selfvio.dataio import (ChecksumMismatchError, DatasetWriter,
                            FormatError, MissingFileError,
                            NonMonotoneTimestampError, _read_floats, csv_text,
                            load_sequence, pgm16_bytes, read_pgm16,
                            write_csv, write_pgm16)
from selfvio.synth import (R_CB, RefDynamicsParams, SceneSpec, TrajectorySpec,
                           camera_pose, render, simulate_imu_motors)


def _write_demo(root, rng, n_frames=5, with_depth=True):
    K = small_intrinsics(24, 16, f=20.0)
    traj = TrajectorySpec(kind="straight", peak_speed=2.0, duration=1.0,
                          cam_hz=10.0, imu_hz=100.0, start_hover=0.3, ramp=0.4)
    sim = simulate_imu_motors(traj, RefDynamicsParams())
    scene = SceneSpec(bg_depth=10.0, box_back=-4.0)
    w = DatasetWriter(root, "unit", K, R_CB, np.zeros(3), 10.0, 100.0,
                      depth_scale=25.0)
    for i in range(n_frames):
        frame = render(scene, sim.cam_poses[i], K, timestamp=sim.cam_t[i])
        w.add_frame(frame.timestamp, frame.image, frame.depth if with_depth else None)
    w.write_imu(sim.imu)
    w.write_motors(sim.motors)
    w.write_groundtruth(sim.t_gt, sim.pos_w, sim.quat_wb, sim.vel_w)
    w.finalize()
    return sim


def test_pgm_roundtrip_bit_exact(tmp_path, rng):
    img = rng.random((12, 17))
    path = os.path.join(tmp_path, "x.pgm")
    write_pgm16(path, img)
    loaded = read_pgm16(path)
    # quantized load re-encodes to the identical bytes
    assert pgm16_bytes(loaded) == open(path, "rb").read()
    assert np.max(np.abs(loaded - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(FormatError):
        pgm16_bytes(np.full((4, 4), 1.5))


def test_dataset_roundtrip(tmp_path, rng):
    root = os.path.join(tmp_path, "seq")
    sim = _write_demo(root, rng)
    ds = load_sequence(root)
    # sensor streams round-trip exactly (repr floats)
    assert np.array_equal(ds.imu.t, sim.imu.t)
    assert np.array_equal(ds.imu.gyro, sim.imu.gyro)
    assert np.array_equal(ds.imu.accel, sim.imu.accel)
    assert np.array_equal(ds.motors.rpm, sim.motors.rpm)
    assert np.array_equal(ds.groundtruth["pos"], sim.pos_w)
    # re-writing what was loaded is byte-identical
    root2 = os.path.join(tmp_path, "seq2")
    K = ds.manifest.intrinsics
    w = DatasetWriter(root2, ds.manifest.sequence_id, K, ds.manifest.R_cb,
                      ds.manifest.t_cb, ds.manifest.cam_hz, ds.manifest.imu_hz,
                      depth_scale=ds.manifest.depth_scale)
    for i in range(len(ds.frames.t)):
        w.add_frame(ds.frames.t[i], ds.load_image(i), ds.load_depth(i))
    w.write_imu(ds.imu)
    w.write_motors(ds.motors)
    w.write_groundtruth(ds.groundtruth["t"], ds.groundtruth["pos"],
                        ds.groundtruth["quat_wb"], ds.groundtruth["vel_w"])
    w.finalize()
    for name in sorted(os.listdir(root)):
        b1 = open(os.path.join(root, name), "rb").read()
        b2 = open(os.path.join(root2, name), "rb").read()
        assert b1 == b2, name


def test_missing_file_error(tmp_path, rng):
    root = os.path.join(tmp_path, "seq")
    _write_demo(root, rng)
    victim = os.path.join(root, "frame_000002.pgm")
    os.remove(victim)
    with pytest.raises(MissingFileError) as err:
        load_sequence(root)
    assert "frame_000002.pgm" in str(err.value)


def test_checksum_mismatch_error(tmp_path, rng):
    root = os.path.join(tmp_path, "seq")
    _write_demo(root, rng)
    with open(os.path.join(root, "imu.csv"), "ab") as f:
        f.write(b"tampered\n")
    with pytest.raises(ChecksumMismatchError):
        load_sequence(root)


def test_non_monotone_timestamps_error(tmp_path, rng):
    root = os.path.join(tmp_path, "seq")
    _write_demo(root, rng)
    path = os.path.join(root, "imu.csv")
    lines = open(path).read().splitlines()
    lines[3], lines[10] = lines[10], lines[3]     # shuffle two IMU rows
    body = "\n".join(lines) + "\n"
    open(path, "w").write(body)
    # fix the manifest checksum so the timestamp check is what trips
    import hashlib, json
    man_path = os.path.join(root, "manifest.json")
    doc = json.loads(open(man_path).read())
    doc["files"]["imu.csv"] = hashlib.sha256(body.encode()).hexdigest()
    open(man_path, "w").write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    with pytest.raises(NonMonotoneTimestampError) as err:
        load_sequence(root)
    assert err.value.stream == "imu.csv"
    assert err.value.index == 3


def test_depth_exceeding_scale_rejected(tmp_path):
    K = small_intrinsics(8, 8, f=8.0)
    w = DatasetWriter(os.path.join(tmp_path, "x"), "x", K, np.eye(3),
                      np.zeros(3), 10.0, 100.0, depth_scale=2.0)
    with pytest.raises(FormatError):
        w.add_frame(0.0, np.zeros((8, 8)), np.full((8, 8), 5.0))


def test_csv_text_cell_rules():
    """Strings and bools as they are, integers as integers, every other
    value as repr(float)."""
    row = ["pair", True, False, 7, np.int64(-3), 0.1, np.float64(1 / 3), np.nan,
           np.float32(0.5)]
    assert csv_text("a,b,c,d,e,f,g,h,i", [row]) == (
        "a,b,c,d,e,f,g,h,i\npair,True,False,7,-3,0.1,0.3333333333333333,nan,0.5\n")


def test_csv_text_header_only():
    assert csv_text("t,x", []) == "t,x\n"
    assert csv_text("t,x", np.zeros((0, 2))) == "t,x\n"


def test_write_csv_floats_round_trip_bitwise(tmp_path, rng):
    """Random float64s, over many magnitudes and both signs, read back
    bit for bit; a 2-D array and its rows of numpy scalars write the same."""
    arr = rng.standard_normal((200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
    path = os.path.join(tmp_path, "x.csv")
    write_csv(path, "t,a,b,c", arr)
    back = _read_floats(path, "t,a,b,c")
    assert back.view(np.uint64).tolist() == arr.view(np.uint64).tolist()
    assert open(path).read() == csv_text("t,a,b,c", list(arr))
