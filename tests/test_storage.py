import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scanrank import geometry
from scanrank.errors import (
    DimMismatchError,
    DuplicateIdError,
    InconsistentDimsError,
    IoError,
    MagicMismatchError,
    MissingFileError,
    TruncatedFileError,
)
from scanrank.geometry import (
    ROTATION_TOL_F32,
    RigidTransform,
    ScanRecord,
    random_rotation,
    rotation_about_z,
)
from scanrank.storage import (
    ResultsReport,
    load_dataset,
    read_manifest,
    read_results,
    read_scan,
    summary_line,
    write_results,
    write_scan,
)

from conftest import MISPLACED_RECORDS, make_scan


def one_point_scan(scan_id="s0"):
    # 1 point, d' = 4, d = 8, non-trivial pose
    pose = RigidTransform(rotation_about_z(0.7), np.array([1.5, -2.0, 0.25]))
    return make_scan(
        scan_id,
        [[0.125, -3.5, 7.0]],
        features=np.array([[0.1, 0.2, 0.3, 0.4]]),
        descriptor=np.linspace(0.0, 1.0, 8),
        pose=pose,
        geo=np.array([1.5, -2.0, 0.25]),
    )


def records_equal(a, b):
    return (
        a.id == b.id
        and np.array_equal(a.cloud, b.cloud)
        and np.array_equal(a.local_features, b.local_features)
        and np.array_equal(a.global_descriptor, b.global_descriptor)
        and np.array_equal(a.gt_pose.rotation, b.gt_pose.rotation)
        and np.array_equal(a.gt_pose.translation, b.gt_pose.translation)
        and np.array_equal(a.geo_location, b.geo_location)
    )


class TestScanArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        rec = one_point_scan()
        path = tmp_path / "s0.sgv"
        write_scan(path, rec)
        assert records_equal(read_scan(path), rec)

    def test_round_trip_random_scan(self, tmp_path, rng):
        rec = make_scan(
            "random",
            rng.standard_normal((17, 3)) * 20,
            features=rng.standard_normal((17, 5)),
            descriptor=rng.standard_normal(12),
            geo=rng.standard_normal(3),
        )
        write_scan(tmp_path / "r.sgv", rec)
        assert records_equal(read_scan(tmp_path / "r.sgv"), rec)

    def test_serialization_byte_deterministic(self, tmp_path):
        rec = one_point_scan()
        write_scan(tmp_path / "a.sgv", rec)
        write_scan(tmp_path / "b.sgv", rec)
        assert (tmp_path / "a.sgv").read_bytes() == (tmp_path / "b.sgv").read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.sgv"
        write_scan(path, one_point_scan())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(MagicMismatchError):
            read_scan(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.sgv"
        write_scan(path, make_scan("t", np.zeros((10, 3))))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 12])  # drop one point's floats
        with pytest.raises(TruncatedFileError):
            read_scan(path)

    def test_oversized_payload_is_dim_mismatch(self, tmp_path):
        path = tmp_path / "o.sgv"
        write_scan(path, one_point_scan())
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DimMismatchError):
            read_scan(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFileError):
            read_scan(tmp_path / "absent.sgv")

    def test_short_read_is_truncated(self, tmp_path, monkeypatch):
        # the file is read with one os.read of its stat size, which may
        # return fewer bytes, as when the file shrinks in between
        path = tmp_path / "short.sgv"
        write_scan(path, make_scan("t", np.zeros((10, 3))))
        read = os.read
        with monkeypatch.context() as m:
            m.setattr(os, "read", lambda fd, size: read(fd, size)[:size - 12])
            with pytest.raises(TruncatedFileError, match=re.escape(str(path))):
                read_scan(path)

    # corruption: (float index into the payload of `one_point_scan`, value,
    # message); points are floats 0-2, features 3-6, descriptor 7-14, pose
    # 15-30 (row-major 4x4), geo location 31-33; no index corrupts the id
    CORRUPTIONS = {
        "nan_point": (0, float("nan"), "cloud must be finite"),
        "non_rotation_pose": (15, 2.0, "rotation not orthonormal"),
        "invalid_utf8_id": (None, None, "can't decode byte 0xff"),
        "nan_feature": (5, float("nan"), "local_features must be finite"),
        "inf_descriptor": (14, float("inf"), "global_descriptor must be finite"),
        "nan_geo": (32, float("nan"), "geo_location must be finite"),
        "nan_pose_bottom_row": (15 + 12, float("nan"), "matrix must be finite"),
        "five_in_pose_bottom_row": (15 + 12, 5.0, r"matrix bottom row must be \(0, 0, 0, 1\)"),
        "reflection_pose": (15 + 10, -1.0, r"rotation must have det \+1"),
    }

    def write_corrupt(self, path, scan_id, corruption):
        """Write `one_point_scan(scan_id)` with a two-character id to `path`,
        corrupted as `CORRUPTIONS[corruption]` says; returns its message."""
        write_scan(path, one_point_scan(scan_id))  # 1 point, d' = 4, d = 8
        data = bytearray(path.read_bytes())
        index, value, message = self.CORRUPTIONS[corruption]
        if index is None:
            data[20] = 0xFF  # first byte of the id
        else:
            at = 20 + 2 + 4 * index  # after the header and the id
            data[at:at + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(data))
        return message

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_payload_is_io_error_naming_the_file(self, tmp_path, corruption):
        path = tmp_path / "c.sgv"
        message = self.write_corrupt(path, "s0", corruption)
        with pytest.raises(IoError, match=f"{re.escape(str(path))}: .*{message}"):
            read_scan(path)

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    def test_corrupt_archive_mid_manifest_names_its_path(self, tmp_path, corruption):
        for scan_id in ("s0", "s2"):
            write_scan(tmp_path / f"{scan_id}.sgv", one_point_scan(scan_id))
        message = self.write_corrupt(tmp_path / "s1.sgv", "s1", corruption)
        manifest = tmp_path / "m.txt"
        manifest.write_text("db s0 s0.sgv\ndb s1 s1.sgv\nquery s2 s2.sgv\n")
        bad = re.escape(str(tmp_path / "s1.sgv"))
        with pytest.raises(IoError, match=f"^{bad}: .*{message}"):
            load_dataset(manifest)

    # pose corruptions of `one_point_scan`'s archive: (float index into the
    # payload, value, the whole message after the path, or None when the
    # pose stays valid), and how many rotation checks run before it fails
    POSE_CASES = {
        "valid": (None, None, None, 1),
        "non_orthonormal": (15, 2.0, r"rotation not orthonormal: \|\|R\^T R - I\|\| = "
                                     r"\d\.\d{3}e[+-]\d\d", 1),
        "det_minus_one": (15 + 10, -1.0, r"rotation must have det \+1, got -1\.\d{12}", 1),
        "bottom_row": (15 + 12, 5.0,
                       re.escape("matrix bottom row must be (0, 0, 0, 1), got (5.0, 0.0, 0.0, 1.0)"),
                       0),
        "nan_rotation": (15 + 5, float("nan"), "matrix must be finite", 0),
        "nan_translation": (15 + 7, float("nan"), "matrix must be finite", 0),
    }

    @pytest.mark.parametrize("case", list(POSE_CASES))
    def test_read_scan_checks_the_pose_once(self, tmp_path, monkeypatch, case):
        # one read runs the rotation checks at most once, on the floats it
        # converted, and never re-validates the pose through __post_init__
        index, value, message, checks = self.POSE_CASES[case]
        path = tmp_path / "s0.sgv"
        written = one_point_scan()
        write_scan(path, written)
        if index is not None:
            data = bytearray(path.read_bytes())
            at = 20 + 2 + 4 * index  # after the header and the id
            data[at:at + 4] = struct.pack("<f", value)
            path.write_bytes(bytes(data))
        checked, post_inits = [], []
        check, post_init = geometry._check_rotation, RigidTransform.__post_init__

        def counting_check(r, orthonormal_tol):
            checked.append(orthonormal_tol)
            check(r, orthonormal_tol)

        def counting_post_init(self, orthonormal_tol):
            post_inits.append(orthonormal_tol)
            post_init(self, orthonormal_tol)

        monkeypatch.setattr(geometry, "_check_rotation", counting_check)
        monkeypatch.setattr(RigidTransform, "__post_init__", counting_post_init)
        if message is None:
            pose = read_scan(path).gt_pose
            # both fields are read-only views of the one checked matrix
            assert pose.rotation.base is pose.translation.base is not None
            assert not pose.rotation.flags.writeable and not pose.translation.flags.writeable
            assert pose.rotation.tobytes() == written.gt_pose.rotation.tobytes()
            assert pose.translation.tobytes() == written.gt_pose.translation.tobytes()
        else:
            with pytest.raises(IoError, match=f"^{re.escape(str(path))}: {message}$"):
                read_scan(path)
        assert checked == [ROTATION_TOL_F32] * checks
        assert post_inits == []

    @pytest.mark.parametrize("tol", [2 * ROTATION_TOL_F32, float("inf"), float("nan")])
    def test_from_matrix_rejects_a_tolerance_above_f32(self, tol):
        with pytest.raises(ValueError, match=f"orthonormal_tol {tol} exceeds {ROTATION_TOL_F32}"):
            RigidTransform.from_matrix(np.eye(4), orthonormal_tol=tol)

    def test_archive_views_are_kept_without_copy(self, tmp_path):
        write_scan(tmp_path / "s0.sgv", one_point_scan())
        rec = read_scan(tmp_path / "s0.sgv")
        for a in (rec.cloud, rec.local_features, rec.global_descriptor, rec.geo_location):
            assert not a.flags.writeable and a.base is not None  # a view, not a copy


finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def scan_records(draw):
    n, dp, d = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 16))
    rotation = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    translation = draw(arrays(np.float64, 3, elements=st.floats(-1e6, 1e6)))
    return ScanRecord(
        draw(st.text(st.characters(codec="utf-8"), min_size=1, max_size=8)),
        draw(arrays(np.float32, (n, 3), elements=finite_f32)),
        draw(arrays(np.float32, (n, dp), elements=finite_f32)),
        draw(arrays(np.float32, d, elements=finite_f32)),
        RigidTransform(rotation, translation),
        draw(arrays(np.float32, 3, elements=finite_f32)),
    )


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "r.sgv"


@settings(max_examples=60, deadline=None)
@given(rec=scan_records())
def test_archive_round_trip_is_bit_exact(archive_path, rec):
    write_scan(archive_path, rec)
    back = read_scan(archive_path)
    assert back.id == rec.id
    for name in ("cloud", "local_features", "global_descriptor", "geo_location"):
        a, b = getattr(back, name), getattr(rec, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.gt_pose.rotation.tobytes() == rec.gt_pose.rotation.tobytes()
    assert back.gt_pose.translation.tobytes() == rec.gt_pose.translation.tobytes()


_PARTS = ("cloud", "local_features", "global_descriptor", "pose", "geo_location")


@st.composite
def rotated_records(draw):
    """A record from `scan_records`, in half the draws turned about z: R[2, 2]
    is then exactly 1, and negating it leaves a reflection that only the det
    check sees (on other rotations it breaks orthonormality)."""
    rec = draw(scan_records())
    if draw(st.booleans()):
        yaw = draw(st.floats(0.0, 2 * np.pi))
        rec = ScanRecord(rec.id, rec.cloud, rec.local_features, rec.global_descriptor,
                         RigidTransform(rotation_about_z(yaw), rec.gt_pose.translation),
                         rec.geo_location)
    return rec


def corruptions_of(rec, rng):
    """Up to two corruptions of `rec`'s archive: (part, index, value) for one
    float of the payload (a "bottom" one puts 5.0 in the pose's bottom row),
    or ("id", None, "empty") and ("id", None, "utf-8") for an empty id and
    for an id whose first byte is not UTF-8."""
    arrays = {"cloud": rec.cloud, "local_features": rec.local_features,
              "global_descriptor": rec.global_descriptor,
              "pose": rec.gt_pose.matrix4().astype(np.float32),
              "geo_location": rec.geo_location}
    corruptions = []
    for _ in range(rng.integers(0, 3)):
        kind = rng.choice(["nan", "inf", "-inf", "finite", "finite", "reflect", "skew",
                           "bottom", "utf-8", "empty"])
        if kind in ("utf-8", "empty"):
            corruptions.append(("id", None, kind))
        elif kind == "reflect":
            corruptions.append(("pose", 10, -arrays["pose"][2, 2]))
        elif kind == "bottom":
            corruptions.append(("pose", int(rng.integers(12, 16)), 5.0))
        elif kind == "skew":
            index = int(rng.choice([0, 1, 2, 4, 5, 6, 8, 9, 10]))
            corruptions.append(("pose", index, arrays["pose"].flat[index] + 0.01))
        else:
            part = str(rng.choice(_PARTS))
            index = int(rng.integers(arrays[part].size))
            value = rng.standard_normal() * 100 if kind == "finite" else float(kind)
            corruptions.append((part, index, value))
    return corruptions


# hypothesis draws the record and a seed; the corruptions come from a seeded
# stream, eight sets per record, since hypothesis's own draws favour the
# first choices and left the det and non-finite cases rare
@settings(max_examples=100, deadline=None)
@given(rec=rotated_records(), seed=st.integers(0, 2**32 - 1))
def test_read_scan_agrees_with_the_validating_constructors(archive_path, rec, seed):
    rng = np.random.default_rng(seed)
    write_scan(archive_path, rec)
    written = archive_path.read_bytes()
    id_len = len(rec.id.encode("utf-8"))
    n, dp = rec.local_features.shape
    ends = np.cumsum([n * 3, n * dp, rec.global_descriptor.size, 16, 3]).tolist()
    starts = dict(zip(_PARTS, [0] + ends[:-1]))
    for _ in range(8):
        corruptions = corruptions_of(rec, rng)
        scan_id, payload = bytearray(written[20:20 + id_len]), bytearray(written[20 + id_len:])
        for part, index, value in corruptions:
            if part == "id":
                scan_id[:] = b"" if value == "empty" else b"\xff" + scan_id[1:]
            else:
                at = 4 * (starts[part] + index)
                payload[at:at + 4] = struct.pack("<f", value)
        header = written[:16] + struct.pack("<I", len(scan_id))
        archive_path.write_bytes(header + scan_id + payload)

        # the oracle: the validating constructors on the same arrays
        cloud, feats, desc, pose, geo = np.split(np.frombuffer(bytes(payload), "<f4"), ends[:-1])
        try:
            gt_pose = RigidTransform.from_matrix(pose.reshape(4, 4), ROTATION_TOL_F32)
            expected = ScanRecord(scan_id.decode("utf-8"), cloud.reshape(n, 3),
                                  feats.reshape(n, dp), desc, gt_pose, geo)
        except ValueError as exc:
            with pytest.raises(IoError) as info:
                read_scan(archive_path)
            assert str(info.value) == f"{archive_path}: {exc}"
            continue
        back = read_scan(archive_path)
        assert back.id == expected.id
        for name in ("cloud", "local_features", "global_descriptor", "geo_location"):
            a, b = getattr(back, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert not a.flags.writeable and a.base is not None  # a view, not a copy
        assert back.gt_pose.rotation.tobytes() == expected.gt_pose.rotation.tobytes()
        assert back.gt_pose.translation.tobytes() == expected.gt_pose.translation.tobytes()
        if not corruptions:
            assert records_equal(back, rec)


class TestManifest:
    def write_world(self, tmp_path, scans):
        lines = []
        for role, rec in scans:
            write_scan(tmp_path / f"{rec.id}.sgv", rec)
            lines.append(f"{role} {rec.id} {rec.id}.sgv")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# comment line\n" + "\n".join(lines) + "\n")
        return manifest

    def test_loads_in_order(self, tmp_path):
        scans = [("db", one_point_scan("a")), ("db", one_point_scan("b")),
                 ("query", one_point_scan("q"))]
        manifest = self.write_world(tmp_path, scans)
        db, queries = load_dataset(manifest)
        assert [r.id for r in db] == ["a", "b"]
        assert [r.id for r in queries] == ["q"]

    def test_duplicate_id(self, tmp_path):
        rec = one_point_scan("a")
        write_scan(tmp_path / "a.sgv", rec)
        manifest = tmp_path / "m.txt"
        manifest.write_text("db a a.sgv\nquery a a.sgv\n")
        with pytest.raises(DuplicateIdError):
            load_dataset(manifest)

    def test_missing_scan_file(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("db a a.sgv\n")
        with pytest.raises(MissingFileError):
            load_dataset(manifest)

    def test_inconsistent_dims(self, tmp_path):
        a = make_scan("a", [[0, 0, 0]], descriptor=np.zeros(8))
        b = make_scan("b", [[0, 0, 0]], descriptor=np.zeros(16))
        manifest = self.write_world(tmp_path, [("db", a), ("query", b)])
        with pytest.raises(InconsistentDimsError):
            load_dataset(manifest)

    def test_unknown_role(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("weird a a.sgv\n")
        with pytest.raises(IoError):
            load_dataset(manifest)


    @pytest.mark.parametrize("rel", ["../outside.sgv", "sub/../../outside.sgv",
                                     "..\\outside.sgv", "/etc/outside.sgv"])
    def test_path_escaping_the_directory(self, tmp_path, rel):
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"# header\ndb a a.sgv\nquery q {rel}\n")
        with pytest.raises(IoError, match=r"m\.txt:3: .*escapes the dataset directory"):
            read_manifest(manifest)

    def test_non_utf8_manifest_is_io_error_naming_the_file(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_bytes(b"db a a.sgv\nquery \xff q.sgv\n")
        with pytest.raises(IoError, match=rf"{re.escape(str(manifest))}: not UTF-8 text"):
            read_manifest(manifest)

    def test_nested_relative_path_is_accepted(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("db a scans/./a.sgv\n")
        entries = read_manifest(manifest).database
        assert entries == (("a", os.path.join(tmp_path, "scans/./a.sgv")),)
        assert Path(entries[0][1]) == tmp_path / "scans" / "a.sgv"


class TestResultsFile:
    def test_empty_run_has_header_and_summary(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_results(path, ResultsReport(config={"seed": 1}, summary={"note": "empty"}))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith('{"config"') or '"kind": "header"' in lines[0]
        assert '"kind": "summary"' in lines[-1]

    def test_one_query_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        report = ResultsReport(
            config={"seed": 3},
            per_query=[{"query_id": "q0", "rte": 0.125}],
            summary={"recall": {"5.0": {"1": 100.0}}},
            timing={"mean_rerank_ms": 1.5},
        )
        write_results(path, report)
        back = read_results(path)
        assert back.config == report.config
        assert back.per_query == report.per_query
        assert back.summary == report.summary

    def test_summary_reproduced_exactly(self, tmp_path):
        # irrational floats survive the write/read loop bit-for-bit
        summary = {"mrr": {"5.0": 100.0 / 3.0}, "mean_rte": np.pi}
        path = tmp_path / "r.jsonl"
        write_results(path, ResultsReport(config={}, summary=summary))
        back = read_results(path)
        assert back.summary["mrr"]["5.0"] == summary["mrr"]["5.0"]
        assert back.summary["mean_rte"] == summary["mean_rte"]

    def test_write_deterministic_bytes(self, tmp_path):
        report = ResultsReport(config={"b": 1, "a": 2}, summary={"y": 0.1, "x": 0.2})
        write_results(tmp_path / "a.jsonl", report)
        write_results(tmp_path / "b.jsonl", report)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_summary_line_extraction(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_results(path, ResultsReport(config={}, summary={"v": 1}))
        assert summary_line(path) == '{"kind": "summary", "summary": {"v": 1}}'

    def test_non_utf8_results_file_is_io_error_naming_the_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"kind": "summary", "summary": {"\xff": 1}}\n')
        with pytest.raises(IoError, match=rf"{re.escape(str(path))}: not UTF-8 text"):
            read_results(path)

    @pytest.mark.parametrize("record, message", [
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"kind": "header"}', "header record has no 'config'"),
        ('{"kind": "summary", "mrr": 1.0}', "summary record has no 'summary'"),
        ('{"kind": "header", "config": "x"}',
         "header record's 'config' is not a JSON object, got str"),
        ('{"kind": "summary", "summary": "baseline"}',
         "summary record's 'summary' is not a JSON object, got str"),
        ('{"kind": "summary", "summary": {"baseline": {"recall": 1}}}',
         "summary['baseline']['recall'] is not a JSON object, got int"),
        ('{"kind": "summary", "summary": {"reranked": {"recall": {"5.0": {"1": 50.0}}, '
         '"mrr": {}}}}', "summary['reranked']['mrr'] has no '5.0'"),
        ('{"kind": "summary", "summary": {"baseline": {"recall": {"near": {}}, "mrr": {}}}}',
         "summary['baseline']['recall'] has the key 'near', which is not a number"),
        ('{"kind": "summary", "summary": {"top1_distance": {"5.0": {"violations": 0.5}}}}',
         "summary['top1_distance']['5.0']['violations'] is not an integer, got float"),
        ('{"kind": "summary", "summary": {"bench": [{"strategy": "none", "n_topk": 2}]}}',
         "summary['bench'][0] has no 'mean_rerank_ms'"),
    ], ids=["array", "header-without-config", "summary-without-summary",
            "config-not-an-object", "summary-not-an-object", "metric-block-not-an-object",
            "mrr-without-a-recall-radius", "radius-not-a-number", "violations-not-an-integer",
            "bench-row-without-metrics"])
    def test_malformed_record_is_io_error_at_its_line(self, tmp_path, record, message):
        path = tmp_path / "r.jsonl"
        path.write_text('{"config": {}, "kind": "header"}\n' + record + "\n")
        with pytest.raises(IoError, match=rf"{re.escape(str(path))}:2: {re.escape(message)}"):
            read_results(path)

    @pytest.mark.parametrize("lines, where, message", [case[1:] for case in MISPLACED_RECORDS],
                             ids=[case[0] for case in MISPLACED_RECORDS])
    def test_one_header_first_and_one_summary_last(self, tmp_path, lines, where, message):
        # `report` printed nothing and exited 0 on each of these files
        path = tmp_path / "r.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(IoError, match=rf"^{re.escape(f'{path}{where}: {message}')}$"):
            read_results(path)

    def test_unwritable_target_raises_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(IoError):
            write_results(blocker / "nested.jsonl", ResultsReport(config={}))

    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "r.jsonl"
        write_results(path, ResultsReport(config={"run": 1}, summary={"v": 1}))
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(IoError, match="simulated rename failure"):
            write_results(path, ResultsReport(config={"run": 2}, summary={"v": 2}))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl"]
