import dataclasses
import json
import math
import tempfile
import typing
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synself import encoder as enc
from synself import sampler as sp
from synself import synthgen as sg
from synself import trainer as tr
from synself.volume_io import (
    EmbeddingMatrix,
    IntensityVolume,
    SynapseRecord,
    VolumeFormatError,
    VolumeHeader,
    check_synapses_in_bounds,
    read_synapse_table,
    read_volume,
    write_synapse_table,
    write_volume,
)
from helpers import IDENTITY_AUGMENT


def corrupted(data, raw: bytes) -> bytes:
    """raw truncated, or with one bit flipped, as Hypothesis draws it."""
    raw = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        return bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


def read_corrupted_or_typed_error(data, write, read, name):
    """Write a valid file, corrupt it, read it back: it parses or raises VolumeFormatError."""
    with tempfile.TemporaryDirectory() as tmp:
        p = f"{tmp}/{name}"
        write(p)
        with open(p, "rb") as f:
            raw = f.read()
        with open(p, "wb") as f:
            f.write(corrupted(data, raw))
        try:
            read(p)
        except VolumeFormatError:
            pass


def make_intensity(dims, values):
    nx, ny, nz = dims
    return IntensityVolume(VolumeHeader(dims), np.asarray(values, np.uint8).reshape(nz, ny, nx))


class TestVolumeRoundTrip:
    def test_x_fastest_order(self, tmp_path):
        vol = make_intensity((2, 2, 2), np.arange(8))
        p = tmp_path / "v.vol"
        write_volume(vol, p)
        got = read_volume(p)
        assert got.voxels[0, 0, 0] == 0
        assert got.voxels[0, 0, 1] == 1
        assert got.voxels[0, 1, 0] == 2
        assert got.voxels[1, 0, 0] == 4

    def test_u8_single_voxel(self, tmp_path):
        vol = make_intensity((1, 1, 1), [255])
        write_volume(vol, tmp_path / "v.vol")
        assert read_volume(tmp_path / "v.vol") == vol

    def test_payload_bytes_are_x_fastest(self, tmp_path):
        # brute-force oracle: byte at header_len + x + nx*(y + ny*z) equals voxel value
        rng = np.random.default_rng(11)
        dims = (4, 3, 2)
        vals = rng.integers(0, 256, size=(2, 3, 4), dtype=np.uint8)
        vol = IntensityVolume(VolumeHeader(dims), vals)
        p = tmp_path / "v.vol"
        write_volume(vol, p)
        raw = p.read_bytes()
        offset = raw.index(b"\n") + 1
        nx, ny, _ = dims
        for z in range(2):
            for y in range(3):
                for x in range(4):
                    assert raw[offset + x + nx * (y + ny * z)] == vals[z, y, x]

    @pytest.mark.parametrize("at", [(0, 0, 0), (1, 2, 3), (2, 3, 4)])
    def test_volumes_differing_in_one_voxel_are_unequal(self, at):
        vol = make_intensity((5, 4, 3), np.arange(60))
        other = make_intensity((5, 4, 3), np.arange(60))
        assert vol == other
        other.voxels[at] += 1
        assert vol != other

    def test_volumes_of_other_headers_are_unequal(self):
        vol = make_intensity((5, 4, 3), np.zeros(60))
        assert vol != make_intensity((3, 4, 5), np.zeros(60))
        assert vol != IntensityVolume(VolumeHeader((5, 4, 3), (8.0, 8.0, 4.0)), vol.voxels)


class TestVolumeErrors:
    @pytest.mark.parametrize("dims, payload", [
        ((3, 3, 3), 26),
        ((3, 3, 3), 28),
        ((10 ** 5, 10 ** 4, 10 ** 4), 26),  # about 10**13 voxels: refused before any allocation
    ], ids=["one_short", "one_long", "huge_header"])
    def test_payload_length_mismatch(self, tmp_path, dims, payload):
        p = tmp_path / "bad.vol"
        line = json.dumps({"dims": dims, "dtype": "u8", "voxel_size_nm": [8, 8, 8]}).encode() + b"\n"
        p.write_bytes(line + bytes(payload))
        with pytest.raises(VolumeFormatError) as e:
            read_volume(p)
        assert str(e.value) == (f"{p}: payload length mismatch at byte offset {len(line)}: "
                                f"expected {math.prod(dims)} bytes, got {payload}")

    def test_unknown_dtype(self, tmp_path):
        p = tmp_path / "bad.vol"
        for dtype, width in ((b"f32", 4), (b"u64", 8)):
            p.write_bytes(b'{"dims":[1,1,1],"dtype":"' + dtype + b'","voxel_size_nm":[8,8,8]}\n' + bytes(width))
            with pytest.raises(VolumeFormatError, match="unknown dtype"):
                read_volume(p)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.vol"
        p.write_bytes(b"not json\n")
        with pytest.raises(VolumeFormatError, match="byte offset 0"):
            read_volume(p)

    @pytest.mark.parametrize("head", [
        b"[" * 60000,  # nested deeper than json's recursion limit
        # more digits than int() converts
        b'{"dims":[' + b"1" * 5000 + b',1,1],"dtype":"u8","voxel_size_nm":[8,8,8]}',
        b'{"dims":[2,2,2],"dtype":"u8","voxel_size_nm":[8,8,8],"\xff":1}',
    ], ids=["deep_nesting", "long_int", "not_utf8"])
    def test_unparsable_header_typed_error(self, tmp_path, head):
        p = tmp_path / "bad.vol"
        p.write_bytes(head + b"\n" + bytes(8))
        with pytest.raises(VolumeFormatError, match="malformed header at byte offset 0"):
            read_volume(p)

    def test_deterministic_diagnostic(self, tmp_path):
        p = tmp_path / "bad.vol"
        p.write_bytes(b'{"dims":[2,2,2],"dtype":"u8","voxel_size_nm":[8,8,8]}\n' + bytes(3))
        msgs = set()
        for _ in range(3):
            with pytest.raises(VolumeFormatError) as e:
                read_volume(p)
            msgs.add(str(e.value))
        assert len(msgs) == 1

    def test_header_json_types_checked(self, tmp_path):
        p = tmp_path / "bad.vol"
        for head, match in [
            (b'{"dims":[2,2,2],"dtype":["u8"],"voxel_size_nm":[8,8,8]}', "unknown dtype"),
            (b'{"dims":[2.5,2,2],"dtype":"u8","voxel_size_nm":[8,8,8]}', "dims"),
            (b'{"dims":"222","dtype":"u8","voxel_size_nm":[8,8,8]}', "dims"),
            (b'{"dims":[2,2,2],"dtype":"u8","voxel_size_nm":[8,NaN,8]}', "voxel_size_nm"),
        ]:
            p.write_bytes(head + b"\n" + bytes(8))
            with pytest.raises(VolumeFormatError, match=match):
                read_volume(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_or_bit_flipped_volume_typed_error(self, data):
        vol = make_intensity((3, 4, 5), np.arange(60))
        read_corrupted_or_typed_error(data, lambda p: write_volume(vol, p), read_volume, "v.vol")

    def test_unwritable_path_leaves_no_partial_file(self, tmp_path):
        vol = make_intensity((1, 1, 1), [0])
        target = tmp_path / "nodir" / "v.vol"
        with pytest.raises(OSError):
            write_volume(vol, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestHeaderInvariants:
    def test_bad_dims(self):
        with pytest.raises(VolumeFormatError):
            VolumeHeader((0, 1, 1))

    def test_bad_voxel_size(self):
        with pytest.raises(VolumeFormatError):
            VolumeHeader((1, 1, 1), (8.0, 0.0, 8.0))

    @pytest.mark.parametrize("value, shown", [
        (300.0, "300.0"), (2.7, "2.7"), (-1, "-1"), (math.nan, "nan"),
    ])
    def test_voxel_the_u8_cast_would_change_rejected(self, value, shown):
        # 300.0 became 44, 2.7 became 2, -1 became 255 and NaN 0
        voxels = np.array([[[7, value]]])
        with pytest.raises(VolumeFormatError, match=f"voxel value {shown} is not an integer in"):
            IntensityVolume(VolumeHeader((2, 1, 1)), voxels)

    def test_default_voxel_size_is_8nm(self):
        assert VolumeHeader((1, 1, 1)).voxel_size_nm == (8.0, 8.0, 8.0)

    @pytest.mark.parametrize("dims, voxel_size, match", [
        ((2.9, 3, 4), (8.0, 8.0, 8.0), "dims"),
        ((True, 3, 4), (8.0, 8.0, 8.0), "dims"),
        ((2, 3, 4), (math.nan, 8.0, 8.0), "voxel_size_nm"),
        ((2, 3, 4), (8.0, math.inf, 8.0), "voxel_size_nm"),
        ((2, 3, 4), (8.0, 8.0, True), "voxel_size_nm"),
    ])
    def test_non_integer_dims_and_non_finite_sizes_rejected(self, dims, voxel_size, match):
        with pytest.raises(VolumeFormatError, match=match):
            VolumeHeader(dims, voxel_size)


class TestSynapseTable:
    def test_parse_row(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_text("id,x,y,z,supervoxel_id,class_label\n7,10,12,14,3,\n")
        (rec,) = read_synapse_table(p)
        assert rec == SynapseRecord(7, (10, 12, 14), 3, None)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_text("id,x,y,z,supervoxel_id,class_label\n7,0,0,0,3,\n7,1,1,1,4,2\n")
        with pytest.raises(VolumeFormatError, match="duplicate synapse id 7"):
            read_synapse_table(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_text("id,x,y,z,supervoxel_id\n7,0,0,0,3\n")
        with pytest.raises(VolumeFormatError, match="class_label"):
            read_synapse_table(p)

    def test_non_integer_field(self, tmp_path):
        # int() would read "1_0" as 10, " 5" as 5, "+6" as 6 and "\u0663" (Arabic-Indic 3) as 3
        p = tmp_path / "syn.csv"
        for row, column in [
            ("7,a,0,0,3,", "x"), ("1_0,5,6,3,2,1", "id"), ("10, 5,6,3,2,1", "x"),
            ("10,5,+6,3,2,1", "y"), ("10,5,6,\u0663,2,1", "z"), ("10,5,6,3,2 ,1", "supervoxel_id"),
            ("10,5,6,3,2,1.0", "class_label"), ("10,5,6,3,2,-", "class_label"),
            ("1" * 5000 + ",5,6,3,2,1", "id"),  # more digits than int() converts
        ]:
            p.write_text(f"id,x,y,z,supervoxel_id,class_label\n8,1,2,3,4,\n{row}\n", encoding="utf-8")
            with pytest.raises(VolumeFormatError, match=f"non-integer field {column}=.* at data row 1"):
                read_synapse_table(p)

    def test_round_trip_100_random_records(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            SynapseRecord(
                i,
                tuple(int(v) for v in rng.integers(0, 100, 3)),
                int(rng.integers(1, 50)),
                None if rng.random() < 0.5 else int(rng.integers(0, 5)),
            )
            for i in range(100)
        ]
        p = tmp_path / "syn.csv"
        write_synapse_table(records, p)
        assert read_synapse_table(p) == records

    @pytest.mark.parametrize("fields, match", [
        ((1.5, (1, 2, 3), 1, None), "synapse id"),
        ((1, (1.7, 2, 3), 1, None), "pos"),
        ((1, (True, 2, 3), 1, None), "pos"),
        ((1, (1, 2, 3), 1.5, None), "supervoxel_id"),
        ((1, (1, 2, 3), 1, 2.0), "class_label"),
    ])
    def test_non_integer_field_rejected(self, fields, match):
        with pytest.raises(VolumeFormatError, match=match):
            SynapseRecord(*fields)

    def test_oversized_field_typed_error(self, tmp_path):
        # longer than the csv module's default field limit of 131072 characters
        p = tmp_path / "syn.csv"
        p.write_text("id,x,y,z,supervoxel_id,class_label\n7," + "x" * 200_000 + ",0,0,3,\n")
        with pytest.raises(VolumeFormatError, match="non-integer field x"):
            read_synapse_table(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_text("id,x,y,z,supervoxel_id,class_label\n7,10,12,14,3,\n8,1,2,3,4\n")
        with pytest.raises(VolumeFormatError, match="ragged data row 1: 5 fields, expected 6"):
            read_synapse_table(p)

    def test_crlf_line_ends_read(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_bytes(b"id,x,y,z,supervoxel_id,class_label\r\n7,10,12,14,3,\r\n8,1,2,3,4,0\r\n")
        assert read_synapse_table(p) == [SynapseRecord(7, (10, 12, 14), 3), SynapseRecord(8, (1, 2, 3), 4, 0)]

    def test_quoted_field_rejected(self, tmp_path):
        # tables are written unquoted, so a quote is part of the field
        p = tmp_path / "syn.csv"
        p.write_text('id,x,y,z,supervoxel_id,class_label\n"7",0,0,0,3,\n')
        with pytest.raises(VolumeFormatError, match="non-integer field id"):
            read_synapse_table(p)

    @pytest.mark.parametrize("fields, match", [
        ((2 ** 63, (1, 2, 3), 1, None), "synapse id"),
        ((1, (1, 2, 3), 2 ** 63, None), "supervoxel_id"),
        ((1, (1, 2, 3), 1, 2 ** 63), "class_label"),
    ])
    def test_id_beyond_int64_rejected(self, fields, match):
        with pytest.raises(VolumeFormatError, match=match):
            SynapseRecord(*fields)
        SynapseRecord(*[2 ** 63 - 1 if f == 2 ** 63 else f for f in fields])  # the largest int64 is kept

    def test_table_id_beyond_int64_rejected(self, tmp_path):
        # numpy cannot hold it: the sampler raised a bare OverflowError
        p = tmp_path / "syn.csv"
        p.write_text(f"id,x,y,z,supervoxel_id,class_label\n7,1,2,3,{2 ** 70},\n")
        with pytest.raises(VolumeFormatError, match="supervoxel_id must be a positive label < 2"):
            read_synapse_table(p)

    def test_zero_supervoxel_rejected(self):
        with pytest.raises(VolumeFormatError, match="positive label"):
            SynapseRecord(0, (0, 0, 0), 0)

    def test_non_utf8_byte_rejected(self, tmp_path):
        p = tmp_path / "syn.csv"
        p.write_bytes(b"id,x,y,z,supervoxel_id,class_label\n7,1\xff,0,0,3,\n")
        with pytest.raises(VolumeFormatError, match="UTF-8"):
            read_synapse_table(p)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_or_bit_flipped_table_typed_error(self, data):
        records = [SynapseRecord(i, (i, 2 * i, 3), 1 + i % 3, None if i % 2 else i) for i in range(6)]
        read_corrupted_or_typed_error(
            data, lambda p: write_synapse_table(records, p), read_synapse_table, "syn.csv")

    def test_bounds_check(self):
        header = VolumeHeader((4, 4, 4))
        check_synapses_in_bounds([SynapseRecord(0, (3, 3, 3), 1)], header)
        with pytest.raises(VolumeFormatError, match="outside volume"):
            check_synapses_in_bounds([SynapseRecord(1, (4, 0, 0), 1)], header)


class TestEmbeddings:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(VolumeFormatError, match="duplicate"):
            EmbeddingMatrix([1, 1], np.zeros((2, 2)) + 0.5)

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0), (1, 2, 2)])
    def test_not_m_by_d_rejected(self, shape):
        with pytest.raises(VolumeFormatError, match=r"must be M x D with M,D >= 1, got shape"):
            EmbeddingMatrix(list(range(shape[0])), np.zeros(shape))

    def test_id_count_mismatch_rejected(self):
        with pytest.raises(VolumeFormatError, match="2 synapse ids for 3 embedding rows"):
            EmbeddingMatrix([1, 2], np.zeros((3, 2)))


CAPPED_SAMPLER = sp.SamplerConfig(patch_side=8, pair_mode="augment_same", max_pair_dist_nm=120.5,
                                  batch_pairs=3, augment=IDENTITY_AUGMENT)
SMALL_ENCODER = enc.EncoderConfig(patch_side=8, channels=(2, 4), convs_per_block=3, h_dim=8, z_dim=4, init_seed=3)
CLASS = sg.ClassParams(1.5, 1.0, 2.0, 200.0, 90.0)


def _slots(cfg):
    """(field, item index or None, annotation) of each value that cfg's fields
    hold: the field, the X of an X | None field, or each item of a tuple field
    (the first item of a tuple of any length)."""
    for name, hint in typing.get_type_hints(type(cfg), include_extras=True).items():
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            for i, item in enumerate(args[:1] if args[-1] is Ellipsis else args):
                yield name, i, item
        else:
            yield name, None, args[0] if typing.get_origin(hint) is typing.Union else hint


def _step(value, direction):
    """The nearest int or float to value in direction 1 (up) or -1 (down)."""
    return value + direction if type(value) is int else math.nextafter(value, direction * math.inf)


def _with(cfg, name, index, value):
    """cfg with field ``name``, or item ``index`` of it, set to value."""
    if index is not None:
        items = list(getattr(cfg, name))
        items[index] = value
        value = items
    return dataclasses.replace(cfg, **{name: value})


class TestConfigFields:
    """The one field check every config runs first: each field holds its annotated type and bounds."""

    @pytest.mark.parametrize("make, error, message", [
        (lambda: tr.TrainConfig(lr=True), ValueError, "lr must be a finite real number > 0, got True"),
        (lambda: tr.TrainConfig(temperature=True), ValueError, "temperature must be a finite real number"),
        (lambda: sp.AugmentConfig(use_octahedral="false"), ValueError, "use_octahedral must be a bool"),
        (lambda: sp.AugmentConfig(intensity_scale_range=(True, True)), ValueError,
         "intensity_scale_range must be a list of 2 items, each a finite real number"),
        (lambda: sg.GenConfig(noise_sigma=True), sg.GenerationError, "noise_sigma must be a finite real number"),
        (lambda: sg.ClassParams(True, 1.5, 3.0, 220.0, 110.0), sg.GenerationError,
         "blob_radius_vox must be a finite real number"),
        (lambda: sp.SamplerConfig(augment=None), ValueError,
         "augment must be AugmentConfig or a dict of its fields, got None"),
        (lambda: sg.GenConfig(class_params=((2.0, 1.5, 3.0, 220.0, 110.0),), n_supervoxels=4),
         sg.GenerationError, "class_params must be a list of items, each ClassParams or a dict of its fields"),
        (lambda: sp.SamplerConfig(pair_mode=1), ValueError, "pair_mode must be a string"),
        (lambda: enc.EncoderConfig(channels=[8, 16.0, 32]), ValueError,
         "channels must be a list of items, each an integer"),
        (lambda: enc.EncoderConfig(channels="8"), ValueError, "channels must be a list"),
        (lambda: VolumeHeader((2, 3)), VolumeFormatError, "dims must be a list of 3 items, each an integer"),
        (lambda: VolumeHeader([2, 3, 4, 5]), VolumeFormatError, "dims must be a list of 3 items"),
        (lambda: VolumeHeader((2, 3, 4), 8.0), VolumeFormatError, "voxel_size_nm must be a list of 3 items"),
        (lambda: VolumeHeader((2, 3, 4), (8.0, 8.0, 10 ** 400)), VolumeFormatError,
         "voxel_size_nm must be a list of 3 items, each a finite real number"),
        (lambda: tr.TrainConfig(sampler={"patch_size": 16}), ValueError, "sampler must be SamplerConfig or a dict"),
        (lambda: tr.TrainConfig(encoder=sp.SamplerConfig()), ValueError, "encoder must be EncoderConfig or a dict"),
    ])
    def test_wrong_type_names_the_field(self, make, error, message):
        with pytest.raises(error) as e:
            make()
        assert type(e.value) is error and str(e.value).startswith(message)

    def test_a_nested_config_reports_its_own_field(self):
        with pytest.raises(ValueError, match="^max_jitter_vox must be an integer"):
            tr.TrainConfig(sampler={"augment": {"max_jitter_vox": 1.0}})
        with pytest.raises(sg.GenerationError, match="^rim_intensity must be a finite real number"):
            sg.GenConfig(class_params=[asdict(CLASS) | {"rim_intensity": None}])

    def test_accepted_values_are_stored_as_annotated(self):
        header = VolumeHeader([2, 3, 4], [8, 8.5, 40])
        assert header.dims == (2, 3, 4) and header.voxel_size_nm == (8.0, 8.5, 40.0)
        assert list(map(type, header.voxel_size_nm)) == [float] * 3
        assert type(tr.TrainConfig(lr=1).lr) is float
        assert type(sp.SamplerConfig(max_pair_dist_nm=200).max_pair_dist_nm) is float
        assert sp.SamplerConfig(max_pair_dist_nm=None).max_pair_dist_nm is None
        assert enc.EncoderConfig(channels=[4, 8, 16]).channels == (4, 8, 16)
        cfg = tr.TrainConfig(sampler={"augment": {"use_octahedral": False}}, temperature=1)
        assert cfg.sampler == sp.SamplerConfig(augment=sp.AugmentConfig(use_octahedral=False))
        assert type(cfg.temperature) is float and cfg.temperature == 1.0
        gen = sg.GenConfig(class_params=[asdict(CLASS)], n_supervoxels=4)
        assert gen.class_params == (CLASS,)

    @pytest.mark.parametrize("cfg", [
        enc.EncoderConfig(), SMALL_ENCODER,
        tr.TrainConfig(),
        tr.TrainConfig(steps=7, lr=2e-3, temperature=0.2, checkpoint_every=3, log_every=2, seed=5,
                       sampler=CAPPED_SAMPLER, encoder=SMALL_ENCODER),
        sp.SamplerConfig(), CAPPED_SAMPLER,
        sp.AugmentConfig(), IDENTITY_AUGMENT,
        sg.GenConfig(),
        sg.GenConfig(seed=4, dims=(40, 32, 24), n_supervoxels=4, synapses_per_supervoxel=2, noise_sigma=0.0,
                     class_params=(CLASS, sg.ClassParams(2.5, 1.0, 3.0, 110.0, 70.0)), background_intensity=0),
        sg.DEFAULT_CLASS_PARAMS[0], CLASS,
        VolumeHeader((1, 1, 1)), VolumeHeader((3, 4, 5), (4.0, 4.0, 40.0)),
    ], ids=lambda cfg: type(cfg).__name__)
    def test_json_round_trip(self, cfg):
        assert type(cfg)(**json.loads(json.dumps(asdict(cfg)))) == cfg

    @pytest.mark.parametrize("cfg, error", [
        (tr.TrainConfig(), ValueError), (enc.EncoderConfig(), ValueError), (sp.SamplerConfig(), ValueError),
        (sp.AugmentConfig(), ValueError), (sg.GenConfig(), sg.GenerationError),
        (CLASS, sg.GenerationError), (VolumeHeader((4, 4, 4)), VolumeFormatError),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else type(v).__name__)
    def test_declared_bounds_and_finiteness(self, cfg, error):
        """Every float slot rejects inf, -inf and NaN. Each declared limit is
        accepted under >= and <= and rejected under > and <, and the nearest
        value on its other side is treated the other way."""
        def rejects(name, index, value):
            with pytest.raises(error, match=f"^{name} must be ") as e:
                _with(cfg, name, index, value)
            assert type(e.value) is error, (name, value)

        checked = 0
        for name, index, hint in _slots(cfg):
            base, *bounds = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint,)
            if base is float:
                for value in (math.inf, -math.inf, math.nan):
                    rejects(name, index, value)
                checked += 1
            for bound in bounds:
                op, limit = bound.split()
                limit = base(limit)
                up = 1 if op[0] == ">" else -1  # the direction the bound allows
                inside, outside = (limit, _step(limit, -up)) if op.endswith("=") else (_step(limit, up), limit)
                held = getattr(_with(cfg, name, index, inside), name)
                assert (held if index is None else held[index]) == inside, (name, bound)
                rejects(name, index, outside)
                checked += 1
        assert checked
