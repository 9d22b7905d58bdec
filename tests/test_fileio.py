"""File formats: byte-level layout, round trips, and config parsing."""

import hashlib
import struct

import numpy as np
import pytest

from otconvert.errors import ShapeError, ValidationError
from otconvert.fileio import (
    REQUIRED,
    format_kv_text,
    parse_kv_text,
    read_feature_file,
    read_not_pair,
    read_velocity_field,
    resolve_config,
    write_feature_file,
    write_not_pair,
    write_velocity_field,
)
from otconvert.flow import VelocityField
from otconvert.neural import NotModelPair
from otconvert.nn import init_mlp
from otconvert.rng import make_rng


class TestFeatureFile:
    def test_round_trip_is_bit_exact_float64(self, tmp_path):
        path = tmp_path / "a.otf"
        values = make_rng(1).normal(size=(7, 3))
        write_feature_file(path, values, tag="speaker-a")
        data = read_feature_file(path)
        assert data.tag == "speaker-a"
        assert data.values.dtype == np.float64
        assert np.array_equal(data.values, values)
        first = path.read_bytes()
        write_feature_file(path, data.values, tag=data.tag)
        assert path.read_bytes() == first

    def test_round_trip_float32(self, tmp_path):
        path = tmp_path / "b.otf"
        values = make_rng(2).normal(size=(4, 5)).astype(np.float32)
        write_feature_file(path, values)
        data = read_feature_file(path)
        assert data.values.dtype == np.float32
        assert np.array_equal(data.values, values)
        assert data.tag == ""

    def test_unicode_tag(self, tmp_path):
        path = tmp_path / "c.otf"
        write_feature_file(path, np.zeros((1, 1)), tag="voix numéro 3")
        assert read_feature_file(path).tag == "voix numéro 3"

    def test_non_utf8_tag_rejected(self, tmp_path):
        path = tmp_path / "t.otf"
        path.write_bytes(b"OTFEAT01" + struct.pack("<BQQH", 0, 1, 1, 2)
                         + b"\xff\xfe" + bytes(8))
        with pytest.raises(ValidationError, match="t.otf: tag is not valid UTF-8"):
            read_feature_file(path)

    def test_known_bytes_read_back(self, tmp_path):
        # hand-assembled file: 2x3 float32 matrix 0..5, tag "ok"
        path = tmp_path / "hand.otf"
        blob = b"OTFEAT01" + struct.pack("<BQQH", 1, 2, 3, 2) + b"ok"
        blob += struct.pack("<6f", 0, 1, 2, 3, 4, 5)
        path.write_bytes(blob)
        data = read_feature_file(path)
        assert data.tag == "ok"
        assert np.array_equal(data.values,
                              np.arange(6, dtype=np.float32).reshape(2, 3))

    def test_written_header_layout(self, tmp_path):
        path = tmp_path / "d.otf"
        write_feature_file(path, np.zeros((2, 3)), tag="x")
        blob = path.read_bytes()
        assert blob[:8] == b"OTFEAT01"
        code, rows, cols, tag_len = struct.unpack_from("<BQQH", blob, 8)
        assert (code, rows, cols, tag_len) == (0, 2, 3, 1)
        assert len(blob) == 8 + 19 + 1 + 2 * 3 * 8

    def test_magic_mismatch_rejected(self, tmp_path):
        path = tmp_path / "e.otf"
        path.write_bytes(b"NOTMAGIC" + bytes(40))
        with pytest.raises(ValidationError, match="magic"):
            read_feature_file(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "f.otf"
        write_feature_file(path, np.zeros((3, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValidationError, match="payload"):
            read_feature_file(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "g.otf"
        path.write_bytes(b"OTFEAT01" + struct.pack("<BQQH", 9, 1, 1, 0) + bytes(8))
        with pytest.raises(ValidationError, match="dtype"):
            read_feature_file(path)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_feature_file(tmp_path / "h.otf", np.zeros(5))

    def test_integer_input_upcast_to_float64(self, tmp_path):
        path = tmp_path / "i.otf"
        write_feature_file(path, np.arange(6).reshape(2, 3))
        data = read_feature_file(path)
        assert data.values.dtype == np.float64
        assert np.array_equal(data.values, np.arange(6.0).reshape(2, 3))

    def test_no_temp_files_left_behind(self, tmp_path):
        write_feature_file(tmp_path / "j.otf", np.zeros((2, 2)))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["j.otf"]


class TestModelFile:
    def test_velocity_field_round_trip(self, tmp_path):
        path = tmp_path / "field.otm"
        model = init_mlp((3, 8, 3), make_rng(4, "init"), activation="relu",
                         time_conditioned=True)
        field = VelocityField(model=model, dim=3)
        write_velocity_field(path, field, config_text="seed = 4\n")
        loaded, config_text = read_velocity_field(path)
        assert config_text == "seed = 4\n"
        assert loaded.dim == 3
        assert loaded.model.layer_dims == (3, 8, 3)
        assert loaded.model.activation == "relu"
        assert loaded.model.time_conditioned is True
        assert loaded.model.condition_dim == 0
        for a, b in zip(loaded.model.parameters(), model.parameters()):
            assert np.array_equal(a, b)
        first = path.read_bytes()
        write_velocity_field(path, loaded, config_text=config_text)
        assert path.read_bytes() == first

    def test_loaded_field_predicts_identically(self, tmp_path):
        path = tmp_path / "field.otm"
        model = init_mlp((2, 6, 2), make_rng(5, "init"), time_conditioned=True)
        field = VelocityField(model=model, dim=2)
        write_velocity_field(path, field)
        loaded, _ = read_velocity_field(path)
        x = make_rng(6).normal(size=(10, 2))
        t = make_rng(7).uniform(size=10)
        assert np.array_equal(field.velocity(t, x), loaded.velocity(t, x))

    def test_not_pair_round_trip(self, tmp_path):
        path = tmp_path / "pair.otm"
        rng = make_rng(8, "init")
        pair = NotModelPair(
            map_model=init_mlp((2, 5, 2), rng, condition_dim=2),
            potential_model=init_mlp((2, 5, 1), rng, activation="tanh",
                                     condition_dim=2),
            nonpositivity_transform=True,
        )
        write_not_pair(path, pair, config_text="w = 12.0\n")
        loaded, config_text = read_not_pair(path)
        assert config_text == "w = 12.0\n"
        assert loaded.nonpositivity_transform is True
        assert loaded.map_model.condition_dim == 2
        assert loaded.potential_model.activation == "tanh"
        for a, b in zip(loaded.map_model.parameters(),
                        pair.map_model.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.potential_model.parameters(),
                        pair.potential_model.parameters()):
            assert np.array_equal(a, b)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = tmp_path / "pair.otm"
        rng = make_rng(9, "init")
        pair = NotModelPair(
            map_model=init_mlp((2, 4, 2), rng, condition_dim=1),
            potential_model=init_mlp((2, 4, 1), rng, condition_dim=1),
            nonpositivity_transform=False,
        )
        write_not_pair(path, pair)
        with pytest.raises(ValidationError, match="not_pair"):
            read_velocity_field(path)

    def test_corrupt_param_count_rejected(self, tmp_path):
        path = tmp_path / "field.otm"
        model = init_mlp((2, 4, 2), make_rng(10, "init"), time_conditioned=True)
        write_velocity_field(path, VelocityField(model=model, dim=2))
        blob = bytearray(path.read_bytes())
        blob = blob[:-16]  # drop two parameters
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="truncated"):
            read_velocity_field(path)

    @pytest.mark.parametrize("size", [10, 40])
    def test_truncated_header_rejected(self, tmp_path, size):
        path = tmp_path / "field.otm"
        model = init_mlp((2, 4, 2), make_rng(11, "init"), time_conditioned=True)
        write_velocity_field(path, VelocityField(model=model, dim=2),
                             config_text="seed = 11\n")
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValidationError, match="field.otm: truncated model header"):
            read_velocity_field(path)

    def test_unknown_activation_code_names_the_file(self, tmp_path):
        path = tmp_path / "field.otm"
        model = init_mlp((2, 4, 2), make_rng(12, "init"), time_conditioned=True)
        write_velocity_field(path, VelocityField(model=model, dim=2))
        blob = bytearray(path.read_bytes())
        blob[28] = 9  # activation byte of the only network (3 layer dims)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError,
                           match="field.otm: unknown activation code 9"):
            read_velocity_field(path)

    def test_magic_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.otm"
        path.write_bytes(b"OTFEAT01" + bytes(30))
        with pytest.raises(ValidationError, match="magic"):
            read_velocity_field(path)

    def test_bytes_match_the_recorded_digests(self, tmp_path):
        # init draws only rng.normal, so these bytes do not depend on BLAS
        field_path = tmp_path / "field.otm"
        model = init_mlp((3, 8, 3), make_rng(4, "init"), time_conditioned=True)
        write_velocity_field(field_path, VelocityField(model=model, dim=3),
                             config_text="seed = 4\n")
        pair_path = tmp_path / "pair.otm"
        rng = make_rng(8, "init")
        pair = NotModelPair(
            map_model=init_mlp((2, 5, 2), rng, condition_dim=2),
            potential_model=init_mlp((2, 5, 1), rng, activation="tanh",
                                     condition_dim=2),
            nonpositivity_transform=True,
        )
        write_not_pair(pair_path, pair, config_text="w = 12.0\n")
        assert hashlib.sha256(field_path.read_bytes()).hexdigest() == (
            "4ba8940c6f06259312aaf914e992e4f429b5fe0823a7f5636d09c1928b0cd40b")
        assert hashlib.sha256(pair_path.read_bytes()).hexdigest() == (
            "0c39bbd8ff9756ae3f0e0bf3dd3e80d75f21182e7a6bb47accbce703aaa3a9d4")


def _model_blob(kind, networks, param_count=None):
    """Hand-built .otm bytes: networks are (dims, activation code, flags, cond)."""
    blob = b"OTMODL01" + struct.pack("<BBIB", kind, 0, 0, len(networks))
    needed = 0
    for dims, act, flags, cond in networks:
        blob += struct.pack(f"<B{len(dims)}IBBI", len(dims), *dims, act, flags, cond)
        fan_in = dims[0] + (flags & 1) + cond
        for out_dim in dims[1:]:
            needed += fan_in * out_dim + out_dim
            fan_in = out_dim
    count = needed if param_count is None else param_count
    return blob + struct.pack("<Q", count) + bytes(8 * count)


class TestModelArchitectureChecks:
    @pytest.mark.parametrize("dims", [(3,), (2, 0, 2)])
    def test_bad_layer_dims_rejected_naming_the_file(self, tmp_path, dims):
        path = tmp_path / "bad.otm"
        path.write_bytes(_model_blob(0, [(dims, 0, 1, 0)]))
        with pytest.raises(ValidationError, match="bad.otm: layer"):
            read_velocity_field(path)

    def test_huge_dims_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "huge.otm"
        big = 2**32 - 1
        path.write_bytes(_model_blob(0, [((big, big, big), 0, 1, 0)], param_count=4))
        with pytest.raises(ValidationError, match="huge.otm: .* architecture needs"):
            read_velocity_field(path)

    @pytest.mark.parametrize("network", [
        ((2, 4, 2), 0, 0, 0),  # not time-conditioned
        ((2, 4, 3), 0, 1, 0),  # output width differs from input width
        ((2, 4, 2), 0, 1, 1),  # takes a condition input
    ])
    def test_velocity_field_kind_checked(self, tmp_path, network):
        path = tmp_path / "field.otm"
        path.write_bytes(_model_blob(0, [network]))
        with pytest.raises(ValidationError, match="field.otm: a velocity field needs"):
            read_velocity_field(path)

    def test_potential_output_width_checked(self, tmp_path):
        path = tmp_path / "pair.otm"
        path.write_bytes(_model_blob(1, [((2, 4, 2), 1, 0, 1), ((2, 4, 2), 1, 0, 1)]))
        with pytest.raises(ValidationError, match="pair.otm: the potential network"):
            read_not_pair(path)

    @pytest.mark.parametrize("map_net,potential_net", [
        (((2, 4, 3), 0, 0, 0), ((2, 4, 1), 0, 0, 0)),  # map is not d->d
        (((2, 4, 2), 0, 0, 0), ((3, 4, 1), 0, 0, 0)),  # potential input width differs
        (((2, 4, 2), 0, 0, 1), ((2, 4, 1), 0, 0, 0)),  # condition widths differ
    ])
    def test_pair_widths_checked(self, tmp_path, map_net, potential_net):
        path = tmp_path / "pair.otm"
        path.write_bytes(_model_blob(1, [map_net, potential_net]))
        with pytest.raises(ValidationError, match="pair.otm: the map network must be d->d"):
            read_not_pair(path)

    @pytest.mark.parametrize("kind,count", [(0, 2), (1, 1)])
    def test_network_count_checked(self, tmp_path, kind, count):
        path = tmp_path / "model.otm"
        path.write_bytes(_model_blob(kind, [((2, 4, 2), 0, 1, 0)] * count))
        reader = read_velocity_field if kind == 0 else read_not_pair
        with pytest.raises(ValidationError, match="model.otm: a .* holds"):
            reader(path)

    def test_well_formed_hand_built_file_reads(self, tmp_path):
        path = tmp_path / "field.otm"
        path.write_bytes(_model_blob(0, [((2, 4, 2), 1, 1, 0)]))
        field, _ = read_velocity_field(path)
        assert field.dim == 2 and field.model.params.size == 3 * 4 + 4 + 4 * 2 + 2


class TestKvConfig:
    def test_parse_basics(self):
        text = "# run settings\nseed = 7\n\nepsilon = 0.1  # sharp\nmethod = sinkvc\n"
        assert parse_kv_text(text) == {"seed": "7", "epsilon": "0.1",
                                       "method": "sinkvc"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_kv_text("a = 1\nnot a pair\n")

    def test_parse_rejects_duplicate_key(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_kv_text("a = 1\na = 2\n")

    def test_format_parse_round_trip(self):
        mapping = {"seed": 7, "epsilon": 0.1, "hidden_dims": (64, 64),
                   "extremal": True, "w": None, "method": "sinkvc"}
        parsed = parse_kv_text(format_kv_text(mapping, header="resolved"))
        assert parsed == {"seed": "7", "epsilon": "0.1",
                          "hidden_dims": "64,64", "extremal": "true",
                          "w": "none", "method": "sinkvc"}

    def test_resolve_with_schema(self):
        schema = {"seed": ("int", REQUIRED), "epsilon": ("float", 0.1),
                  "hidden_dims": ("int_tuple", (128,)),
                  "extremal": ("bool", False), "w": ("optional_float", None)}
        out = resolve_config({"seed": "3", "hidden_dims": "32,16",
                              "w": "none"}, schema)
        assert out == {"seed": 3, "epsilon": 0.1, "hidden_dims": (32, 16),
                       "extremal": False, "w": None}

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="epsilonn"):
            resolve_config({"epsilonn": "0.1"}, {"epsilon": ("float", 0.1)})

    def test_missing_required_key_named(self):
        with pytest.raises(ValidationError, match="seed"):
            resolve_config({}, {"seed": ("int", REQUIRED)})

    def test_bad_value_names_key(self):
        with pytest.raises(ValidationError, match="epsilon"):
            resolve_config({"epsilon": "abc"}, {"epsilon": ("float", 0.1)})

