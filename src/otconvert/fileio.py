"""Binary feature/model formats and flat-text run configs.

Feature file layout (little-endian throughout):

    8 bytes  magic "OTFEAT01"
    1 byte   dtype code: 0 = float64, 1 = float32
    u64      rows
    u64      cols
    u16      tag byte length, then that many UTF-8 bytes
    payload  rows*cols values, row-major

Model file layout:

    8 bytes  magic "OTMODL01"
    1 byte   kind: 0 = velocity_field, 1 = not_pair
    1 byte   model flags (bit 0: nonpositivity transform on the potential)
    u32      config echo byte length, then UTF-8 text
    1 byte   network count (1 for velocity_field; 2 for not_pair, map first)
    per network:
        1 byte   layer count, then u32 per layer dim
        1 byte   activation: 0 = relu, 1 = tanh
        1 byte   network flags (bit 0: time-conditioned)
        u32      condition input width
    u64      total parameter count
    payload  each network's ``MlpModel.params`` as float64, in network order

Reading checks each network's architecture the way ``init_mlp`` does and
checks that it fits the file's kind.

All writes are atomic: a temp file in the target directory, then rename.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .nn import MlpModel, param_layout

FEATURE_MAGIC = b"OTFEAT01"
MODEL_MAGIC = b"OTMODL01"
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_ACTIVATION_CODES = {"relu": 0, "tanh": 1}
_ACTIVATION_NAMES = {v: k for k, v in _ACTIVATION_CODES.items()}
MODEL_KINDS = ("velocity_field", "not_pair")
_NETWORK_COUNTS = {"velocity_field": 1, "not_pair": 2}


def atomic_write_bytes(path, data: bytes):
    """Write data to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


@dataclass
class FeatureData:
    values: np.ndarray
    tag: str = ""


def write_feature_file(path, values, tag: str = ""):
    values = np.asarray(values)
    if values.ndim != 2:
        raise ShapeError(f"feature matrix must be 2-d, got shape {values.shape}")
    if values.dtype == np.float64:
        code = 0
    elif values.dtype == np.float32:
        code = 1
    else:
        values = values.astype(np.float64)
        code = 0
    tag_bytes = tag.encode("utf-8")
    if len(tag_bytes) > 0xFFFF:
        raise ValidationError("tag exceeds 65535 encoded bytes")
    header = FEATURE_MAGIC + struct.pack(
        "<BQQH", code, values.shape[0], values.shape[1], len(tag_bytes)
    )
    payload = np.ascontiguousarray(values, dtype=_DTYPE_CODES[code]).tobytes()
    atomic_write_bytes(path, header + tag_bytes + payload)


def read_feature_file(path) -> FeatureData:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:8] != FEATURE_MAGIC:
        raise ValidationError(
            f"{path}: not a feature file (magic {blob[:8]!r})"
        )
    if len(blob) < 8 + 1 + 8 + 8 + 2:
        raise ValidationError(f"{path}: truncated feature header")
    code, rows, cols, tag_len = struct.unpack_from("<BQQH", blob, 8)
    if code not in _DTYPE_CODES:
        raise ValidationError(f"{path}: unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    offset = 8 + 1 + 8 + 8 + 2
    try:
        tag = blob[offset:offset + tag_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: tag is not valid UTF-8 (byte {offset + exc.start})"
        ) from None
    offset += tag_len
    expected = rows * cols * dtype.itemsize
    if len(blob) - offset != expected:
        raise ValidationError(
            f"{path}: payload holds {len(blob) - offset} bytes,"
            f" header promises {expected}"
        )
    values = np.frombuffer(blob, dtype=dtype, count=rows * cols, offset=offset)
    return FeatureData(values=values.reshape(rows, cols).copy(), tag=tag)


def _pack_network(model: MlpModel) -> bytes:
    dims = model.layer_dims
    if len(dims) > 0xFF:
        raise ValidationError("too many layers to serialize")
    return struct.pack(f"<B{len(dims)}IBBI", len(dims), *dims,
                       _ACTIVATION_CODES[model.activation],
                       1 if model.time_conditioned else 0, model.condition_dim)


def _unpack_network(blob, offset, path):
    (n_dims,) = struct.unpack_from("<B", blob, offset)
    record = f"<{n_dims}IBBI"
    *dims, act_code, net_flags, condition_dim = struct.unpack_from(record, blob, offset + 1)
    if act_code not in _ACTIVATION_NAMES:
        raise ValidationError(f"{path}: unknown activation code {act_code}")
    return {
        "layer_dims": tuple(int(d) for d in dims),
        "activation": _ACTIVATION_NAMES[act_code],
        "time_conditioned": bool(net_flags & 1),
        "condition_dim": int(condition_dim),
    }, offset + 1 + struct.calcsize(record)


def _write_model_file(path, kind, model_flags, networks, config_text):
    blob = MODEL_MAGIC + struct.pack("<BB", MODEL_KINDS.index(kind), model_flags)
    config_bytes = config_text.encode("utf-8")
    blob += struct.pack("<I", len(config_bytes)) + config_bytes
    blob += struct.pack("<B", len(networks))
    for model in networks:
        blob += _pack_network(model)
    flat = np.concatenate([model.params for model in networks])
    blob += struct.pack("<Q", flat.size)
    blob += np.ascontiguousarray(flat, dtype="<f8").tobytes()
    atomic_write_bytes(path, blob)


def _read_model_file(path, kind):
    """Read a model file of the given kind: (model flags, networks, config text)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:8] != MODEL_MAGIC:
        raise ValidationError(f"{path}: not a model file (magic {blob[:8]!r})")
    try:
        kind_code, model_flags = struct.unpack_from("<BB", blob, 8)
        if kind_code >= len(MODEL_KINDS):
            raise ValidationError(f"{path}: unknown model kind code {kind_code}")
        if MODEL_KINDS[kind_code] != kind:
            raise ValidationError(f"{path}: holds a {MODEL_KINDS[kind_code]}, not a {kind}")
        offset = 10
        (config_len,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        config_text = blob[offset:offset + config_len].decode("utf-8")
        offset += config_len
        (n_networks,) = struct.unpack_from("<B", blob, offset)
        offset += 1
        if n_networks != _NETWORK_COUNTS[kind]:
            raise ValidationError(f"{path}: a {kind} holds {_NETWORK_COUNTS[kind]}"
                                  f" networks, the file lists {n_networks}")
        descs = []
        for _ in range(n_networks):
            desc, offset = _unpack_network(blob, offset, path)
            descs.append(desc)
        (param_count,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
    except struct.error:
        raise ValidationError(
            f"{path}: truncated model header ({len(blob)} bytes)"
        ) from None
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: config echo is not valid UTF-8") from None
    try:
        sizes = [sum(math.prod(shape) for shape in param_layout(**desc))
                 for desc in descs]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if param_count != sum(sizes):
        raise ValidationError(
            f"{path}: parameter payload holds {param_count} values,"
            f" architecture needs {sum(sizes)}"
        )
    if len(blob) - offset != 8 * param_count:
        raise ValidationError(f"{path}: truncated parameter payload")
    flat = np.frombuffer(blob, dtype="<f8", count=param_count, offset=offset)
    models = []
    for desc, size in zip(descs, sizes):
        models.append(MlpModel(params=flat[:size].astype(np.float64), **desc))
        flat = flat[size:]
    return model_flags, models, config_text


def write_velocity_field(path, field, config_text: str = ""):
    """Serialize a trained velocity field; config_text is echoed verbatim."""
    _write_model_file(path, "velocity_field", 0, [field.model], config_text)


def read_velocity_field(path):
    from .flow import VelocityField

    _, (model,), config_text = _read_model_file(path, "velocity_field")
    if (not model.time_conditioned or model.condition_dim
            or model.output_dim != model.input_dim):
        raise ValidationError(f"{path}: a velocity field needs a time-conditioned d->d"
                              f" network with no condition input, got dims {model.layer_dims},"
                              f" condition width {model.condition_dim}")
    return VelocityField(model=model, dim=model.input_dim), config_text


def write_not_pair(path, pair, config_text: str = ""):
    flags = 1 if pair.nonpositivity_transform else 0
    _write_model_file(path, "not_pair", flags, [pair.map_model, pair.potential_model],
                      config_text)


def read_not_pair(path):
    from .neural import NotModelPair

    flags, (map_model, potential_model), config_text = _read_model_file(path, "not_pair")
    if potential_model.output_dim != 1:
        raise ValidationError(f"{path}: the potential network must have output"
                              f" width 1, got {potential_model.output_dim}")
    dim = map_model.input_dim
    if (map_model.output_dim != dim or potential_model.input_dim != dim
            or potential_model.condition_dim != map_model.condition_dim):
        raise ValidationError(f"{path}: the map network must be d->d and the potential"
                              f" must take d inputs and the same condition width, got"
                              f" map dims {map_model.layer_dims} and potential dims"
                              f" {potential_model.layer_dims}, condition widths"
                              f" {map_model.condition_dim} and {potential_model.condition_dim}")
    pair = NotModelPair(map_model=map_model, potential_model=potential_model,
                        nonpositivity_transform=bool(flags & 1))
    return pair, config_text


def read_text_file(path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def parse_kv_text(text: str) -> dict:
    """Parse `key = value` lines; `#` starts a comment; blank lines skipped.

    Duplicate keys are rejected (a silent last-wins would hide typos in
    hand-edited configs).
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"line {lineno}: empty key")
        if key in out:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv_text(mapping: dict, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    for key in sorted(mapping):
        lines.append(f"{key} = {_format_value(mapping[key])}")
    return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if value is None:
        return "none"
    return str(value)


def coerce_value(key: str, raw: str, kind: str | tuple):
    """Parse one config value by declared kind; errors name the key.

    A tuple kind lists the allowed strings.
    """
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValidationError(f"config key {key!r}: {raw!r} is not one of"
                                  f" {', '.join(kind)}")
        return raw
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "str":
            return raw
        if kind == "int_tuple":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        if kind == "optional_float":
            return None if raw.lower() == "none" else float(raw)
    except ValueError:
        raise ValidationError(f"config key {key!r}: cannot parse {raw!r} as {kind}")
    raise ValidationError(f"config key {key!r}: unknown kind {kind!r}")


def resolve_config(raw: dict, schema: dict) -> dict:
    """Validate raw string pairs against {key: (kind, default-or-REQUIRED)}.

    Unknown keys are rejected naming the key; missing required keys too.
    """
    unknown = set(raw) - set(schema)
    if unknown:
        raise ValidationError(
            f"unknown config key(s): {', '.join(sorted(unknown))}"
        )
    resolved = {}
    for key, (kind, default) in schema.items():
        if key in raw:
            resolved[key] = coerce_value(key, raw[key], kind)
        elif default is REQUIRED:
            raise ValidationError(f"missing required config key {key!r}")
        else:
            resolved[key] = default
    return resolved


class _Required:
    def __repr__(self):
        return "REQUIRED"


REQUIRED = _Required()
