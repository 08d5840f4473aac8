"""Flat key=value run configuration with typed defaults and overrides.

Single source of truth for every tunable named by the library modules;
a test pins each default against the owning dataclass. Config files are
diffable text: one key=value per line, '#' comments allowed.
"""

import os

from .errors import ConfigError

ENV_SEED = "OFSCIL_SEED"


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _intlist(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


# key -> (parser, default)
DEFAULTS = {
    "seed": (int, 7),
    # model
    "hidden": (_intlist, (96, 48)),
    "d_p": (int, 32),
    # pretraining
    "pretrain_epochs": (int, 50),
    "pretrain_lr": (float, 0.002),
    "batch_size": (int, 32),
    "lambda_ortho": (float, 0.1),
    "mix_probability": (float, 0.4),
    "mix_alpha": (float, 1.0),
    # metalearning
    "margin": (float, 0.1),
    "meta_samples": (int, 5),
    "meta_iterations": (int, 500),
    "meta_lr": (float, 0.01),
    "query_batch": (int, 64),
    "meta_objective": (str, "mm"),
    "prototype_gradient": (_bool, False),
    # finetuning
    "finetune": (_bool, False),
    "finetune_epochs": (int, 100),
    "finetune_sub_batch": (int, 4),
    "finetune_lr": (float, 0.01),
    # quantization
    "feature_bits": (int, 8),
    "accum_bits": (int, 32),
    "prototype_bits": (int, 32),
    "max_shots": (int, 256),
    "sweep_bits": (_intlist, (8, 7, 6, 5, 4, 3, 2, 1)),
    # data source (file, manifest, or synthetic blobs)
    "dataset": (str, ""),
    "dataset_format": (str, "auto"),  # auto | raw-binary | csv | cifar
    "stream_manifest": (str, ""),
    "synthetic": (_bool, True),
    "classes": (int, 18),
    "grid": (int, 16),
    "data_noise": (float, 0.05),
    # stream split
    "base_classes": (int, 10),
    "ways": (int, 2),
    "shots": (int, 5),
    "sessions": (int, -1),  # -1 = as many as the classes allow
    "per_class_cap": (int, 50),
    "test_per_class": (int, 20),
    # command inputs/outputs
    "class_id": (int, -1),
    "params_in": (str, ""),
    "params_out": (str, "params.ofsc"),
    "em_in": (str, ""),
    "em_out": (str, "em.ofem"),
    "actmem_in": (str, ""),
    "actmem_out": (str, "actmem.ofam"),
    "history_out": (str, "history.csv"),
    "report_out": (str, "report.csv"),
    "sweep_out": (str, "sweep.csv"),
    "ablation_out": (str, "ablation.csv"),
    "predictions_out": (str, "predictions.csv"),
    "ablate_rows": (str, "none;AG;AG,OR,MM"),
}


class RunConfig:
    """Resolved configuration: defaults, then file, then overrides, then env."""

    def __init__(self, values: dict):
        self._values = values

    def __getattr__(self, key):
        try:
            return self._values[key]
        except KeyError as exc:
            raise AttributeError(key) from exc

    def as_dict(self) -> dict:
        return dict(self._values)

    def dump(self) -> str:
        lines = []
        for key in sorted(self._values):
            val = self._values[key]
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key}={val}")
        return "\n".join(lines) + "\n"


def parse_kv_file(path) -> dict:
    """Read raw key=value pairs; no typing, no key validation."""
    pairs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def _apply(values: dict, pairs: dict, origin: str):
    for key, raw in pairs.items():
        if key not in DEFAULTS:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        parser, _ = DEFAULTS[key]
        try:
            values[key] = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}: bad value for {key!r}: {exc}") from exc


def load_config(path=None, overrides=()) -> RunConfig:
    """Resolve the effective config.

    Precedence, lowest to highest: built-in defaults, config file,
    key=value overrides, the OFSCIL_SEED environment variable.
    """
    values = {k: d for k, (_, d) in DEFAULTS.items()}
    if path:
        try:
            _apply(values, parse_kv_file(path), str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    pairs = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        pairs[key.strip()] = value.strip()
    _apply(values, pairs, "override")
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer") from exc
    return RunConfig(values)
