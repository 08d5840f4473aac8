"""Flat key=value run configuration with typed defaults and overrides.

Each library key is one RECIPE_KEYS row that names the
`harness.TrainRecipe` field it sets; its default is read from a default
`TrainRecipe`, whose settings classes own those defaults, and
`RunConfig.recipe` builds a run's `TrainRecipe` through the same rows.
DEFAULTS adds the keys that choose data, streams, files and what a
command runs. Config files are diffable text: one key=value per line,
'#' comments allowed.
"""

import math
import os
from dataclasses import replace
from functools import reduce

from .errors import ConfigError
from .harness import TrainRecipe

ENV_SEED = "OFSCIL_SEED"


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"a seed must be >= 0, got {value}")
    return value


def _intlist(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


_RECIPE = TrainRecipe()

# library key -> (parser, the TrainRecipe field it sets)
RECIPE_KEYS = {
    "seed": (_seed, "seed"),
    # model
    "hidden": (_intlist, "hidden"),
    "d_p": (int, "d_p"),
    # pretraining
    "pretrain_epochs": (int, "pretrain_epochs"),
    "pretrain_lr": (_float, "pretrain_lr"),
    "batch_size": (int, "batch_size"),
    "lambda_ortho": (_float, "loss.lambda_ortho"),
    "mix_probability": (_float, "loss.mix_probability"),
    "mix_alpha": (_float, "loss.mix_alpha"),
    # metalearning
    "margin": (_float, "meta.margin"),
    "meta_samples": (int, "meta.meta_samples"),
    "meta_iterations": (int, "meta.iterations"),
    "meta_lr": (_float, "meta.lr"),
    "query_batch": (int, "meta.query_batch"),
    "meta_objective": (str, "meta.objective"),
    # finetuning
    "finetune_epochs": (int, "finetune.epochs"),
    "finetune_sub_batch": (int, "finetune.sub_batch"),
    "finetune_lr": (_float, "finetune.lr"),
    # quantization
    "feature_bits": (int, "quant.feature_bits"),
    "accum_bits": (int, "quant.accum_bits"),
    "prototype_bits": (int, "quant.prototype_bits"),
    "max_shots": (int, "quant.max_shots"),
}

# key -> (parser, default)
DEFAULTS = {
    **{
        key: (parser, reduce(getattr, field.split("."), _RECIPE))
        for key, (parser, field) in RECIPE_KEYS.items()
    },
    # what protocol and sweep run
    "finetune": (_bool, False),
    "sweep_bits": (_intlist, (8, 7, 6, 5, 4, 3, 2, 1)),
    # data source (file, manifest, or else synthetic blobs)
    "dataset": (str, ""),
    "dataset_format": (str, "auto"),  # resolved by data.load_dataset
    "stream_manifest": (str, ""),
    "classes": (int, 18),
    "grid": (int, 16),
    "data_noise": (_float, 0.05),
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
    "actmem_out": (str, ""),  # "" keeps no activation memory
    "history_out": (str, "history.csv"),
    "report_out": (str, "report.csv"),
    "sweep_out": (str, "sweep.csv"),
    "ablation_out": (str, "ablation.csv"),
    "predictions_out": (str, "predictions.csv"),
    "ablate_rows": (str, "none;AG;AG,OR,MM"),
}


class RunConfig:
    """The keys set by a config file, overrides or OFSCIL_SEED; DEFAULTS has the rest."""

    def __init__(self, values: dict):
        self._values = values

    def __getattr__(self, key):
        try:
            values = vars(self).get("_values", {})  # unset while copy or pickle rebuilds
            return values[key] if key in values else DEFAULTS[key][1]
        except KeyError as exc:
            raise AttributeError(key) from exc

    def recipe(self) -> TrainRecipe:
        """The library settings of this run, built through RECIPE_KEYS.
        Each settings object is the default one with this run's values
        replaced, so it validates them; the cutmix grid is (grid, grid) when
        the run sets grid, else None, which pretraining infers from the
        square input width or refuses."""
        fields = {"": {}}
        for key, (_, field) in RECIPE_KEYS.items():
            owner, _, name = field.rpartition(".")
            fields.setdefault(owner, {})[name] = getattr(self, key)
        top = fields.pop("")
        for owner, values in fields.items():  # validated in table order
            top[owner] = replace(getattr(_RECIPE, owner), **values)
        top["grid"] = (self.grid, self.grid) if "grid" in self._values else None
        return replace(_RECIPE, **top)

    def dump(self) -> str:
        """The keys this run set as sorted key=value lines, which reload as is."""
        lines = []
        for key, val in sorted(self._values.items()):
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key}={val}\n")
        return "".join(lines)


def parse_kv_file(path) -> dict:
    """Read raw key=value pairs; no typing, no key validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text") from exc
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
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
    values = {}
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
            values["seed"] = _seed(env_seed)
        except ValueError as exc:
            raise ConfigError(f"bad value for {ENV_SEED}: {exc}") from exc
    return RunConfig(values)
