"""Command-line surface for scripted experiments: command glue only.

Each command reads a `RunConfig`, builds its library settings with
`RunConfig.recipe`, reads data through `data.load_dataset` and calls
the library. Exit codes follow the error class: 0 success,
1 validation violations, 2 `ConfigError` ("config error:"),
3 any other `ProtomemError` or `OSError` ("data error:"),
4 `NumericFailureError` ("numeric failure:"). A command writes through
`_staged_outputs`, so one that fails leaves every output as it was. Every
command is deterministic given the same config and seed; reruns produce
byte-identical artifacts.
"""

import argparse
import contextlib
import os
import sys

import numpy as np

from . import data as dio
from .backbone import load_params, save_params
from .config import DEFAULTS, RunConfig, load_config, parse_kv_file
from .errors import ConfigError, MalformedFileError, NumericFailureError, ProtomemError
from .harness import (
    ablation_matrix,
    extract_features,
    make_blob_dataset,
    metalearn_model,
    pretrain_model,
    require_test_rows,
    run_protocol,
    validate_stream,
)
from .memory import ExplicitMemory, classify_batch, load_em, precision_sweep, save_em
from .offline import build_base_em
from .online import learn_class, learn_dataset


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextlib.contextmanager
def _staged_outputs():
    """Yield `stage(path)`, which creates an empty file beside `path` and
    returns its name, for the command to write in place of `path`. Each
    such file replaces its destination only once the block ends without
    error; on any error each is removed and no destination is touched."""
    staged = {}  # temporary -> destination

    def stage(path):
        if os.path.isdir(path):  # which os.replace would refuse after others succeeded
            raise IsADirectoryError(f"output {path} is a directory")
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.getpid()}-{len(staged)}.tmp")
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        staged[tmp] = path
        return tmp

    try:
        yield stage
        for tmp, dest in staged.items():
            os.replace(tmp, dest)
    finally:
        for tmp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _resolve_dataset(cfg: RunConfig) -> dio.LabeledDataset:
    if cfg.dataset:
        return dio.load_dataset(cfg.dataset, cfg.dataset_format)
    per_class = cfg.per_class_cap + cfg.test_per_class
    return make_blob_dataset(
        cfg.classes, per_class, grid=cfg.grid, seed=cfg.seed, noise=cfg.data_noise
    )


def _parse_manifest(path) -> dio.SessionStream:
    """A manifest is a data file: one that does not parse exits 3."""
    pairs = parse_kv_file(path, MalformedFileError)
    for key in ("base", "test", "ways", "shots"):
        if key not in pairs:
            raise MalformedFileError(f"{path}: manifest is missing {key!r}")
    session_keys = []
    for key in pairs:
        if key.startswith("session"):
            suffix = key[len("session") :]
            if not suffix.isdigit():
                raise MalformedFileError(f"{path}: bad session key {key!r}")
            session_keys.append((int(suffix), key))
        elif key not in ("base", "test", "ways", "shots"):
            raise MalformedFileError(f"{path}: unknown manifest key {key!r}")
    try:
        ways = int(pairs["ways"])
        shots = int(pairs["shots"])
    except ValueError as exc:
        raise MalformedFileError(f"{path}: ways/shots must be integers") from exc
    base = dio.load_dataset(pairs["base"])
    test = dio.load_dataset(pairs["test"])
    sessions = [dio.load_dataset(pairs[key]) for _, key in sorted(session_keys)]
    return dio.SessionStream(base, sessions, ways, shots, test)


def _resolve_stream(cfg: RunConfig) -> dio.SessionStream:
    if cfg.stream_manifest:
        return _parse_manifest(cfg.stream_manifest)
    dataset = _resolve_dataset(cfg)
    return dio.split_fscil(
        dataset,
        base_classes=cfg.base_classes,
        ways=cfg.ways,
        shots=cfg.shots,
        per_class_cap=cfg.per_class_cap,
        test_per_class=cfg.test_per_class,
        seed=cfg.seed,
        sessions=None if cfg.sessions < 0 else cfg.sessions,
    )


def cmd_pretrain(cfg: RunConfig, stage) -> int:
    base = _resolve_stream(cfg).base
    params, history = pretrain_model(base, cfg.recipe())
    save_params(params, stage(cfg.params_out))
    _write_csv(stage(cfg.history_out), ("epoch", "ce", "ortho", "accuracy"), history)
    print(f"pretrained {cfg.pretrain_epochs} epochs -> {cfg.params_out}")
    return 0


def cmd_metalearn(cfg: RunConfig, stage) -> int:
    params = load_params(cfg.params_in)
    base = _resolve_stream(cfg).base
    _, history = metalearn_model(params, base, cfg.recipe())
    save_params(params, stage(cfg.params_out))
    _write_csv(stage(cfg.history_out), ("iteration", "loss", "accuracy"), history)
    print(f"metalearned {cfg.meta_iterations} iterations -> {cfg.params_out}")
    return 0


def _write_report(path, reports):
    n_sessions = len(reports[0][1].session_accuracies)
    header = ["config"] + [f"session_{t}" for t in range(n_sessions)] + ["avg"]
    _write_csv(path, header, [[lbl, *rep.session_accuracies, rep.average] for lbl, rep in reports])


def cmd_protocol(cfg: RunConfig, stage) -> int:
    params = load_params(cfg.params_in)
    stream = _resolve_stream(cfg)
    recipe = cfg.recipe()
    report = run_protocol(params, stream, recipe.quant, recipe.finetune if cfg.finetune else None)
    label = f"pb{cfg.prototype_bits}" + ("+FT" if cfg.finetune else "")
    _write_report(stage(cfg.report_out), [(label, report)])
    print(f"protocol avg accuracy {report.average:.4f} -> {cfg.report_out}")
    return 0


def cmd_sweep(cfg: RunConfig, stage) -> int:
    params = load_params(cfg.params_in)
    stream = _resolve_stream(cfg)
    require_test_rows(stream)
    em, _ = build_base_em(params, stream.base, cfg.recipe().quant)
    for session in stream.sessions:
        learn_dataset(em, None, params, session)
    feats = extract_features(params, stream.test)
    points = precision_sweep(em, feats, stream.test.labels, cfg.sweep_bits)
    rows = [(p.bits, p.memory_bytes / 1000.0, p.accuracy) for p in points]
    _write_csv(stage(cfg.sweep_out), ("bits", "kilobytes", "accuracy"), rows)
    print(f"swept {len(rows)} bit widths -> {cfg.sweep_out}")
    return 0


def cmd_ablate(cfg: RunConfig, stage) -> int:
    stream = _resolve_stream(cfg)
    rows = []
    for token in cfg.ablate_rows.split(";"):
        token = token.strip()
        if not token or token.lower() == "none":
            rows.append(frozenset())
        else:
            rows.append(frozenset(f.strip().upper() for f in token.split(",")))
    reports = ablation_matrix(stream, rows, cfg.recipe())
    _write_report(stage(cfg.ablation_out), reports)
    print(f"ablated {len(reports)} rows -> {cfg.ablation_out}")
    return 0


def cmd_validate(cfg: RunConfig, _stage) -> int:
    stream = _resolve_stream(cfg)
    violations = validate_stream(stream)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("stream ok")
    return 0


def cmd_learn_class(cfg: RunConfig, stage) -> int:
    params = load_params(cfg.params_in)
    dataset = _resolve_dataset(cfg)
    if not 0 <= cfg.class_id < 2**32:
        raise ConfigError("learn-class requires class_id=<id in [0, 2**32)>")
    rows = dataset.indices_of(cfg.class_id)
    quant = cfg.recipe().quant
    em = load_em(cfg.em_in) if cfg.em_in else ExplicitMemory(params.d_p, quant)
    if em.quant.prototype_bits != quant.prototype_bits:
        raise ConfigError(
            f"{cfg.em_in} stores {em.quant.prototype_bits}-bit prototypes, "
            f"prototype_bits is {quant.prototype_bits}"
        )
    em.quant = quant  # a snapshot keeps only its width; the config sets the rest
    learn_class(em, None, params, dataset.inputs[rows], cfg.class_id)
    save_em(em, stage(cfg.em_out))
    print(f"learned class {cfg.class_id} from {len(rows)} shots -> {cfg.em_out}")
    return 0


def cmd_classify(cfg: RunConfig, stage) -> int:
    params = load_params(cfg.params_in)
    em = load_em(cfg.em_in)
    dataset = _resolve_dataset(cfg)
    preds, scores = classify_batch(em, extract_features(params, dataset))
    labels = dataset.labels
    rows = zip(range(len(labels)), labels.tolist(), preds.tolist(), scores.max(axis=1).tolist())
    _write_csv(stage(cfg.predictions_out), ("index", "label", "predicted", "score"), rows)
    hits = int(np.count_nonzero(preds == labels))
    print(f"classified {len(labels)} samples, accuracy {hits / len(labels):.4f}")
    return 0


_HANDLERS = {
    "pretrain": cmd_pretrain,
    "metalearn": cmd_metalearn,
    "protocol": cmd_protocol,
    "sweep": cmd_sweep,
    "ablate": cmd_ablate,
    "validate": cmd_validate,
    "learn-class": cmd_learn_class,
    "classify": cmd_classify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protomem",
        description="Few-shot class-incremental learning with a prototype memory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", default=None, help="key=value config file")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help=f"override any config key ({', '.join(sorted(DEFAULTS))})",
        )
    return parser


def _check_data_source(command: str, cfg: RunConfig):
    """Refuse a data-source key that the command would ignore: learn-class
    and classify read one dataset, a manifest names its own files (read as
    `auto`), and dataset_format applies to dataset= alone. Without
    dataset=, learn-class and classify read per_class_cap + test_per_class
    synthetic rows of each class, sizes that split_fscil checks for the
    other commands."""
    one_dataset = command in ("learn-class", "classify")
    if cfg.stream_manifest and one_dataset:
        raise ConfigError(f"{command} reads dataset= or synthetic data, not stream_manifest=")
    if cfg.stream_manifest and cfg.dataset:
        raise ConfigError("set dataset= or stream_manifest=, not both")
    if cfg.dataset_format != "auto" and not cfg.dataset:
        raise ConfigError(f"dataset_format={cfg.dataset_format} needs dataset=")
    if one_dataset and not cfg.dataset and (cfg.per_class_cap < 1 or cfg.test_per_class < 0):
        raise ConfigError(
            f"per_class_cap must be >= 1 and test_per_class >= 0, "
            f"got {cfg.per_class_cap} and {cfg.test_per_class}"
        )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        _check_data_source(args.command, cfg)
        with _staged_outputs() as stage:
            return _HANDLERS[args.command](cfg, stage)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ProtomemError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
