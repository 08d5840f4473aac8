"""Command-line surface for scripted experiments: command glue only.

Each command reads a `RunConfig`, builds its library settings with
`RunConfig.recipe`, reads data through `data.load_dataset` and calls
the library. Exit codes follow the error class: 0 success,
1 validation violations, 2 `ConfigError` ("config error:"),
3 any other `ProtomemError` or `OSError` ("data error:"),
4 `NumericFailureError` ("numeric failure:"). Every command is
deterministic given the same config and seed; reruns produce
byte-identical artifacts.
"""

import argparse
import sys

import numpy as np

from . import data as dio
from .backbone import load_params, save_params
from .config import DEFAULTS, RunConfig, load_config, parse_kv_file
from .errors import ConfigError, NumericFailureError, ProtomemError
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
from .memory import ActivationMemory, ExplicitMemory, classify_batch, precision_sweep
from .memory import load_actmem, load_em, save_actmem, save_em
from .offline import build_base_em
from .online import check_aligned, learn_class, learn_dataset


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
    pairs = parse_kv_file(path)
    for key in ("base", "test", "ways", "shots"):
        if key not in pairs:
            raise ConfigError(f"{path}: manifest is missing {key!r}")
    session_keys = []
    for key in pairs:
        if key.startswith("session"):
            suffix = key[len("session") :]
            if not suffix.isdigit():
                raise ConfigError(f"{path}: bad session key {key!r}")
            session_keys.append((int(suffix), key))
        elif key not in ("base", "test", "ways", "shots"):
            raise ConfigError(f"{path}: unknown manifest key {key!r}")
    try:
        ways = int(pairs["ways"])
        shots = int(pairs["shots"])
    except ValueError as exc:
        raise ConfigError(f"{path}: ways/shots must be integers") from exc
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


def cmd_pretrain(cfg: RunConfig) -> int:
    base = _resolve_stream(cfg).base
    params, history = pretrain_model(base, cfg.recipe())
    save_params(params, cfg.params_out)
    _write_csv(cfg.history_out, ("epoch", "ce", "ortho", "accuracy"), history)
    print(f"pretrained {cfg.pretrain_epochs} epochs -> {cfg.params_out}")
    return 0


def cmd_metalearn(cfg: RunConfig) -> int:
    params = load_params(cfg.params_in)
    base = _resolve_stream(cfg).base
    _, history = metalearn_model(params, base, cfg.recipe())
    save_params(params, cfg.params_out)
    _write_csv(cfg.history_out, ("iteration", "loss", "accuracy"), history)
    print(f"metalearned {cfg.meta_iterations} iterations -> {cfg.params_out}")
    return 0


def _write_report(path, reports):
    n_sessions = len(reports[0][1].session_accuracies)
    header = ["config"] + [f"session_{t}" for t in range(n_sessions)] + ["avg"]
    _write_csv(path, header, [[lbl, *rep.session_accuracies, rep.average] for lbl, rep in reports])


def cmd_protocol(cfg: RunConfig) -> int:
    params = load_params(cfg.params_in)
    stream = _resolve_stream(cfg)
    recipe = cfg.recipe()
    report = run_protocol(params, stream, recipe.quant, recipe.finetune if cfg.finetune else None)
    label = f"pb{cfg.prototype_bits}" + ("+FT" if cfg.finetune else "")
    _write_report(cfg.report_out, [(label, report)])
    print(f"protocol avg accuracy {report.average:.4f} -> {cfg.report_out}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    params = load_params(cfg.params_in)
    stream = _resolve_stream(cfg)
    require_test_rows(stream)
    em, _ = build_base_em(params, stream.base, cfg.recipe().quant)
    for session in stream.sessions:
        learn_dataset(em, None, params, session)
    feats = extract_features(params, stream.test)
    points = precision_sweep(em, feats, stream.test.labels, cfg.sweep_bits)
    rows = [(p.bits, p.memory_bytes / 1000.0, p.accuracy) for p in points]
    _write_csv(cfg.sweep_out, ("bits", "kilobytes", "accuracy"), rows)
    print(f"swept {len(rows)} bit widths -> {cfg.sweep_out}")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    stream = _resolve_stream(cfg)
    rows = []
    for token in cfg.ablate_rows.split(";"):
        token = token.strip()
        if not token or token.lower() == "none":
            rows.append(frozenset())
        else:
            rows.append(frozenset(f.strip().upper() for f in token.split(",")))
    reports = ablation_matrix(stream, rows, cfg.recipe())
    _write_report(cfg.ablation_out, reports)
    print(f"ablated {len(reports)} rows -> {cfg.ablation_out}")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    stream = _resolve_stream(cfg)
    violations = validate_stream(stream)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("stream ok")
    return 0


def cmd_learn_class(cfg: RunConfig) -> int:
    # an activation memory is kept only when actmem_in or actmem_out is set,
    # and one that is read is written back, so that the pair stays aligned
    if cfg.actmem_in and not cfg.actmem_out:
        raise ConfigError("actmem_in needs actmem_out, so that both memories learn the class")
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
    act_mem = None
    if cfg.actmem_in:
        act_mem = load_actmem(cfg.actmem_in)
        if cfg.em_in:
            check_aligned(em, act_mem)
    elif cfg.actmem_out:
        act_mem = ActivationMemory(params.d_a)
    learn_class(em, act_mem, params, dataset.inputs[rows], cfg.class_id)
    save_em(em, cfg.em_out)
    if act_mem is not None:
        save_actmem(act_mem, cfg.actmem_out)
    print(f"learned class {cfg.class_id} from {len(rows)} shots -> {cfg.em_out}")
    return 0


def cmd_classify(cfg: RunConfig) -> int:
    params = load_params(cfg.params_in)
    em = load_em(cfg.em_in)
    dataset = _resolve_dataset(cfg)
    preds, scores = classify_batch(em, extract_features(params, dataset))
    labels = dataset.labels
    rows = zip(range(len(labels)), labels.tolist(), preds.tolist(), scores.max(axis=1).tolist())
    _write_csv(cfg.predictions_out, ("index", "label", "predicted", "score"), rows)
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
    and classify read one dataset, and a manifest names its own files."""
    if cfg.stream_manifest and command in ("learn-class", "classify"):
        raise ConfigError(f"{command} reads dataset= or synthetic data, not stream_manifest=")
    if cfg.stream_manifest and cfg.dataset:
        raise ConfigError("set dataset= or stream_manifest=, not both")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        _check_data_source(args.command, cfg)
        return _HANDLERS[args.command](cfg)
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
