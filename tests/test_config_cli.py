import ast
import copy
import pickle
import re
import shutil
import struct
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from helpers import TINY, make_points_dataset, save_dataset_csv
from protomem.backbone import init_model, load_params, params_checksum, save_params
from protomem import errors
from protomem.config import DEFAULTS, ENV_SEED, RECIPE_KEYS, load_config
from protomem.data import DATASET_FORMATS, LabeledDataset, load_dataset, save_dataset
from protomem.errors import (
    ConfigError,
    ConflictingFlagsError,
    LayerWidthError,
    MalformedFileError,
    NumericFailureError,
    SettingValueError,
)
from protomem.harness import TrainRecipe, make_blob_dataset, train_pipeline
from protomem.memory import load_em
from protomem import cli, offline


def tiny_overrides(tmp_path, **extra):
    items = dict(TINY)
    items.update(extra)
    items.setdefault("params_out", str(tmp_path / "params.ofsc"))
    items.setdefault("history_out", str(tmp_path / "history.csv"))
    items.setdefault("report_out", str(tmp_path / "report.csv"))
    items.setdefault("sweep_out", str(tmp_path / "sweep.csv"))
    items.setdefault("ablation_out", str(tmp_path / "ablation.csv"))
    items.setdefault("predictions_out", str(tmp_path / "pred.csv"))
    items.setdefault("em_out", str(tmp_path / "em.ofem"))
    return [f"{k}={v}" for k, v in items.items()]


def without_grid(argv):
    """CLI overrides with no grid=, so the cutmix grid is inferred."""
    return [item for item in argv if not item.startswith("grid=")]


def write_cifar_batch(path, fine_labels, seed=3):
    """One CIFAR100 binary record of random pixels per fine label."""
    rng = np.random.default_rng(seed)
    path.write_bytes(b"".join(
        bytes([0, fine]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
        for fine in fine_labels
    ))


def novel_test_stream(tmp_path):
    """A stream manifest whose test set holds only the novel class 3, and an
    untrained params.ofsc beside it; returns the manifest path."""
    ds = make_blob_dataset(4, 6, grid=TINY["grid"], seed=2)
    for name, classes in (("base", [0, 1, 2]), ("s1", [3]), ("test", [3])):
        save_dataset(ds.subset_by_classes(classes), tmp_path / f"{name}.ofds")
    manifest = tmp_path / "stream.cfg"
    manifest.write_text(
        f"base={tmp_path / 'base.ofds'}\n"
        f"test={tmp_path / 'test.ofds'}\n"
        f"session1={tmp_path / 's1.ofds'}\n"
        "ways=1\nshots=6\n"
    )
    save_params(init_model([TINY["grid"] ** 2, 16, 12, 6], seed=0), tmp_path / "params.ofsc")
    return manifest


class TestConfigDefaults:
    def test_defaults_match_owning_modules(self):
        # every leaf field of TrainRecipe but the cutmix grid has exactly one
        # key, whose default is the one the owning dataclass declares
        recipe = TrainRecipe()
        owned = {}
        for top in fields(recipe):
            value = getattr(recipe, top.name)
            if is_dataclass(value):
                owner = type(value)()
                owned.update(
                    {f"{top.name}.{f.name}": getattr(owner, f.name) for f in fields(owner)}
                )
            else:
                owned[top.name] = value
        del owned["grid"]
        assert sorted(field for _, field in RECIPE_KEYS.values()) == sorted(owned)
        cfg = load_config()
        for key, (_, field) in RECIPE_KEYS.items():
            assert getattr(cfg, key) == owned[field], key

    def test_cli_default_recipe_is_train_recipe(self):
        assert load_config().recipe() == TrainRecipe()

    def test_only_the_default_grid_gives_way_to_inference(self, tmp_path):
        assert load_config().recipe().grid is None
        assert load_config(overrides=["grid=3"]).recipe().grid == (3, 3)
        assert load_config(overrides=["grid=16"]).recipe().grid == (16, 16)
        path = tmp_path / "run.cfg"
        path.write_text("grid=3\n")
        assert load_config(path).recipe().grid == (3, 3)

    def test_every_key_is_read_in_src(self):
        # a RECIPE_KEYS row reaches the library through RunConfig.recipe
        # (test_recipe_key_sets_its_field); every other key is read as an
        # attribute of a `RunConfig` parameter of some function in src/,
        # and every such attribute is a key or a RunConfig method
        read = set()
        for path in Path(cli.__file__).parent.glob("*.py"):
            for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(func, ast.FunctionDef):
                    continue
                args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
                configs = {
                    a.arg for a in args
                    if isinstance(a.annotation, ast.Name) and a.annotation.id == "RunConfig"
                }
                read |= {
                    node.attr
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in configs
                }
        assert set(RECIPE_KEYS) <= set(DEFAULTS)
        assert sorted(set(DEFAULTS) - set(RECIPE_KEYS) - read) == []
        assert sorted(read - set(DEFAULTS) - {"recipe", "dump"}) == []

    def test_every_export_is_read_in_src_or_benchmarks(self):
        # a name the package exports is read by one of its modules outside
        # its own definition, or named by the benchmark. save_dataset stays
        # although only tests call it: it is the reference writer of OFDS,
        # the binary dataset format that the README documents
        src = Path(cli.__file__).parent
        init = ast.parse((src / "__init__.py").read_text(encoding="utf-8"))
        exported = {
            alias.asname or alias.name
            for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        read = set()
        for path in src.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                read |= {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                } - {getattr(stmt, "name", None)}  # a top-level def reading itself
        for path in (src.parents[1] / "benchmarks").glob("*.py"):
            read |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
        assert sorted(exported - read) == ["save_dataset"]

    NON_DEFAULT = dict(
        seed="11", hidden="20,10", d_p="5", pretrain_epochs="3", pretrain_lr="0.5",
        batch_size="8", lambda_ortho="0.3", mix_probability="0.2", mix_alpha="2.0",
        margin="0.2", meta_samples="3", meta_iterations="7", meta_lr="0.02", query_batch="16",
        meta_objective="ce", finetune_epochs="4",
        finetune_sub_batch="2", finetune_lr="0.05", feature_bits="6", accum_bits="40",
        prototype_bits="12", max_shots="128",
    )

    @pytest.mark.parametrize("key", sorted(RECIPE_KEYS))
    def test_recipe_key_sets_its_field(self, key):
        def fields(recipe):
            flat = {}
            for name, value in asdict(recipe).items():
                if isinstance(value, dict):
                    flat.update({f"{name}.{k}": v for k, v in value.items()})
                else:
                    flat[name] = value
            return flat

        cfg = load_config(overrides=[f"{key}={self.NON_DEFAULT[key]}"])
        default, changed = fields(load_config().recipe()), fields(cfg.recipe())
        field = RECIPE_KEYS[key][1]
        assert changed[field] == getattr(cfg, key) != default[field]
        assert {f for f in changed if changed[f] != default[f]} == {field}

    def test_dump_round_trips(self, tmp_path):
        cfg = load_config()
        path = tmp_path / "dump.cfg"
        path.write_text(cfg.dump())
        again = load_config(path)
        assert again.dump() == cfg.dump()

    def test_dump_writes_only_the_keys_a_run_set(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        assert load_config().dump() == ""
        assert load_config(overrides=["seed=3", "grid=16"]).dump() == "grid=16\nseed=3\n"

    @pytest.mark.parametrize("case", ["default", "overrides", "file", "env"])
    def test_dump_reloads_the_same_run(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv(ENV_SEED, raising=False)
        path = None
        if case == "file":
            path = tmp_path / "run.cfg"
            path.write_text("grid=3\n")
        elif case == "env":
            monkeypatch.setenv(ENV_SEED, "11")
        cfg = load_config(path, ["grid=16", "seed=3"] if case == "overrides" else ())
        dumped = tmp_path / "dump.cfg"
        dumped.write_text(cfg.dump())
        monkeypatch.delenv(ENV_SEED, raising=False)
        again = load_config(dumped)
        for key in DEFAULTS:
            assert getattr(again, key) == getattr(cfg, key), key
        assert again.recipe() == cfg.recipe()
        assert again.dump() == cfg.dump()

    def test_readme_headline_defaults_match(self):
        # README's table is a second copy of these defaults; keep it honest
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Headline defaults\n\n", 1)[1].split("\n\n", 1)[0]
        cells = [
            cell.strip()
            for line in table.splitlines()[2:]
            for cell in line.strip().strip("|").split("|")
        ]
        pairs = dict(zip(cells[::2], cells[1::2]))
        assert len(pairs) >= 10
        for key, text in pairs.items():
            parser, default = DEFAULTS[key.strip("`")]
            assert parser(text) == default, key

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["no_such_key=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["seed=banana"])

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery=1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line without equals\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "4242")
        cfg = load_config(overrides=["seed=1"])
        assert cfg.seed == 4242

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\nseed=12\n")
        assert load_config(path).seed == 12

    @pytest.mark.parametrize("case", ["default", "overrides", "file", "env"])
    def test_copy_and_pickle_keep_the_run(self, tmp_path, monkeypatch, case):
        monkeypatch.delenv(ENV_SEED, raising=False)
        path = None
        if case == "file":
            path = tmp_path / "run.cfg"
            path.write_text("grid=16\nmeta_objective=ce\n")
        elif case == "env":
            monkeypatch.setenv(ENV_SEED, "11")
        cfg = load_config(path, ["seed=3"] if case == "overrides" else ())
        monkeypatch.delenv(ENV_SEED, raising=False)
        for again in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert again.dump() == cfg.dump()
            assert again.recipe() == cfg.recipe()
            for key in DEFAULTS:
                assert getattr(again, key) == getattr(cfg, key), key

    def test_every_default_parses_its_own_dump(self):
        cfg = load_config()
        for key, (parser, default) in DEFAULTS.items():
            val = getattr(cfg, key)
            assert val == default


class TestCliCommands:
    def test_pretrain_produces_loadable_params(self, tmp_path):
        code = cli.main(["pretrain", *tiny_overrides(tmp_path)])
        assert code == 0
        params = load_params(tmp_path / "params.ofsc")
        assert params.d_p == TINY["d_p"]
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,ce,ortho,accuracy"
        assert len(history) == 1 + TINY["pretrain_epochs"]

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code = cli.main([
            "pretrain",
            *tiny_overrides(tmp_path, dataset=str(tmp_path / "missing.ofds")),
        ])
        assert code == 3
        assert "missing.ofds" in capsys.readouterr().err

    def test_nan_divergence_exits_4(self, tmp_path):
        with np.errstate(all="ignore"):
            code = cli.main([
                "pretrain",
                *tiny_overrides(tmp_path, pretrain_lr=1e6, pretrain_epochs=30),
            ])
        assert code == 4

    def test_unknown_key_exits_2(self, tmp_path):
        assert cli.main(["pretrain", "bogus=1"]) == 2

    @pytest.mark.parametrize(
        "exc_type",
        [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
        + [OSError],
        ids=lambda c: c.__name__,
    )
    def test_exit_code_follows_error_class(self, monkeypatch, capsys, exc_type):
        def handler(cfg, stage):
            raise exc_type("boom")

        monkeypatch.setitem(cli._HANDLERS, "validate", handler)
        code = cli.main(["validate"])
        err = capsys.readouterr().err
        if issubclass(exc_type, ConfigError):
            assert (code, err) == (2, "config error: boom\n")
        elif issubclass(exc_type, NumericFailureError):
            assert (code, err) == (4, "numeric failure: boom\n")
        else:
            assert (code, err) == (3, "data error: boom\n")

    def test_flag_and_setting_errors_exit_2(self):
        # the exit-code guard above then holds each of them to exit 2
        for exc_type in (ConflictingFlagsError, SettingValueError, LayerWidthError):
            assert issubclass(exc_type, ConfigError)

    def test_full_chain_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for out in (a, b):
            assert cli.main(["pretrain", *tiny_overrides(out)]) == 0
            assert cli.main([
                "metalearn",
                *tiny_overrides(out, params_in=str(out / "params.ofsc"),
                                params_out=str(out / "meta.ofsc"),
                                history_out=str(out / "meta_history.csv")),
            ]) == 0
            assert cli.main([
                "protocol",
                *tiny_overrides(out, params_in=str(out / "meta.ofsc")),
            ]) == 0
            assert cli.main([
                "sweep",
                *tiny_overrides(out, params_in=str(out / "meta.ofsc")),
            ]) == 0
        for name in ("params.ofsc", "meta.ofsc", "meta_history.csv",
                     "report.csv", "sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_metalearn_matches_train_pipeline(self, tmp_path):
        # the CLI chain and an ablation row seed metalearning alike
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert cli.main([
            "metalearn",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            params_out=str(tmp_path / "meta.ofsc")),
        ]) == 0
        cfg = load_config(overrides=tiny_overrides(tmp_path))
        stream = cli._resolve_stream(cfg)
        params, _ = train_pipeline(stream, cfg.recipe(), {"AG", "OR", "MM"})
        assert params_checksum(load_params(tmp_path / "meta.ofsc")) == params_checksum(params)

    def test_sweep_emits_requested_rows(self, tmp_path):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert cli.main([
            "sweep",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc")),
        ]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "bits,kilobytes,accuracy"
        assert len(rows) == 1 + 8
        assert [r.split(",")[0] for r in rows[1:]] == ["8", "7", "6", "5", "4", "3", "2", "1"]

    def test_protocol_finetune_marker(self, tmp_path):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert cli.main([
            "protocol",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            finetune="true"),
        ]) == 0
        report = (tmp_path / "report.csv").read_text()
        assert "+FT" in report

    @pytest.mark.parametrize("command", ["pretrain", "ablate"])
    @pytest.mark.parametrize(
        "key,value",
        [("pretrain_epochs", 0), ("pretrain_epochs", -3), ("pretrain_lr", -1), ("pretrain_lr", 0)],
    )
    def test_pretrain_schedule_out_of_range_exits_2(self, tmp_path, capsys, command, key, value):
        assert cli.main([command, *tiny_overrides(tmp_path, **{key: value})]) == 2
        assert "epochs >= 1 and lr > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["learn-class", "classify"])
    def test_manifest_refused_where_one_dataset_is_read(self, tmp_path, capsys, command):
        manifest = novel_test_stream(tmp_path)
        params = str(tmp_path / "params.ofsc")
        assert cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=params, dataset=str(tmp_path / "base.ofds"),
                            class_id=0),
        ]) == 0
        out = tmp_path / "out"
        out.mkdir()
        argv = tiny_overrides(out, params_in=params, em_in=str(tmp_path / "em.ofem"),
                              stream_manifest=str(manifest), class_id=1)
        assert cli.main([command, *argv]) == 2
        assert "not stream_manifest" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "command", ["pretrain", "metalearn", "protocol", "sweep", "ablate", "validate"]
    )
    def test_dataset_beside_a_manifest_exits_2(self, tmp_path, capsys, command):
        manifest = novel_test_stream(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        argv = tiny_overrides(out, params_in=str(tmp_path / "params.ofsc"),
                              stream_manifest=str(manifest), dataset=str(tmp_path / "base.ofds"))
        assert cli.main([command, *argv]) == 2
        assert "not both" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_validate_ok(self, tmp_path):
        assert cli.main(["validate", *tiny_overrides(tmp_path)]) == 0

    def test_validate_violations_exit_1(self, tmp_path, capsys):
        ds = make_blob_dataset(3, 6, grid=4, seed=1)
        base = ds.subset_by_classes([0, 1])
        dup = ds.subset_by_classes([1])  # class 1 appears twice
        save_dataset(base, tmp_path / "base.ofds")
        save_dataset(dup, tmp_path / "s1.ofds")
        save_dataset(ds, tmp_path / "test.ofds")
        manifest = tmp_path / "stream.cfg"
        manifest.write_text(
            f"base={tmp_path / 'base.ofds'}\n"
            f"test={tmp_path / 'test.ofds'}\n"
            f"session1={tmp_path / 's1.ofds'}\n"
            "ways=1\nshots=6\n"
        )
        code = cli.main(["validate", f"stream_manifest={manifest}"])
        assert code == 1
        assert "class 1" in capsys.readouterr().out

    @pytest.mark.parametrize("env", [False, True], ids=["key", "env"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, env):
        if env:
            monkeypatch.setenv(ENV_SEED, "-3")
        argv = tiny_overrides(tmp_path, **({} if env else {"seed": -1}))
        assert cli.main(["pretrain", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and (ENV_SEED if env else "'seed'") in err
        assert "seed must be >= 0" in err
        assert list(tmp_path.iterdir()) == []

    # a valid first line, then a byte that starts no UTF-8 sequence
    NOT_UTF8 = b"seed=5\n\xff\xfe=1\n"

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(self.NOT_UTF8)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["pretrain", "-c", str(path), *tiny_overrides(out)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: not UTF-8 text\n"
        assert list(out.iterdir()) == []

    def test_csv_not_utf8_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,f0,f1\n0,0.5,\xff\n")
        assert cli.main(["validate", f"dataset={path}"]) == 3
        assert capsys.readouterr().err == f"data error: {path}: not UTF-8 text\n"

    def test_learn_class_and_classify(self, tmp_path):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        ds = make_blob_dataset(TINY["classes"], 6, grid=TINY["grid"], seed=9)
        shots = ds.take(ds.indices_of(0)[:3])
        save_dataset(shots, tmp_path / "shots.ofds")
        assert cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            dataset=str(tmp_path / "shots.ofds"), class_id=0),
        ]) == 0
        em = load_em(tmp_path / "em.ofem")
        assert em.class_ids() == [0]
        assert em.get(0).count == 3
        assert cli.main([
            "classify",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            em_in=str(tmp_path / "em.ofem"),
                            dataset=str(tmp_path / "shots.ofds")),
        ]) == 0
        pred = (tmp_path / "pred.csv").read_text().splitlines()
        assert pred[0] == "index,label,predicted,score"
        assert len(pred) == 4

    def learn_from_file(self, tmp_path, class_id, em_out, **extra):
        ds = make_blob_dataset(TINY["classes"], 4, grid=TINY["grid"], seed=9)
        path = tmp_path / f"class{class_id}.ofds"
        save_dataset(ds.take(ds.indices_of(class_id)), path)
        return cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            dataset=str(path), class_id=class_id,
                            em_out=str(tmp_path / em_out), **extra),
        ])

    def test_learn_class_from_snapshot_keeps_config_quantization(self, tmp_path):
        # a class learned into a reloaded memory is stored as it would be
        # in a fresh memory with the same quantization keys
        quant = dict(feature_bits=4, prototype_bits=6, accum_bits=16, max_shots=4)
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert self.learn_from_file(tmp_path, 0, "first.ofem", **quant) == 0
        assert self.learn_from_file(
            tmp_path, 1, "continued.ofem", em_in=str(tmp_path / "first.ofem"), **quant
        ) == 0
        assert self.learn_from_file(tmp_path, 1, "fresh.ofem", **quant) == 0
        continued = load_em(tmp_path / "continued.ofem")
        fresh = load_em(tmp_path / "fresh.ofem")
        assert continued.class_ids() == [0, 1]
        assert continued.get(1).quantized.tolist() == fresh.get(1).quantized.tolist()

    def test_learn_class_snapshot_width_mismatch_exits_2(self, tmp_path, capsys):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert self.learn_from_file(tmp_path, 0, "first.ofem", prototype_bits=6) == 0
        assert self.learn_from_file(
            tmp_path, 1, "next.ofem", em_in=str(tmp_path / "first.ofem"), prototype_bits=8
        ) == 2
        assert "6-bit prototypes, prototype_bits is 8" in capsys.readouterr().err

    def test_invalid_values_exit_2(self, tmp_path, capsys):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path, margin=-1)]) == 2
        assert "margin must be positive" in capsys.readouterr().err
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        ds = make_blob_dataset(2, 3, grid=TINY["grid"], seed=0)
        save_dataset(ds, tmp_path / "d.ofds")
        code = cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            dataset=str(tmp_path / "d.ofds"), class_id=0, feature_bits=1),
        ])
        assert code == 2
        assert "feature_bits" in capsys.readouterr().err

    def test_non_reducing_projection_exits_2(self, tmp_path, capsys):
        code = cli.main(["pretrain", *tiny_overrides(tmp_path, hidden="16,12", d_p=12)])
        assert code == 2
        assert "config error: d_p (12) must be < d_a (12)" in capsys.readouterr().err

    def test_zero_batch_size_exits_2(self, tmp_path, capsys):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path, batch_size=0)]) == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("pretrain", "ways", 0),
        ("pretrain", "shots", 0),
        ("pretrain", "data_noise", -1),
        ("pretrain", "dataset_format", "bogus"),
        ("pretrain", "grid", 0),
        ("pretrain", "d_p", 0),
        ("pretrain", "hidden", "0,12"),
        ("ablate", "feature_bits", 1),
        ("pretrain", "per_class_cap", 0),
        ("pretrain", "classes", 0),
    ])
    def test_bad_setting_exits_2(self, tmp_path, capsys, command, key, value):
        extra = {key: value}
        if key == "dataset_format":
            extra["dataset"] = str(tmp_path / "d.ofds")
        assert cli.main([command, *tiny_overrides(tmp_path, **extra)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_unknown_dataset_format_exits_2_without_a_dataset(self, tmp_path, capsys, command):
        # the value is checked when the config is parsed, so a command that
        # reads synthetic blobs refuses it too
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, *tiny_overrides(out, dataset_format="x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "unknown dataset format 'x'" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_a_dataset_format_other_than_auto_needs_a_dataset(self, tmp_path, capsys, command):
        # synthetic blobs and a manifest's files, read as auto, would ignore it
        manifest = novel_test_stream(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        sources = [{}]
        if command not in ("learn-class", "classify"):  # which refuse a manifest
            sources.append({"stream_manifest": manifest})
        for fmt in DATASET_FORMATS:
            for source in sources:
                argv = tiny_overrides(out, params_in=tmp_path / "params.ofsc", class_id=3,
                                      dataset_format=fmt, **source)
                code, err = cli.main([command, *argv]), capsys.readouterr().err
                if fmt == "auto":
                    assert not err.startswith("config error"), err
                else:
                    want = f"config error: dataset_format={fmt} needs dataset=\n"
                    assert (code, err) == (2, want)
                for path in out.iterdir():
                    assert fmt == "auto", path
                    path.unlink()

    @pytest.mark.parametrize("command", ["learn-class", "classify"])
    @pytest.mark.parametrize(
        "key,value", [("per_class_cap", 0), ("per_class_cap", -1), ("test_per_class", -1)]
    )
    def test_synthetic_class_size_out_of_range_exits_2(
        self, sweep_inputs, tmp_path, capsys, command, key, value
    ):
        # synthetic rows are per_class_cap + test_per_class per class: -1 + 3
        # would learn or classify 2 rows a class, and 8 - 1 would give 7
        argv = tiny_overrides(
            tmp_path, params_in=sweep_inputs / "params.ofsc", em_in=sweep_inputs / "em.ofem",
            class_id=1, prototype_bits=3, **{key: value},
        )
        assert cli.main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "per_class_cap must be >= 1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", sorted(k for k, (_, default) in DEFAULTS.items() if isinstance(default, float))
    )
    def test_non_finite_float_exits_2(self, tmp_path, capsys, key, value):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path, **{key: value})]) == 2
        assert f"bad value for '{key}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["protocol", "sweep", "ablate"])
    def test_empty_test_set_exits_2(self, tmp_path, capsys, command):
        trained, out = tmp_path / "trained", tmp_path / "out"
        trained.mkdir()
        out.mkdir()
        assert cli.main(["pretrain", *tiny_overrides(trained, test_per_class=0)]) == 0
        params = str(trained / "params.ofsc")
        code = cli.main([command, *tiny_overrides(out, params_in=params, test_per_class=0)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "test set is empty" in err
        assert "test_per_class" in err
        assert list(out.iterdir()) == []

    def test_test_set_without_base_rows_exits_3(self, tmp_path, capsys):
        manifest = novel_test_stream(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main([
            "protocol", f"stream_manifest={manifest}",
            f"params_in={tmp_path / 'params.ofsc'}", f"report_out={out / 'report.csv'}",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "base classes [0, 1, 2]" in err
        assert list(out.iterdir()) == []

    def test_test_set_without_base_rows_refused_by_ablate_not_sweep(self, tmp_path, capsys):
        manifest = novel_test_stream(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main(["ablate", f"stream_manifest={manifest}", "hidden=16,12", "d_p=6",
                         "ablate_rows=none", f"ablation_out={out / 'ablation.csv'}"])
        assert code == 3
        assert "base classes [0, 1, 2]" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        # a sweep scores the test rows against every class learned
        code = cli.main(["sweep", f"stream_manifest={manifest}",
                         f"params_in={tmp_path / 'params.ofsc'}", f"sweep_out={out / 'sweep.csv'}"])
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_empty_test_set_legal_without_evaluation(self, tmp_path, capsys):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path, test_per_class=0)]) == 0
        params = str(tmp_path / "params.ofsc")
        extra = dict(params_in=params, test_per_class=0)
        assert cli.main(["metalearn", *tiny_overrides(tmp_path, **extra)]) == 0
        assert cli.main(["validate", *tiny_overrides(tmp_path, test_per_class=0)]) == 1
        assert "has no test samples" in capsys.readouterr().out

    @pytest.mark.parametrize("mix_probability,code", [(0.4, 2), (0.0, 0)])
    def test_non_square_csv_needs_a_cutmix_grid(self, tmp_path, capsys, mix_probability, code):
        # 10 columns: not square, and the default grid=8 does not tile them
        path = tmp_path / "wide10.csv"
        save_dataset_csv(make_points_dataset(TINY["classes"], 11, dim=10, seed=4), path)
        out = tmp_path / "out"
        out.mkdir()
        argv = tiny_overrides(out, dataset=str(path), mix_probability=mix_probability)
        assert cli.main(["pretrain", *argv]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("config error") and "grid" in err and "mix_probability" in err
            assert list(out.iterdir()) == []

    def test_set_grid_that_does_not_tile_exits_2(self, tmp_path, capsys):
        # 64 columns are square, but a grid the run sets is used as set:
        # 3 x 3 cells do not tile them, so no silent 8 x 8 fallback
        path = tmp_path / "wide64.csv"
        save_dataset_csv(make_points_dataset(TINY["classes"], 11, dim=64, seed=4), path)
        out = tmp_path / "out"
        out.mkdir()
        argv = tiny_overrides(out, dataset=str(path), mix_probability=0.4, grid=3)
        assert cli.main(["pretrain", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "grid 3x3" in err and "mix_probability" in err
        assert list(out.iterdir()) == []

    def test_csv_with_no_feature_column_exits_3(self, tmp_path, capsys):
        # a header of just `label` reads as an (N, 0) dataset: a data error,
        # as the binary reader's zero dim is, not a layer width of 0
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "".join(f"{c}\n" for c in list(range(TINY["classes"])) * 11))
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["pretrain", *tiny_overrides(out, dataset=str(path))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "no feature column" in err
        assert list(out.iterdir()) == []

    def test_unset_grid_cuts_a_square_width_on_its_square_grid(self, tmp_path, monkeypatch):
        # 1024 columns are a 32 x 32 image: the 16 x 16 blob default is no cutmix grid of them
        path = tmp_path / "wide1024.ofds"
        save_dataset(make_points_dataset(TINY["classes"], 11, dim=1024, seed=4), path)
        grids, infer = [], offline._cutmix_grid

        def recording(dim, grid):
            grids.append(infer(dim, grid))
            return grids[-1]

        monkeypatch.setattr(offline, "_cutmix_grid", recording)
        argv = without_grid(tiny_overrides(tmp_path, dataset=str(path), mix_probability=0.4))
        assert cli.main(["pretrain", *argv]) == 0
        assert grids == [(32, 32)]

    @pytest.mark.parametrize("grid,code", [(None, 2), (32, 0)])
    def test_cifar_rows_need_a_set_cutmix_grid(self, tmp_path, capsys, grid, code):
        # a 3072-wide CIFAR row is three 32 x 32 planes, not a square
        batch = tmp_path / "batch.bin"
        write_cifar_batch(batch, [c for c in range(TINY["classes"]) for _ in range(11)])
        out = tmp_path / "out"
        out.mkdir()
        argv = tiny_overrides(out, dataset=str(batch), dataset_format="cifar", mix_probability=0.4)
        argv = without_grid(argv) + ([f"grid={grid}"] if grid else [])
        assert cli.main(["pretrain", *argv]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("config error") and "3072 is not square" in err
            assert list(out.iterdir()) == []

    def test_pretrain_batch_size_one(self, tmp_path):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path, batch_size=1)]) == 0

    REMOVED_KEYS = (
        "threads", "right_shift", "prototype_gradient", "synthetic", "actmem_in", "actmem_out"
    )

    def test_removed_keys_are_unknown(self):
        for key in self.REMOVED_KEYS:
            with pytest.raises(ConfigError):
                load_config(overrides=[f"{key}=1"])

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_in_a_config_file_exits_2(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}=true\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["pretrain", "-c", str(path), *tiny_overrides(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"unknown key '{key}'" in err
        assert list(out.iterdir()) == []

    def test_learn_class_beyond_max_shots_exits_2(self, tmp_path, capsys):
        # the synthetic class 1 has per_class_cap + test_per_class = 11 shots
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        code = cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            class_id=1, max_shots=2),
        ])
        assert code == 2
        assert "11 shots exceed the declared max_shots 2" in capsys.readouterr().err
        assert not (tmp_path / "em.ofem").exists()

    @pytest.mark.parametrize("label,value", [("-1", "0.5"), ("x", "0.5"), ("0", "nan")],
                             ids=["negative_label", "text_label", "nan_value"])
    def test_bad_csv_rows_exit_3(self, tmp_path, capsys, label, value):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        params = str(tmp_path / "params.ofsc")
        assert cli.main(["learn-class", *tiny_overrides(tmp_path, params_in=params, class_id=0)]) == 0
        dim = TINY["grid"] ** 2
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(["label"] + [f"f{i}" for i in range(dim)]) + "\n"
            + ",".join([label] + [value] * dim) + "\n"
        )
        code = cli.main([
            "classify",
            *tiny_overrides(tmp_path, params_in=params, em_in=str(tmp_path / "em.ofem"),
                            dataset=str(path)),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error")
        assert not (tmp_path / "pred.csv").exists()

    def test_learn_class_requires_class_id(self, tmp_path):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        ds = make_blob_dataset(2, 3, grid=4, seed=0)
        save_dataset(ds, tmp_path / "d.ofds")
        code = cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            dataset=str(tmp_path / "d.ofds")),
        ])
        assert code == 2

    def test_learn_class_id_outside_u32_exits_2(self, tmp_path, capsys):
        # an id of 2**32 + 5 would be written to the u32 id field as 5
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        ds = make_blob_dataset(1, 3, grid=TINY["grid"], seed=0)
        save_dataset_csv(LabeledDataset(ds.inputs, np.full(3, 2**32 + 5)), tmp_path / "d.csv")
        code = cli.main([
            "learn-class",
            *tiny_overrides(tmp_path, params_in=str(tmp_path / "params.ofsc"),
                            dataset=str(tmp_path / "d.csv"), class_id=2**32 + 5),
        ])
        assert code == 2
        assert "class_id" in capsys.readouterr().err
        assert not (tmp_path / "em.ofem").exists()

    @pytest.mark.parametrize("corruption", ["zero_count", "repeated_id", "trailing_byte"])
    def test_corrupt_snapshot_rows_exit_3(self, tmp_path, capsys, corruption):
        assert cli.main(["pretrain", *tiny_overrides(tmp_path)]) == 0
        assert self.learn_from_file(tmp_path, 0, "one.ofem") == 0
        assert self.learn_from_file(tmp_path, 1, "two.ofem", em_in=tmp_path / "one.ofem") == 0
        snapshot = tmp_path / "two.ofem"
        blob = bytearray(snapshot.read_bytes())
        record = (len(blob) - 24) // 2
        if corruption == "zero_count":
            blob[28:32] = bytes(4)
        elif corruption == "repeated_id":
            blob[24 + record : 28 + record] = blob[24:28]
        else:
            blob += b"\0"
        snapshot.write_bytes(bytes(blob))
        code = self.learn_from_file(tmp_path, 2, "three.ofem", em_in=snapshot)
        assert code == 3
        assert capsys.readouterr().err.startswith(("data error", "error"))
        assert not (tmp_path / "three.ofem").exists()

    def test_learn_class_writes_em_out_alone(self, tmp_path):
        save_params(init_model([TINY["grid"] ** 2, 16, 12, 6], seed=0), tmp_path / "params.ofsc")
        assert self.learn_from_file(tmp_path, 0, "one.ofem") == 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert self.learn_from_file(tmp_path, 1, "two.ofem", em_in=tmp_path / "one.ofem") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "class1.ofds", "two.ofem"])
        assert load_em(tmp_path / "two.ofem").class_ids() == [0, 1]

    def test_env_seed_changes_artifacts(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        assert cli.main(["pretrain", *tiny_overrides(a)]) == 0
        monkeypatch.setenv(ENV_SEED, "777")
        assert cli.main(["pretrain", *tiny_overrides(b)]) == 0
        assert (a / "params.ofsc").read_bytes() != (b / "params.ofsc").read_bytes()

    def test_cifar_ingestion_path(self, tmp_path):
        # two classes x 4 records in the CIFAR batch layout
        batch = tmp_path / "batch.bin"
        write_cifar_batch(batch, (0, 0, 0, 0, 1, 1, 1, 1))
        code = cli.main([
            "validate",
            f"dataset={batch}", "dataset_format=cifar",
            "base_classes=1", "ways=1", "shots=1", "sessions=1",
            "per_class_cap=2", "test_per_class=2", "seed=0",
        ])
        assert code == 0

    @pytest.mark.parametrize("fmt", DATASET_FORMATS)
    def test_every_dataset_format_the_config_accepts_is_read(self, tmp_path, fmt):
        # the config checks dataset_format against the names load_dataset reads
        batch = tmp_path / "batch.bin"
        write_cifar_batch(batch, (0, 0, 0, 0, 1, 1, 1, 1))
        rows = load_dataset(batch, "cifar")
        save_dataset(rows, tmp_path / "d.ofds")
        save_dataset_csv(rows, tmp_path / "d.csv")
        path = {"auto": "d.csv", "raw-binary": "d.ofds", "csv": "d.csv", "cifar": "batch.bin"}[fmt]
        code = cli.main([
            "validate", f"dataset={tmp_path / path}", f"dataset_format={fmt}",
            "base_classes=1", "ways=1", "shots=1", "sessions=1",
            "per_class_cap=2", "test_per_class=2", "seed=0",
        ])
        assert code == 0

    @pytest.mark.parametrize("command", ["learn-class", "classify"])
    def test_class_sizes_are_not_read_beside_a_dataset(self, sweep_inputs, tmp_path, command):
        # with dataset= the file's rows are read as they are
        argv = tiny_overrides(
            tmp_path, params_in=sweep_inputs / "params.ofsc", em_in=sweep_inputs / "em.ofem",
            dataset=sweep_inputs / "data.ofds", class_id=1, prototype_bits=3,
            per_class_cap=-1, test_per_class=-1,
        )
        assert cli.main([command, *argv]) == 0

    def test_ablate_rows(self, tmp_path):
        assert cli.main([
            "ablate",
            *tiny_overrides(tmp_path, ablate_rows="none;AG"),
        ]) == 0
        rows = (tmp_path / "ablation.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("none,")
        assert rows[2].startswith("AG,")


# per file that `classify` reads in the sweep below: its CLI key, the
# file, its library reader and the length of its fixed header
# case: (argument, file, reader, header bytes)
SWEEP_FILES = {
    "params_in": ("params_in", "params.ofsc", load_params, 12),
    "em_in": ("em_in", "em.ofem", load_em, 24),
    "dataset": ("dataset", "data.ofds", load_dataset, 17),
    # the header line; a CSV records no length, so a cut at the end parses
    "csv": ("dataset", "data.csv", load_dataset, None),
}


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """A TINY extractor, the 3-bit memory of one class learned through it,
    and a dataset of that class and the next, binary and CSV."""
    root = tmp_path_factory.mktemp("inputs")
    ds = make_blob_dataset(TINY["classes"], 4, grid=TINY["grid"], seed=9)
    save_dataset(ds.subset_by_classes([0, 1]), root / "data.ofds")
    save_dataset_csv(ds.subset_by_classes([0, 1]), root / "data.csv")
    assert cli.main(["pretrain", *tiny_overrides(root)]) == 0
    assert cli.main([
        "learn-class",
        *tiny_overrides(root, params_in=root / "params.ofsc", dataset=root / "data.ofds",
                        class_id=0, prototype_bits=3),
    ]) == 0
    assert load_em(root / "em.ofem").get(0).scale_shift > 0
    return root


def corruptions(blob: bytes, header: int, cut: bool = True):
    """(what, bytes) for each of the first `header` bytes XORed with 0xFF,
    then for the last byte dropped (if `cut`) and for one byte appended."""
    for at in range(header):
        bad = bytearray(blob)
        bad[at] ^= 0xFF
        yield f"byte {at} flipped", bytes(bad)
    if cut:
        yield "last byte dropped", blob[:-1]
    yield "one byte appended", blob + b"\0"


class TestMalformedFileSweep:
    """Every corrupted input file is a `MalformedFileError` from its reader,
    and exit 3 with no output file from `classify`, which reads it."""

    @pytest.mark.parametrize("case", list(SWEEP_FILES))
    def test_each_corruption_is_refused_and_exits_3(self, sweep_inputs, tmp_path, capsys, case):
        key, name, reader, header = SWEEP_FILES[case]
        pred = tmp_path / "pred.csv"
        blob = (sweep_inputs / name).read_bytes()
        if key == "params_in":  # OFSC's layer table, 9 bytes per layer
            header += 9 * struct.unpack_from("<I", blob, 8)[0]
        if case == "csv":
            header = blob.index(b"\n")
        inputs = {k: sweep_inputs / n for c, (k, n, *_) in SWEEP_FILES.items() if c != "csv"}

        def run(path):
            argv = tiny_overrides(tmp_path, **{**inputs, key: path}, class_id=1, prototype_bits=3)
            return cli.main(["classify", *argv])

        assert run(sweep_inputs / name) == 0  # the intact inputs pass
        pred.unlink()
        capsys.readouterr()
        missed = []
        path = tmp_path / f"bad_{name}"
        for what, bad in corruptions(blob, header, cut=case != "csv"):
            path.write_bytes(bad)
            try:
                reader(path)
                missed.append(f"{what}: {reader.__name__} loads")
            except MalformedFileError:
                pass
            code, err = run(path), capsys.readouterr().err
            if code != 3 or not err.startswith("data error") or pred.exists():
                missed.append(f"{what}: classify exits {code}: {err.strip()}")
        assert missed == []

    def test_swapped_activation_bytes_exit_3(self, sweep_inputs, tmp_path, capsys):
        # OFSC's activation byte is fixed by position, relu (1) below the
        # projection and none (0) at it; a table with the two swapped would
        # run another network than the one trained
        blob = bytearray((sweep_inputs / "params.ofsc").read_bytes())
        n_layers = struct.unpack_from("<I", blob, 8)[0]
        codes = slice(12 + 8, 12 + 9 * n_layers, 9)
        assert list(blob[codes]) == [1] * (n_layers - 1) + [0]
        blob[codes] = bytes([0] * (n_layers - 1) + [1])
        path = tmp_path / "swapped.ofsc"
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError, match="activation codes"):
            load_params(path)
        argv = tiny_overrides(
            tmp_path, params_in=path, em_in=sweep_inputs / "em.ofem", class_id=1, prototype_bits=3
        )
        assert cli.main(["classify", *argv]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {path}: activation codes")
        assert not (tmp_path / "pred.csv").exists()

    # case: (manifest edit, the refusal) on a manifest whose own lines parse
    MANIFEST_CASES = {
        "not UTF-8": (lambda text: text.encode() + b"\xff\xfe=1\n", "not UTF-8 text"),
        "line without =": (lambda text: text + "ways 1\n", "expected key=value"),
        "missing key": (lambda text: text.replace("shots=6\n", ""), "missing 'shots'"),
        "bad session key": (lambda text: text + "session_x=s1.ofds\n", "bad session key"),
        "unknown key": (lambda text: text + "seed=3\n", "unknown manifest key 'seed'"),
        "non-integer ways": (lambda text: text.replace("ways=1", "ways=one"), "must be integers"),
    }

    @pytest.mark.parametrize("case", list(MANIFEST_CASES))
    def test_each_malformed_manifest_exits_3(self, tmp_path, capsys, case):
        # a manifest is a data file like the others, not a config file
        manifest = novel_test_stream(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        argv = ["pretrain", *tiny_overrides(out, stream_manifest=manifest)]
        assert cli.main(argv) == 0  # the intact manifest passes
        for path in out.iterdir():
            path.unlink()
        capsys.readouterr()
        edit, refusal = self.MANIFEST_CASES[case]
        bad = edit(manifest.read_text())
        if isinstance(bad, bytes):
            manifest.write_bytes(bad)
        else:
            manifest.write_text(bad)
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest}") and refusal in err
        assert list(out.iterdir()) == []


# every key but the files a command reads and writes, and the data sources
SWEPT_KEYS = sorted(
    key for key in DEFAULTS
    if not key.endswith(("_in", "_out")) and key not in ("stream_manifest", "dataset")
)
SWEPT_VALUES = ("0", "-1", "1", "2", "x", "nan", "")


class TestKeySweep:
    """Any value of any key makes `learn-class`, `pretrain` or `protocol`
    succeed or exit 2, 3 or 4, and a run that fails writes no file."""

    @pytest.mark.parametrize("command", ["learn-class", "pretrain", "protocol"])
    @pytest.mark.parametrize("key", SWEPT_KEYS)
    def test_each_value_exits_0_to_4_and_a_failure_writes_nothing(
        self, sweep_inputs, tmp_path, monkeypatch, capsys, key, command
    ):
        monkeypatch.delenv(ENV_SEED, raising=False)
        missed = []
        for value in SWEPT_VALUES:
            argv = tiny_overrides(
                tmp_path, **{"params_in": sweep_inputs / "params.ofsc", "class_id": 1, key: value}
            )
            code = cli.main([command, *argv])
            written = sorted(p.name for p in tmp_path.iterdir())
            if code not in (0, 2, 3, 4) or code and written:
                missed.append(f"{key}={value!r}: exit {code}, wrote {written}")
            for path in tmp_path.iterdir():
                path.unlink()
        capsys.readouterr()
        assert missed == []


class TestStagedOutputs:
    """A command that fails leaves every output path as it was: each output
    is written beside its destination, and replaces it only once every
    output of the command is written."""

    # (command, the output that fails, the name `cli` writes it through)
    CASES = [
        ("pretrain", "params_out", "save_params"),
        ("pretrain", "history_out", "_write_csv"),
        ("metalearn", "params_out", "save_params"),
        ("metalearn", "history_out", "_write_csv"),
        ("learn-class", "em_out", "save_em"),
    ]

    @pytest.mark.parametrize("how", ["write fails", "no such directory", "a directory"])
    @pytest.mark.parametrize(
        "command,key,writer", CASES, ids=[f"{c}-{k}" for c, k, _ in CASES]
    )
    def test_a_failing_output_leaves_every_output_as_it_was(
        self, sweep_inputs, tmp_path, monkeypatch, capsys, command, key, writer, how
    ):
        # metalearn writes over its own params_in, and learn-class over its em_in
        for name in ("params.ofsc", "em.ofem"):
            shutil.copy(sweep_inputs / name, tmp_path / name)
        (tmp_path / "history.csv").write_text("epoch,ce,ortho,accuracy\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        outputs = {"params_in": tmp_path / "params.ofsc", "em_in": tmp_path / "em.ofem"}
        if how == "write fails":  # the whole file is written, then the disk is full
            write = getattr(cli, writer)

            def full_disk(*args):
                write(*args)
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(cli, writer, full_disk)
        elif how == "no such directory":
            outputs[key] = tmp_path / "missing" / "out"
        else:
            outputs[key] = tmp_path / "dir"
            outputs[key].mkdir()
            before["dir"] = None
        # at seed 8 every output differs from the files there, which seed 7 wrote
        argv = tiny_overrides(tmp_path, **outputs, class_id=1, prototype_bits=3, seed=8)
        assert cli.main([command, *argv]) == 3
        assert capsys.readouterr().err.startswith("data error")
        after = {p.name: None if p.is_dir() else p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before
