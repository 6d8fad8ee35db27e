"""End-to-end tests for the command-line interface."""

import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import disconer
from disconer import cli, neural, transitions
from disconer.corpus import Corpus, Sentence, parse_inline, write_inline
from disconer.synth import make_corpus

# The directory that holds the imported `disconer` package. It goes first on
# the child's PYTHONPATH, so the child runs the code under test from any cwd:
# a relative PYTHONPATH stops resolving once the working directory changes.
PACKAGE_ROOT = str(Path(disconer.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "disconer.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd,
                          env=env)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for name, n, seed in (("train", 40, 31), ("dev", 10, 32), ("test", 10, 33)):
        (d / f"{name}.txt").write_text(write_inline(make_corpus(n, seed)))
    (d / "run.cfg").write_text(
        "# smoke config\nepochs = 6\nlearning_rate = 0.1\ncheckpoint = model.bin\n")
    return d


def test_stats(workdir):
    out = run_cli("stats", "train.txt", cwd=workdir)
    assert out.returncode == 0
    assert "sentences = 40" in out.stdout
    assert "disc_mentions" in out.stdout


def test_stats_deterministic(workdir):
    a = run_cli("stats", "train.txt", cwd=workdir)
    b = run_cli("stats", "train.txt", cwd=workdir)
    for out in (a, b):
        assert out.returncode == 0, out.stderr
        assert "sentences = 40" in out.stdout
    assert a.stdout == b.stdout


def test_closed_stdout_ends_quietly(workdir):
    """A reader that has gone (`disconer stats f | head -0`) ends the output
    with the status of SIGPIPE (128 + 13) and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_cli("stats", "train.txt", cwd=workdir, stdout=write_end)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, "")


def test_missing_file_error():
    out = run_cli("stats", "nope.txt")
    assert out.returncode == 1
    assert out.stderr.startswith("error:")


def test_oracle_check(workdir):
    out = run_cli("oracle-check", "train.txt", cwd=workdir)
    assert out.returncode == 0
    assert "coverage = 1.0000" in out.stdout


def test_trace(workdir):
    (workdir / "fig2.txt").write_text(
        "muscle pain and fatigue\n0,2 ADR|0,1;3,4 ADR\n")
    out = run_cli("trace", "fig2.txt", "--sentence", "0", cwd=workdir)
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 8
    assert "LREDUCE" in lines[2]


def test_trace_bad_index(workdir):
    out = run_cli("trace", "train.txt", "--sentence", "999", cwd=workdir)
    assert out.returncode == 1 and out.stderr.startswith("error:")


def test_convert_flatten(workdir):
    out = run_cli("convert", "train.txt", "flat.txt", "--flatten", cwd=workdir)
    assert out.returncode == 0
    flat = parse_inline((workdir / "flat.txt").read_text())
    assert all(not m.is_discontinuous for s in flat for m in s.mentions)


def test_convert_to_tags(workdir):
    out = run_cli("convert", "train.txt", "tags.txt", "--to", "tags", cwd=workdir)
    assert out.returncode == 0
    text = (workdir / "tags.txt").read_text()
    assert "\t" in text
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 40


def test_unknown_config_key(workdir):
    # the last five were accepted once and are rejected since their removal
    for key in ("bogus", "external_vectors", "test_corpus", "report",
                "external_vec_dim", "budget_multiplier"):
        (workdir / "bad.cfg").write_text(f"{key} = 1\n")
        out = run_cli("--config", "bad.cfg", "train", "--train", "train.txt",
                      "--checkpoint", "m.bin", cwd=workdir)
        assert out.returncode == 1, key
        assert f"unknown config key {key!r}" in out.stderr


def _one_error_line(out) -> str:
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("error:"), out.stderr
    return last


FLAT = "muscle pain\n0,2 ADR\n"
NESTED = "leg pain\n0,2 ADR|1,2 ADR\n"


def test_oracle_check_lists_nested_sentences(workdir):
    (workdir / "nested4.txt").write_text("\n".join([FLAT, NESTED, FLAT, NESTED]))
    out = run_cli("oracle-check", "nested4.txt", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert "nested_sentences = 1,3" in out.stdout.splitlines()


def _report(stdout: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in stdout.splitlines())


def test_oracle_check_accounts_for_every_mention(workdir):
    """covered + the uncovered_* lines == mentions; a nested sentence's
    mentions count as uncovered_nested."""
    (workdir / "flat_nested.txt").write_text("\n".join([FLAT, NESTED]))
    stdout = {}
    for corpus in ("flat_nested.txt", "train.txt"):
        out = run_cli("oracle-check", corpus, cwd=workdir)
        assert out.returncode == 0, out.stderr
        stdout[corpus] = out.stdout
        report = _report(out.stdout)
        uncovered = sum(int(v) for k, v in report.items() if k.startswith("uncovered_"))
        assert int(report["covered"]) + uncovered == int(report["mentions"]), corpus
    assert stdout["flat_nested.txt"].splitlines() == [
        "mentions = 3", "covered = 1", "coverage = 0.3333", "uncovered_nested = 2",
        "nested_sentences = 1"]


def test_convert_to_tags_names_the_nested_sentence(workdir):
    (workdir / "flat_nested.txt").write_text("\n".join([FLAT, NESTED]))
    out = run_cli("convert", "flat_nested.txt", "flat_nested.tags", "--to", "tags",
                  cwd=workdir)
    assert out.stderr.strip().splitlines() == [_one_error_line(out)]
    assert out.stderr.startswith("error: sentence 1: nested mentions: ")
    assert not (workdir / "flat_nested.tags").exists()


def test_oracle_check_round_trip_mismatch_is_one_error_line(tmp_path, monkeypatch, capsys):
    (tmp_path / "flat.txt").write_text(FLAT)
    monkeypatch.setattr(transitions, "decode", lambda *args, **kwargs: frozenset())
    code = cli.main(["oracle-check", str(tmp_path / "flat.txt")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: oracle round-trip mismatch in sentence 0"]


def test_train_refuses_a_corpus_of_nested_sentences(workdir):
    (workdir / "nested2.txt").write_text("\n".join([NESTED, NESTED]))
    out = run_cli("train", "--train", "nested2.txt", "--checkpoint", "nested.bin",
                  cwd=workdir)
    assert out.stderr.strip().splitlines() == [_one_error_line(out)]
    assert "2 sentences, 2 of them with nested mentions" in out.stderr
    assert not (workdir / "nested.bin").exists()
    assert not (workdir / "nested.bin.last").exists()


def test_bad_config_value_is_one_error_line(workdir):
    for key, value in (("attention", "ture"), ("attention", "2"), ("hidden_dim", "1.5"),
                       ("epochs", "many"), ("learning_rate", "fast"), ("epochs", "0"),
                       ("learning_rate", "0"), ("learning_rate", "nan"), ("seed", "-1")):
        (workdir / "bad.cfg").write_text(f"{key} = {value}\n")
        out = run_cli("--config", "bad.cfg", "train", "--train", "dev.txt",
                      "--checkpoint", "bad.bin", cwd=workdir)
        assert key in _one_error_line(out), (key, value)


def test_negative_seed_flag_is_one_error_line(workdir):
    for command in (["train", "--train", "dev.txt", "--checkpoint", "neg.bin"],
                    ["convert", "train.txt", "neg.txt", "--resample", "under_sample"]):
        out = run_cli("--seed", "-1", *command, cwd=workdir)
        assert out.stderr.strip().splitlines() == [_one_error_line(out)], command
        assert "seed must be a non-negative integer" in out.stderr
    assert not (workdir / "neg.bin").exists() and not (workdir / "neg.txt").exists()


def test_commands_that_read_no_config_refuse_config_and_seed(workdir):
    """Only train and convert --resample read --config and --seed; every
    other command refuses either flag with one error line, before it runs."""
    (workdir / "bogus.cfg").write_text("bogus_key = 1\n")
    config = neural.ScorerConfig(word_dim=2, char_dim=2, char_filters=2, hidden_dim=2,
                                 stack_dim=2, action_dim=2)
    vocab = neural.Vocab.build(parse_inline((workdir / "test.txt").read_text()))
    neural.save_checkpoint(str(workdir / "flags.bin"), neural.init_params(config, vocab),
                           config, vocab)
    for command in (["stats", "train.txt"], ["convert", "train.txt", "flags.txt"],
                    ["oracle-check", "train.txt"], ["trace", "train.txt"],
                    ["predict", "test.txt", "flags.txt", "--checkpoint", "flags.bin"],
                    ["evaluate", "test.txt", "test.txt"]):
        for flags in (["--config", "bogus.cfg"], ["--seed", "3"]):
            out = run_cli(*flags, *command, cwd=workdir)
            assert out.stderr.strip().splitlines() == [_one_error_line(out)], command
            assert f"{command[0]} does not read {flags[0]}" in out.stderr
            assert out.stdout == ""
    assert not (workdir / "flags.txt").exists()
    assert run_cli("stats", "train.txt", cwd=workdir).returncode == 0


def test_convert_resample_takes_the_config_seed(workdir):
    """`convert --resample` draws from the seed of `--config`, and `--seed`
    overrides it, as in `train`."""
    flat = make_corpus(20, 41, weights={"flat": 1.0})
    disc = make_corpus(3, 42, weights={"no_overlap": 1.0})
    (workdir / "mixed.txt").write_text(write_inline(Corpus(flat.sentences + disc.sentences)))
    (workdir / "seed7.cfg").write_text("seed = 7\n")

    def resampled(*flags) -> str:
        out = workdir / "resampled.txt"
        assert cli.main([*flags, "convert", str(workdir / "mixed.txt"), str(out),
                         "--resample", "under_sample"]) == 0
        return out.read_text()

    by_config = resampled("--config", str(workdir / "seed7.cfg"))
    assert by_config == resampled("--seed", "7") != resampled()
    assert (resampled("--config", str(workdir / "seed7.cfg"), "--seed", "3")
            == resampled("--seed", "3") != by_config)


def test_standoff_types_the_inline_format_cannot_hold_are_skipped(workdir):
    (workdir / "odd.txt").write_text("muscle pain\n")
    (workdir / "odd.ann").write_text("T1\tA|B 0 6\tmuscle\nT2\t 0 6\tmuscle\n"
                                     "T3\tADR 0 11\tmuscle pain\n")
    out = run_cli("--format", "standoff", "convert", "odd", "odd_inline.txt", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert [l.split(":")[:2] for l in out.stderr.splitlines()] == [
        ["warning", " T1"], ["warning", " T2"]]
    out = run_cli("stats", "odd_inline.txt", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert "mentions = 1" in out.stdout


def test_diverging_training_is_one_error_line(workdir):
    (workdir / "huge.cfg").write_text("learning_rate = 1e300\nepochs = 2\n")
    out = run_cli("--config", "huge.cfg", "train", "--train", "dev.txt",
                  "--checkpoint", "huge.bin", cwd=workdir)
    assert "non-finite gradient" in _one_error_line(out)
    assert len(out.stderr.splitlines()) == 1, out.stderr


def _config_line(stdout: str) -> dict:
    line = next(l for l in stdout.splitlines() if l.startswith("config: "))
    return json.loads(line[len("config: "):])


def test_config_seed_kept_without_seed_flag(workdir):
    (workdir / "seed.cfg").write_text("seed = 7\nepochs = 1\nattention = OFF\n")
    out = run_cli("--config", "seed.cfg", "train", "--train", "dev.txt",
                  "--checkpoint", "seed.bin", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert _config_line(out.stdout)["seed"] == 7
    assert _config_line(out.stdout)["attention"] is False
    out = run_cli("--config", "seed.cfg", "--seed", "3", "train", "--train",
                  "dev.txt", "--checkpoint", "seed.bin", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert _config_line(out.stdout)["seed"] == 3


def test_format_tags_refused(workdir):
    out = run_cli("--format", "tags", "stats", "train.txt", cwd=workdir)
    assert out.returncode == 2
    assert "invalid choice: 'tags'" in out.stderr
    assert "Traceback" not in out.stderr


def _write_checkpoint_header(path, version: int, config: dict, **vocab) -> None:
    meta = json.dumps({"config": config, "words": ["<unk>"], "chars": ["<unk>"],
                       "types": ["ENT"], **vocab}).encode("utf-8")
    body = (b"DNER" + struct.pack("<II", version, len(meta)) + meta
            + struct.pack("<I", 0))
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_checkpoint_unknown_config_key(workdir):
    _write_checkpoint_header(workdir / "odd.bin", neural.CHECKPOINT_VERSION,
                             {"external_vec_dim": 0})
    out = run_cli("predict", "test.txt", "odd_pred.txt", "--checkpoint", "odd.bin",
                  cwd=workdir)
    assert out.returncode == 1
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr
    assert "external_vec_dim" in lines[0]


def test_checkpoint_without_unk_is_one_error_line(workdir):
    _write_checkpoint_header(workdir / "nounk.bin", neural.CHECKPOINT_VERSION, {},
                             words=["muscle"])
    out = run_cli("predict", "test.txt", "nounk_pred.txt", "--checkpoint", "nounk.bin",
                  cwd=workdir)
    assert out.stderr.strip().splitlines() == [_one_error_line(out)]
    assert "bad checkpoint metadata: words must include '<unk>'" in out.stderr


@pytest.mark.parametrize("vocab", [{"types": "ADR"}, {"words": {"<unk>": 0}},
                                   {"words": [1, "<unk>"]}])
def test_checkpoint_vocabulary_of_no_list_of_strings_is_one_error_line(workdir, capsys,
                                                                     vocab):
    path = workdir / "oddvocab.bin"
    _write_checkpoint_header(path, neural.CHECKPOINT_VERSION, {}, **vocab)
    code = cli.main(["predict", str(workdir / "test.txt"), str(workdir / "oddvocab.txt"),
                     "--checkpoint", str(path)])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: bad checkpoint metadata: ")


def test_checkpoint_of_version_3_is_refused(workdir, capsys):
    path = workdir / "v3.bin"
    _write_checkpoint_header(path, 3, {})
    code = cli.main(["predict", str(workdir / "test.txt"), str(workdir / "v3_pred.txt"),
                     "--checkpoint", str(path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {path}: unsupported checkpoint version 3"]


def test_truncated_checkpoint_is_one_error_line(workdir):
    config = neural.ScorerConfig(word_dim=2, char_dim=2, char_filters=2, hidden_dim=2,
                                 stack_dim=2, action_dim=2)
    vocab = neural.Vocab(("<unk>",), ("<unk>",), ("ENT",))
    path = workdir / "cut.bin"
    neural.save_checkpoint(str(path), neural.init_params(config, vocab), config, vocab)
    data = path.read_bytes()
    meta_end = 12 + struct.unpack_from("<I", data, 8)[0]
    for size in (2, 40, meta_end + 2, len(data) - 3):
        path.write_bytes(data[:size])
        out = run_cli("predict", "test.txt", "cut_pred.txt", "--checkpoint", "cut.bin",
                      cwd=workdir)
        assert out.stderr.strip().splitlines() == [_one_error_line(out)]


def test_train_predict_evaluate_pipeline(workdir):
    out = run_cli("--config", "run.cfg", "--seed", "0", "train",
                  "--train", "train.txt", "--dev", "dev.txt", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert "config:" in out.stdout
    assert "dev_f1" in out.stdout
    assert "best_epoch" in out.stdout
    assert (workdir / "model.bin").exists()
    assert (workdir / "model.bin.last").exists()

    out = run_cli("predict", "test.txt", "pred.txt",
                  "--checkpoint", "model.bin", cwd=workdir)
    assert out.returncode == 0, out.stderr
    pred = parse_inline((workdir / "pred.txt").read_text())
    assert len(pred) == 10

    out = run_cli("evaluate", "test.txt", "pred.txt",
                  "--report", "report.json", cwd=workdir)
    assert out.returncode == 0, out.stderr
    assert "overall" in out.stdout
    data = json.loads((workdir / "report.json").read_text())
    assert set(data) == {"overall", "disc_sentences", "disc_only",
                         "by_category", "by_length"}


def test_train_prints_one_json_line_per_epoch(workdir):
    for dev in ((), ("--dev", "dev.txt")):
        out = run_cli("--config", "run.cfg", "--seed", "0", "train", "--train", "train.txt",
                      *dev, "--checkpoint", "epochs.bin", cwd=workdir)
        assert out.returncode == 0, out.stderr
        records = [json.loads(line) for line in out.stdout.splitlines()
                   if line.startswith("{")]
        assert [r["epoch"] for r in records] == list(range(6))
        keys = {"epoch", "loss", "sentences_per_s", "tokens_per_s", "wall_s",
                "skipped_nested", "uncovered_dropped"}
        if dev:
            keys |= {"dev_p", "dev_r", "dev_f1"}
        for r in records:
            assert set(r) == keys
            assert r["loss"] > 0 and r["wall_s"] > 0
            assert r["tokens_per_s"] > r["sentences_per_s"] > 0
            assert r["skipped_nested"] == r["uncovered_dropped"] == 0
        assert records[-1]["loss"] < records[0]["loss"]
        if dev:
            for r in records:
                assert 0 <= r["dev_f1"] <= 1
        # the JSON lines carry each dev score once; no text line repeats it
        assert "epoch 0 dev_f1" not in out.stdout


def test_predict_prints_one_json_line(workdir):
    """predict reports its throughput on stdout and nothing else."""
    config = neural.ScorerConfig(word_dim=4, char_dim=3, char_filters=3, hidden_dim=4,
                                 stack_dim=4, action_dim=3)
    test = parse_inline((workdir / "test.txt").read_text())
    vocab = neural.Vocab.build(test)
    neural.save_checkpoint(str(workdir / "speed.bin"), neural.init_params(config, vocab),
                           config, vocab)
    out = run_cli("predict", "test.txt", "speed_pred.txt", "--checkpoint", "speed.bin",
                  cwd=workdir)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1, out.stdout
    record = json.loads(lines[0])
    assert set(record) == {"sentences", "tokens", "wall_s", "tokens_per_s"}
    assert record["sentences"] == len(test) == 10
    assert record["tokens"] == sum(len(s.tokens) for s in test)
    assert record["wall_s"] > 0
    assert record["tokens_per_s"] == pytest.approx(record["tokens"] / record["wall_s"])
    assert len(parse_inline((workdir / "speed_pred.txt").read_text())) == 10


def test_evaluate_refuses_different_tokens(workdir):
    gold = parse_inline((workdir / "test.txt").read_text())
    changed = Sentence(("x",) + gold.sentences[3].tokens[1:], gold.sentences[3].mentions)
    pred = Corpus(gold.sentences[:3] + (changed,) + gold.sentences[4:])
    (workdir / "other.txt").write_text(write_inline(pred))
    out = run_cli("evaluate", "test.txt", "other.txt", cwd=workdir)
    assert _one_error_line(out) == "error: gold and pred tokens differ in sentence 3"
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert out.stdout == ""


def test_train_determinism(workdir):
    for tag in ("a", "b"):
        out = run_cli("--config", "run.cfg", "--seed", "7", "train",
                      "--train", "train.txt", "--checkpoint", f"m_{tag}.bin",
                      cwd=workdir)
        assert out.returncode == 0, out.stderr
    assert (workdir / "m_a.bin").read_bytes() == (workdir / "m_b.bin").read_bytes()
