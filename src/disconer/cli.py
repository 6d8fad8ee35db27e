"""Command-line entry point.

Subcommands: stats, convert, train, predict, evaluate, oracle-check, trace.
Configuration is one "key = value" per line with "#" comments; command-line
flags override config values. All randomness flows from the single
configured seed, so a repeated run produces byte-identical outputs.

Each command imports only the modules it runs. numpy comes in with the
model (neural, and with it autodiff), which only train, predict and
convert --resample load; stats, convert without --resample, oracle-check,
trace and evaluate start without numpy, which saves about 70 ms of a
symbolic command's wall time on 2 cores (oracle-check on a 600-sentence
file: 0.23 -> 0.16 s).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import corpus as corpus_mod
from . import transitions
from .corpus import Corpus, CorpusError, ResampleMode

if TYPE_CHECKING:
    from . import neural

CONFIG_PATH_KEYS = ("train_corpus", "dev_corpus", "checkpoint")
BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path: str) -> dict[str, str]:
    """Read "key = value" lines; '#' starts a comment; unknown and repeated
    keys rejected."""
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    fields = scorer_fields()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CorpusError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields and key not in CONFIG_PATH_KEYS:
                raise CorpusError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise CorpusError(f"{path}:{lineno}: duplicate config key {key!r} "
                                  f"(first on line {first_line[key]})")
            first_line[key] = lineno
            values[key] = value
    return values


def scorer_fields() -> dict[str, type]:
    """The config keys besides the paths: ScorerConfig's fields and types."""
    from .neural import ScorerConfig
    return {f.name: type(f.default) for f in dataclasses.fields(ScorerConfig)}


def load_config(args) -> tuple[neural.ScorerConfig, dict[str, str]]:
    """The scorer config of `--config` and `--seed` (the flag wins), and the
    file's values. Each value is converted from text to its field's type;
    the ranges are ScorerConfig's to check."""
    from .neural import ScorerConfig
    values = parse_config_file(args.config) if args.config else {}
    kwargs = {}
    for name, kind in scorer_fields().items():
        if name not in values:
            continue
        raw = values[name]
        try:
            kwargs[name] = BOOL_VALUES[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            expected = f"one of {'/'.join(BOOL_VALUES)}" if kind is bool else kind.__name__
            raise CorpusError(f"config key {name!r}: expected {expected}, got {raw!r}") from None
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return ScorerConfig(**kwargs), values


def read_corpus(path: str, fmt: str) -> Corpus:
    if fmt == "standoff":
        with open(path + ".txt", encoding="utf-8") as fh:
            text = fh.read()
        with open(path + ".ann", encoding="utf-8") as fh:
            ann = fh.read()
        corpus, warnings = corpus_mod.parse_standoff(text, ann)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        return corpus
    with open(path, encoding="utf-8") as fh:
        return corpus_mod.parse_inline(fh.read())


def write_corpus(corpus: Corpus, path: str, fmt: str) -> None:
    if fmt == "tags":
        from . import schemas
        blocks = []
        for i, sent in enumerate(corpus):
            try:
                tags = schemas.encode_biohd(sent)
            except CorpusError as exc:
                raise CorpusError(f"sentence {i}: {exc}") from exc
            blocks.append(schemas.to_conll(sent, tags) + "\n")
        out = "\n".join(blocks)
    else:
        out = corpus_mod.write_inline(corpus)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(out)


def _log_config(config: neural.ScorerConfig, paths: dict[str, str | None]) -> None:
    """One `config:` line: the scorer config and the paths the run uses."""
    resolved = {**dataclasses.asdict(config),
                **{key: path for key, path in paths.items() if path}}
    print("config: " + json.dumps(resolved, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    corpus = read_corpus(args.corpus, args.format)
    print(corpus_mod.corpus_stats(corpus).to_text())
    return 0


def cmd_convert(args) -> int:
    corpus = read_corpus(args.input, args.format)
    if args.flatten:
        corpus = corpus_mod.flatten_for_flat_model(corpus)
    if args.resample:
        corpus = corpus_mod.resample(corpus, ResampleMode(args.resample),
                                     load_config(args)[0].seed)
    write_corpus(corpus, args.output, args.to)
    return 0


def cmd_oracle_check(args) -> int:
    corpus = read_corpus(args.corpus, args.format)
    covered = 0
    total = 0
    nested: list[int] = []
    uncovered_by_cat: dict[str, int] = {}
    for i, sent in enumerate(corpus):
        total += len(sent.mentions)
        try:
            actions, uncovered = transitions.oracle(sent)
        except CorpusError:
            nested.append(i)
            uncovered_by_cat["nested"] = uncovered_by_cat.get("nested", 0) + len(sent.mentions)
            continue
        derived = transitions.decode(actions, len(sent.tokens))
        if derived != frozenset(sent.mentions) - uncovered:
            raise CorpusError(f"oracle round-trip mismatch in sentence {i}")
        covered += len(sent.mentions) - len(uncovered)
        for m in uncovered:
            cat = (corpus_mod.overlap_category(m, list(sent.mentions)).value
                   if m.is_discontinuous else "continuous")
            uncovered_by_cat[cat] = uncovered_by_cat.get(cat, 0) + 1
    rate = covered / total if total else 1.0
    print(f"mentions = {total}")
    print(f"covered = {covered}")
    print(f"coverage = {rate:.4f}")
    for cat in sorted(uncovered_by_cat):
        print(f"uncovered_{cat} = {uncovered_by_cat[cat]}")
    if nested:
        print(f"nested_sentences = {','.join(str(i) for i in nested)}")
    return 0


def cmd_trace(args) -> int:
    corpus = read_corpus(args.corpus, args.format)
    if not (0 <= args.sentence < len(corpus)):
        raise CorpusError(f"sentence index {args.sentence} out of range")
    sent = corpus.sentences[args.sentence]
    actions, uncovered = transitions.oracle(sent)
    print(transitions.trace(sent, actions).to_text())
    if uncovered:
        print(f"uncovered = {len(uncovered)}")
    return 0


def cmd_train(args) -> int:
    from . import evaluation, neural
    config, values = load_config(args)
    # each path from its flag, else from the config file
    paths = {key: flag or values.get(key) for key, flag in (
        ("train_corpus", args.train), ("dev_corpus", args.dev), ("checkpoint", args.checkpoint))}
    train_path, dev_path, ckpt_path = (paths[key] for key in CONFIG_PATH_KEYS)
    if not train_path:
        raise CorpusError("train corpus required (flag --train or config train_corpus)")
    if not ckpt_path:
        raise CorpusError("checkpoint path required (flag --checkpoint or config checkpoint)")
    # the checkpoints are written after the last epoch: refuse now what would fail then
    if os.path.isdir(ckpt_path):
        raise CorpusError(f"checkpoint {ckpt_path} is a directory")
    folder = os.path.dirname(ckpt_path) or "."
    if not os.path.isdir(folder):
        raise CorpusError(f"checkpoint directory {folder} does not exist")
    _log_config(config, paths)
    train = read_corpus(train_path, args.format)
    dev = read_corpus(dev_path, args.format) if dev_path else None

    vocab = neural.Vocab.build(train)
    best = {"f1": -1.0, "epoch": -1, "params": None}
    gold = None if dev is None else [frozenset(s.mentions) for s in dev]

    def epoch_hook(epoch: int, params: neural.ScorerParams, stats: dict) -> None:
        record = {"epoch": epoch, **stats}
        if dev is not None:
            pred = neural.predict_corpus(dev.sentences, params, vocab, config)
            p, r, f1 = evaluation.strict_prf(gold, pred)
            record.update(dev_p=p, dev_r=r, dev_f1=f1)
        print(json.dumps(record))
        if dev is not None and f1 > best["f1"]:
            best.update(f1=f1, epoch=epoch, params=params.copy())

    params, vocab, info = neural.train(train, config, vocab=vocab, epoch_hook=epoch_hook)
    if info["skipped_nested"]:
        print(f"skipped_nested = {info['skipped_nested']}")
    if info["uncovered_dropped"]:
        print(f"uncovered_dropped = {info['uncovered_dropped']}")
    neural.save_checkpoint(ckpt_path + ".last", params, config, vocab)
    if best["params"] is not None:
        neural.save_checkpoint(ckpt_path, best["params"], config, vocab)
        print(f"best_epoch = {best['epoch']} best_dev_f1 = {best['f1']:.4f}")
    else:
        neural.save_checkpoint(ckpt_path, params, config, vocab)
    print(f"checkpoint = {ckpt_path}")
    return 0


def cmd_predict(args) -> int:
    from . import neural
    params, config, vocab = neural.load_checkpoint(args.checkpoint)
    corpus = read_corpus(args.input, args.format)
    t0 = time.perf_counter()
    preds = neural.predict_corpus(corpus.sentences, params, vocab, config)
    sentences = [corpus_mod.Sentence(sent.tokens, tuple(pred))
                 for sent, pred in zip(corpus, preds)]
    wall = time.perf_counter() - t0
    write_corpus(Corpus(tuple(sentences)), args.output, "inline")
    tokens = sum(len(s.tokens) for s in corpus)
    print(json.dumps({"sentences": len(corpus), "tokens": tokens, "wall_s": wall,
                      "tokens_per_s": tokens / wall if wall > 0 else 0.0}))
    return 0


def cmd_evaluate(args) -> int:
    from . import evaluation
    gold = read_corpus(args.gold, args.format)
    pred = read_corpus(args.pred, args.format)
    # sentence counts are checked by evaluation.evaluate
    for i, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise CorpusError(f"gold and pred tokens differ in sentence {i}")
    report = evaluation.evaluate([frozenset(s.mentions) for s in gold],
                                 [frozenset(s.mentions) for s in pred])
    print(report.to_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="disconer")
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("inline", "standoff"), default="inline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("convert")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("inline", "tags"), default="inline")
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--resample", choices=[m.value for m in ResampleMode], default=None)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("oracle-check")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("trace")
    p.add_argument("corpus")
    p.add_argument("--sentence", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("train")
    p.add_argument("--train", default=None)
    p.add_argument("--dev", default=None)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_evaluate)

    return parser


def reads_config(args) -> bool:
    """Whether the command reads `--config` and `--seed`: train, and convert
    when it resamples."""
    return args.command == "train" or (args.command == "convert" and args.resample is not None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not reads_config(args):
            for flag, value in (("--config", args.config), ("--seed", args.seed)):
                if value is not None:
                    raise CorpusError(f"{args.command} does not read {flag}; only train "
                                      "and convert --resample do")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`disconer stats f | head`): stop quietly
        # with the status of a process ended by SIGPIPE (128 + 13); what is left
        # in the buffer goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CorpusError, OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
