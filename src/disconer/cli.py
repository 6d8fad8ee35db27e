"""Command-line entry point.

Subcommands: stats, convert, train, predict, evaluate, oracle-check, trace.
Configuration is one "key = value" per line with "#" comments; command-line
flags override config values. All randomness flows from the single
configured seed, so a repeated run produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import corpus as corpus_mod
from . import evaluation, neural, schemas, transitions
from .corpus import Corpus, CorpusError, ResampleMode

CONFIG_PATH_KEYS = ("train_corpus", "dev_corpus", "checkpoint")
SCORER_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(neural.ScorerConfig)}
BOOL_VALUES = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path: str) -> dict[str, str]:
    """Read "key = value" lines; '#' starts a comment; unknown keys rejected."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CorpusError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in SCORER_FIELDS and key not in CONFIG_PATH_KEYS:
                raise CorpusError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def load_config(args) -> tuple[neural.ScorerConfig, dict[str, str]]:
    """The scorer config of `--config` and `--seed` (the flag wins), and the
    file's values. Each value is converted from text to its field's type;
    the ranges are ScorerConfig's to check."""
    values = parse_config_file(args.config) if args.config else {}
    kwargs = {}
    for name, kind in SCORER_FIELDS.items():
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
    return neural.ScorerConfig(**kwargs), values


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


def _log_config(config: neural.ScorerConfig, values: dict[str, str]) -> None:
    resolved = dict(sorted(dataclasses.asdict(config).items()))
    for key in CONFIG_PATH_KEYS:
        if key in values:
            resolved[key] = values[key]
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
    config, values = load_config(args)
    _log_config(config, values)
    train_path = args.train or values.get("train_corpus")
    if not train_path:
        raise CorpusError("train corpus required (flag --train or config train_corpus)")
    ckpt_path = args.checkpoint or values.get("checkpoint")
    if not ckpt_path:
        raise CorpusError("checkpoint path required (flag --checkpoint or config checkpoint)")
    train = read_corpus(train_path, args.format)
    dev_path = args.dev or values.get("dev_corpus")
    dev = read_corpus(dev_path, args.format) if dev_path else None

    vocab = neural.Vocab.build(train)
    best = {"f1": -1.0, "epoch": -1, "params": None}

    def epoch_hook(epoch: int, params: neural.ScorerParams, stats: dict) -> None:
        record = {"epoch": epoch, **stats}
        if dev is not None:
            gold = [frozenset(s.mentions) for s in dev]
            pred = [neural.predict(s, params, vocab, config) for s in dev]
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
    params, config, vocab = neural.load_checkpoint(args.checkpoint)
    corpus = read_corpus(args.input, args.format)
    sentences = []
    t0 = time.perf_counter()
    for sent in corpus:
        pred = neural.predict(sent, params, vocab, config)
        sentences.append(corpus_mod.Sentence(sent.tokens, tuple(pred)))
    wall = time.perf_counter() - t0
    write_corpus(Corpus(tuple(sentences)), args.output, "inline")
    tokens = sum(len(s.tokens) for s in corpus)
    print(json.dumps({"sentences": len(corpus), "tokens": tokens, "wall_s": wall,
                      "tokens_per_s": tokens / wall if wall > 0 else 0.0}))
    return 0


def cmd_evaluate(args) -> int:
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
    except (CorpusError, OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
