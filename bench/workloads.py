"""The four benchmark workloads.

Each workload is a closed loop with one client: the library and the CLI are
offline batch tools, so every request (one sentence) starts when the
previous one returns. A workload is driven in passes over a fixed input set
generated from the run's seed with `disconer.synth.make_corpus`:

- `setup(seed)` builds the inputs; the runner times it as set-up.
- `run_pass(state, latencies)` serves one pass and returns its token count.
- `run_cli()` runs the workload's CLI command once; the runner spreads these
  runs over the measured window, between passes.
- `can_stop(state)` says whether the run may end after this pass.
- `finish(state)` checks the outputs and names the results.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from disconer import corpus, evaluation, neural, schemas, synth, transitions
from disconer.corpus import Corpus

CLI_TIMEOUT_S = 120.0

# train-synth and train-vocab20k: one training run is TRAIN_EPOCHS epochs
# from a fresh init; a run of the benchmark repeats whole training runs, and
# every repetition must end in bitwise identical parameters.
TRAIN_SENTENCES = 200
TRAIN_EPOCHS = 2
VOCAB20K_WORDS = 20_000
VOCAB20K_WORD_DIM = 100

# predict-longgap: long gaps and 2-6 filler tokens each side (about 12.6
# tokens per sentence); the model is trained in set-up on a pinned seed.
LONGGAP = {"gap_range": (2, 5), "pre_range": (2, 6), "post_range": (2, 6)}
PREDICT_SENTENCES = 300
PREDICT_TRAIN_SEED = 2_004_013_454
PREDICT_TRAIN_SENTENCES = 150
PREDICT_TRAIN_EPOCHS = 4
PREDICT_F1_FLOOR = 0.6

# symbolic: all nine template kinds in equal shares, crossing multi_overlap
# included, so the oracle restarts and leaves mentions uncovered.
SYMBOLIC_SENTENCES = 600
SYMBOLIC_WEIGHTS = {kind: 1.0 for kind in synth.KINDS}


class CheckFailed(Exception):
    """A correctness check failed; the run reports correct=false."""


@dataclass
class Named:
    """A workload-specific metric, printed with the results."""
    value: float
    unit: str


@dataclass
class Outcome:
    named: dict[str, Named] = field(default_factory=dict)
    cli_wall_s: float = 0.0
    input_digest: str = ""
    output_digest: str = ""


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def params_digest(params: neural.ScorerParams) -> str:
    arrays = params.arrays()
    return sha256(*(x for name in sorted(arrays)
                    for x in (name, np.ascontiguousarray(arrays[name]).tobytes())))


def mentions_line(mentions) -> str:
    return "|".join(f"{';'.join(f'{f.start},{f.end}' for f in m.fragments)} {m.entity_type}"
                    for m in sorted(mentions, key=lambda m: (m.fragments, m.entity_type)))


def tokens_of(c: Corpus) -> int:
    return sum(len(s.tokens) for s in c)


class Cli:
    """Runs `python -m disconer.cli` in the work directory.

    The child gets the absolute src path in PYTHONPATH: a relative one stops
    resolving once the working directory changes. A nonzero exit is a failed
    operation, not a crash of the benchmark.
    """

    def __init__(self, src: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, *args: str) -> tuple[float, subprocess.CompletedProcess | None]:
        return self.python("-m", "disconer.cli", *args)

    def python(self, *args: str) -> tuple[float, subprocess.CompletedProcess | None]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=self.workdir,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        if proc is not None and proc.returncode != 0:
            print(f"cli {' '.join(args)} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
            proc = None
        return wall, proc


def parse_report(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


class Workload:
    name = ""
    # printed metrics starting with one of `renamed` carry the prefix
    prefix = ""
    renamed: tuple[str, ...] = ()

    cli_args: tuple[str, ...] = ()

    def __init__(self, cli: Cli):
        self.cli = cli
        self.failed = 0
        self.attempted = 0
        self.cli_walls: list[float] = []
        self.cli_stdout: str | None = None

    def can_stop(self, state) -> bool:
        return True

    def trace_prelude(self, state) -> None:
        """Work the traced section runs before its pass."""

    def run_cli(self) -> None:
        """One run of the workload's CLI command, an attempted operation.

        Records its wall time; `finish` checks the output of the last run
        when that run succeeded (a failed one already fails the run).
        """
        self.attempted += 1
        wall, proc = self.cli.run(*self.cli_args)
        self.cli_walls.append(wall)
        self.cli_stdout = None if proc is None else proc.stdout
        if proc is None:
            self.failed += 1

    def cli_wall_s(self) -> float:
        return float(np.median(self.cli_walls))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    vocab: neural.Vocab
    config: neural.ScorerConfig
    prepared: list
    tokens: int
    input_digest: str
    params: neural.ScorerParams | None = None
    rng: np.random.Generator | None = None
    epoch: int = 0
    losses: list = field(default_factory=list)
    runs: list = field(default_factory=list)   # (params digest, epoch losses)


class Train(Workload):
    """Teacher-forced per-sentence SGD, the loop of `neural.train`."""

    name = "train-synth"
    prefix, renamed = "train_", ("tok_per_s",)
    cli_args = ("oracle-check", "train.txt")
    word_dim = neural.ScorerConfig().word_dim

    def build_vocab(self, c: Corpus, seed: int) -> tuple[neural.Vocab, tuple[str, ...]]:
        return neural.Vocab.build(c), ()

    def setup(self, seed: int) -> TrainState:
        c = synth.make_corpus(TRAIN_SENTENCES, seed)
        vocab, pseudo = self.build_vocab(c, seed)
        config = neural.ScorerConfig(word_dim=self.word_dim, epochs=TRAIN_EPOCHS)
        prepared = []
        for sent in c:
            actions, uncovered = transitions.oracle(sent)
            if uncovered:
                raise CheckFailed(f"derivable corpus left {len(uncovered)} mentions uncovered")
            prepared.append((sent, actions))
        text = corpus.write_inline(c)
        (self.cli.workdir / "train.txt").write_text(text, encoding="utf-8")
        return TrainState(vocab, config, prepared, tokens_of(c),
                          sha256(text, *pseudo, repr(config)))

    def run_pass(self, st: TrainState, lat: list, tracer=None) -> int:
        """One epoch; every TRAIN_EPOCHS epochs the training starts afresh."""
        if st.epoch % TRAIN_EPOCHS == 0:
            st.params = neural.init_params(st.config, st.vocab)
            st.rng = np.random.default_rng(st.config.seed)
            st.losses = []
        total = 0.0
        lr = st.config.learning_rate
        for j in st.rng.permutation(len(st.prepared)):
            sent, actions = st.prepared[j]
            if tracer is not None:
                tracer.sentence = int(j)
            t0 = time.perf_counter()
            loss, tape = neural.sentence_loss(sent, actions, st.params, st.vocab, st.config)
            neural.backward(tape, loss)
            try:
                neural.sgd_step(st.params, lr)
            except FloatingPointError:
                self.failed += 1
                st.params.zero_grad()
            lat.append(time.perf_counter() - t0)
            self.attempted += 1
            total += float(loss.data)
        st.losses.append(total / len(st.prepared))
        st.epoch += 1
        if st.epoch % TRAIN_EPOCHS == 0:
            st.runs.append((params_digest(st.params), list(st.losses)))
        return st.tokens

    def can_stop(self, st: TrainState) -> bool:
        return st.epoch % TRAIN_EPOCHS == 0 and len(st.runs) >= 2

    def finish(self, st: TrainState) -> Outcome:
        digests = {d for d, _ in st.runs}
        if len(digests) != 1:
            raise CheckFailed(f"{len(st.runs)} identical training runs ended in "
                              f"{len(digests)} different parameter sets")
        losses = st.runs[0][1]
        if not all(np.isfinite(losses)) or not losses[-1] < losses[0]:
            raise CheckFailed(f"training did not reduce the loss: {losses}")
        out = self.cli_stdout
        if out is not None and parse_report(out).get("coverage") != "1.0000":
            raise CheckFailed(f"oracle-check on the derivable corpus: {out!r}")
        return Outcome(
            named={"final_loss": Named(losses[-1], "nll"),
                   "vocab_words": Named(len(st.vocab.words), "count")},
            cli_wall_s=self.cli_wall_s(), input_digest=st.input_digest,
            output_digest=st.runs[0][0])


class TrainVocab20k(Train):
    """The same corpus and loop with a 20k-word vocabulary and word_dim=100."""

    name = "train-vocab20k"
    word_dim = VOCAB20K_WORD_DIM

    def build_vocab(self, c: Corpus, seed: int) -> tuple[neural.Vocab, tuple[str, ...]]:
        base = neural.Vocab.build(c)
        words = set(base.words)
        rng = np.random.default_rng((seed, VOCAB20K_WORDS))
        pseudo = []
        while len(words) < VOCAB20K_WORDS:
            letters = rng.integers(ord("a"), ord("z") + 1, size=(VOCAB20K_WORDS, 10),
                                   dtype=np.uint8)
            lengths = rng.integers(6, 11, size=VOCAB20K_WORDS)
            for row, n in zip(letters, lengths):
                word = row[:n].tobytes().decode("ascii")
                if word not in words and len(words) < VOCAB20K_WORDS:
                    words.add(word)
                    pseudo.append(word)
        corpus_words = {t for s in c for t in s.tokens}
        if corpus_words & set(pseudo):
            raise CheckFailed("a pseudo-word occurs in the training corpus")
        return neural.Vocab(tuple(sorted(words)), base.chars, base.types), tuple(pseudo)


# ---------------------------------------------------------------------------
# Greedy prediction
# ---------------------------------------------------------------------------

@dataclass
class PredictState:
    corpus: Corpus
    params: neural.ScorerParams
    config: neural.ScorerConfig
    vocab: neural.Vocab
    tokens: int
    input_digest: str
    setup_params: neural.ScorerParams
    passes: list = field(default_factory=list)   # predicted mention sets per pass


class Predict(Workload):
    """Greedy `neural.predict` with a model trained and saved in set-up."""

    name = "predict-longgap"
    prefix, renamed = "predict_", ("tok_per_s", "sent_p")
    cli_args = ("predict", "test.txt", "pred.txt", "--checkpoint", "model.ckpt")

    def __init__(self, cli: Cli):
        super().__init__(cli)
        self.steps = 0

    def setup(self, seed: int) -> PredictState:
        if seed == PREDICT_TRAIN_SEED:
            raise ValueError(f"seed {seed} is the pinned training seed")
        train_c = synth.make_corpus(PREDICT_TRAIN_SENTENCES, PREDICT_TRAIN_SEED, **LONGGAP)
        test_c = synth.make_corpus(PREDICT_SENTENCES, seed, **LONGGAP)
        vocab = neural.Vocab.build(train_c)
        config = neural.ScorerConfig(epochs=PREDICT_TRAIN_EPOCHS)
        params, vocab, _ = neural.train(train_c, config, vocab=vocab)
        ckpt = str(self.cli.workdir / "model.ckpt")
        neural.save_checkpoint(ckpt, params, config, vocab)
        loaded, config, vocab = neural.load_checkpoint(ckpt)
        text = corpus.write_inline(test_c)
        (self.cli.workdir / "test.txt").write_text(text, encoding="utf-8")
        return PredictState(test_c, loaded, config, vocab, tokens_of(test_c),
                            sha256(corpus.write_inline(train_c), text, repr(config)),
                            params)

    def trace_prelude(self, st: PredictState) -> None:
        """Re-run the checkpoint save and load that end the set-up."""
        ckpt = str(self.cli.workdir / "model.ckpt")
        neural.save_checkpoint(ckpt, st.setup_params, st.config, st.vocab)
        st.params, _, _ = neural.load_checkpoint(ckpt)

    def _count_step(self, apply):
        def counted(*args, **kwargs):
            self.steps += 1
            return apply(*args, **kwargs)
        return counted

    def run_pass(self, st: PredictState, lat: list, tracer=None) -> int:
        # a rollout that reaches the step budget is forced into COMPLETE
        # actions; counting apply calls shows it without touching the library
        apply = neural.apply_action
        neural.apply_action = self._count_step(apply)
        preds = []
        try:
            for i, sent in enumerate(st.corpus):
                if tracer is not None:
                    tracer.sentence = i
                self.steps = 0
                t0 = time.perf_counter()
                try:
                    pred = neural.predict(sent, st.params, st.vocab, st.config)
                except RuntimeError:      # rollout hard cap
                    pred = None
                lat.append(time.perf_counter() - t0)
                self.attempted += 1
                budget = st.config.budget_multiplier * max(len(sent.tokens), 1)
                if pred is None or self.steps > budget:
                    self.failed += 1
                preds.append(pred if pred is not None else frozenset())
        finally:
            neural.apply_action = apply
        st.passes.append(preds)
        return st.tokens

    def finish(self, st: PredictState) -> Outcome:
        first = st.passes[0]
        digest = sha256(*(mentions_line(p) for p in first))
        if any(sha256(*(mentions_line(p) for p in preds)) != digest for preds in st.passes):
            raise CheckFailed("greedy predictions differ between passes")
        gold = [frozenset(s.mentions) for s in st.corpus]
        p, r, f1 = evaluation.strict_prf(gold, first)
        if f1 < PREDICT_F1_FLOOR:
            raise CheckFailed(f"strict F1 {f1:.4f} below {PREDICT_F1_FLOOR}")
        if self.cli_stdout is not None:
            out = corpus.parse_inline((self.cli.workdir / "pred.txt").read_text(encoding="utf-8"))
            if [frozenset(s.mentions) for s in out] != first:
                raise CheckFailed("CLI predict output differs from in-process predictions")
        return Outcome(
            named={"strict_f1": Named(f1, "f1"), "strict_p": Named(p, "precision"),
                   "strict_r": Named(r, "recall")},
            cli_wall_s=self.cli_wall_s(), input_digest=st.input_digest, output_digest=digest)


# ---------------------------------------------------------------------------
# Symbolic pipeline
# ---------------------------------------------------------------------------

@dataclass
class SymbolicState:
    blocks: list[str]
    tokens: int
    input_digest: str
    gold_total: int = 0
    covered: int = 0
    uncovered: int = 0
    oracle_s: float = 0.0
    oracle_sentences: int = 0
    outputs: list = field(default_factory=list)   # digest per pass
    biohd_gold: list = field(default_factory=list)
    biohd_pred: list = field(default_factory=list)


class Symbolic(Workload):
    """parse -> oracle -> decode -> BIOHD encode/decode -> evaluate -> write."""

    name = "symbolic"
    prefix, renamed = "symbolic_", ("sent_per_s",)
    cli_args = ("oracle-check", "symbolic.txt")

    def setup(self, seed: int) -> SymbolicState:
        c = synth.make_corpus(SYMBOLIC_SENTENCES, seed, weights=SYMBOLIC_WEIGHTS)
        text = corpus.write_inline(c)
        (self.cli.workdir / "symbolic.txt").write_text(text, encoding="utf-8")
        blocks = [corpus.write_inline(Corpus((s,))) for s in c]
        return SymbolicState(blocks, tokens_of(c), sha256(text))

    def run_pass(self, st: SymbolicState, lat: list, tracer=None) -> int:
        h = hashlib.sha256()
        gold_total = covered = uncovered_total = 0
        biohd_gold, biohd_pred = [], []
        for i, block in enumerate(st.blocks):
            if tracer is not None:
                tracer.sentence = i
            t0 = time.perf_counter()
            sent = corpus.parse_inline(block).sentences[0]
            t1 = time.perf_counter()
            actions, uncovered = transitions.oracle(sent)
            derived = transitions.decode(actions, len(sent.tokens))
            t2 = time.perf_counter()
            tags = schemas.encode_biohd(sent)
            biohd = schemas.decode_biohd(tags)
            gold = frozenset(sent.mentions)
            evaluation.evaluate([gold], [biohd])
            written = corpus.write_inline(Corpus((sent,)))
            lat.append(time.perf_counter() - t0)
            st.oracle_s += t2 - t1
            st.oracle_sentences += 1
            self.attempted += 1
            if derived != gold - uncovered or written != block:
                self.failed += 1
            gold_total += len(gold)
            covered += len(gold) - len(uncovered)
            uncovered_total += len(uncovered)
            biohd_gold.append(gold)
            biohd_pred.append(biohd)
            h.update(f"{mentions_line(derived)}\t{tags}\t{mentions_line(biohd)}\n".encode())
        st.gold_total, st.covered, st.uncovered = gold_total, covered, uncovered_total
        st.biohd_gold, st.biohd_pred = biohd_gold, biohd_pred
        st.outputs.append(h.hexdigest())
        return st.tokens

    def finish(self, st: SymbolicState) -> Outcome:
        if len(set(st.outputs)) != 1:
            raise CheckFailed("symbolic outputs differ between passes")
        coverage = st.covered / st.gold_total
        out = self.cli_stdout
        if out is not None:
            report = parse_report(out)
            if (report.get("mentions"), report.get("covered")) != (str(st.gold_total),
                                                                    str(st.covered)):
                raise CheckFailed(f"oracle-check disagrees with the in-process oracle: "
                                  f"{out!r}")
        n = len(st.blocks)
        return Outcome(
            named={"oracle_coverage": Named(coverage, "ratio"),
                   "oracle_uncovered": Named(st.uncovered, "count"),
                   "oracle_sent_per_s": Named(st.oracle_sentences / st.oracle_s, "sent/s"),
                   "biohd_strict_f1": Named(
                       evaluation.strict_prf(st.biohd_gold, st.biohd_pred)[2], "f1"),
                   "sentences": Named(n, "count")},
            cli_wall_s=self.cli_wall_s(), input_digest=st.input_digest, output_digest=st.outputs[0])


WORKLOADS = {w.name: w for w in (Train, TrainVocab20k, Predict, Symbolic)}
