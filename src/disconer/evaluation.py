"""Strict-match micro-averaged evaluation with breakdown analyses.

A predicted mention counts as correct only when an identical mention
(entity type plus canonical fragment set) exists in the gold annotations of
the same sentence. Alongside the overall scores the report carries the
discontinuous subsets, a per-overlap-category table and recall broken down
by mention and interval length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .corpus import Category, Mention, overlap_category

GoldPred = list[frozenset[Mention]]

# indexed by length - 1 and by interval length, the last bucket open-ended
MENTION_LENGTH_BUCKETS = ("1", "2", "3", "4", "5+")
INTERVAL_LENGTH_BUCKETS = ("0", "1", "2", "3", "4+")


def _prf(pred_hit: int, n_pred: int, gold_hit: int, n_gold: int) -> tuple[float, float, float]:
    p = pred_hit / n_pred if n_pred else 0.0
    r = gold_hit / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def _check_lengths(gold: GoldPred, pred: GoldPred) -> None:
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences, pred has {len(pred)}")


def strict_prf(gold: GoldPred, pred: GoldPred) -> tuple[float, float, float]:
    """Micro-averaged strict-match precision, recall and F1."""
    _check_lengths(gold, pred)
    tp = sum(len(g & p) for g, p in zip(gold, pred))
    return _prf(tp, sum(len(p) for p in pred), tp, sum(len(g) for g in gold))


def eval_disc_sentences(gold: GoldPred, pred: GoldPred) -> tuple[float, float, float]:
    """strict_prf restricted to sentences with >= 1 discontinuous gold mention."""
    _check_lengths(gold, pred)
    keep = [i for i, g in enumerate(gold) if any(m.is_discontinuous for m in g)]
    return strict_prf([gold[i] for i in keep], [pred[i] for i in keep])


def eval_disc_only(gold: GoldPred, pred: GoldPred) -> tuple[float, float, float]:
    """Both sides filtered to discontinuous mentions before matching."""
    g = [frozenset(m for m in s if m.is_discontinuous) for s in gold]
    p = [frozenset(m for m in s if m.is_discontinuous) for s in pred]
    return strict_prf(g, p)


def eval_by_category(gold: GoldPred, pred: GoldPred) -> dict[Category, dict]:
    """Per-overlap-category P/R/F1 over discontinuous mentions.

    Gold mentions are bucketed by their category among the gold mentions of
    the sentence; predicted mentions by their category among the predicted
    ones. A prediction is correct when it strict-matches any gold mention.
    """
    _check_lengths(gold, pred)
    gold_count = {c: 0 for c in Category}
    gold_hit = {c: 0 for c in Category}
    pred_count = {c: 0 for c in Category}
    pred_hit = {c: 0 for c in Category}
    for g, p in zip(gold, pred):
        g_list, p_list = list(g), list(p)
        for m in g_list:
            if m.is_discontinuous:
                cat = overlap_category(m, g_list)
                gold_count[cat] += 1
                if m in p:
                    gold_hit[cat] += 1
        for m in p_list:
            if m.is_discontinuous:
                cat = overlap_category(m, p_list)
                pred_count[cat] += 1
                if m in g:
                    pred_hit[cat] += 1
    table = {}
    for cat in Category:
        prec, rec, f1 = _prf(pred_hit[cat], pred_count[cat], gold_hit[cat], gold_count[cat])
        table[cat] = {"gold": gold_count[cat], "precision": prec,
                      "recall": rec, "f1": f1}
    return table


def recall_by_length(gold: GoldPred, pred: GoldPred) -> dict[str, dict[str, dict]]:
    """Recall bucketed by mention length and by interval length.

    Interval length zero corresponds to continuous mentions.
    """
    _check_lengths(gold, pred)
    out = {"mention_length": {b: {"gold": 0, "matched": 0} for b in MENTION_LENGTH_BUCKETS},
           "interval_length": {b: {"gold": 0, "matched": 0} for b in INTERVAL_LENGTH_BUCKETS}}
    for g, p in zip(gold, pred):
        for m in g:
            hit = int(m in p)
            for key, bucket in (
                    ("mention_length", MENTION_LENGTH_BUCKETS[min(m.length, 5) - 1]),
                    ("interval_length", INTERVAL_LENGTH_BUCKETS[min(m.interval_length, 4)])):
                out[key][bucket]["gold"] += 1
                out[key][bucket]["matched"] += hit
    for table in out.values():
        for cell in table.values():
            cell["recall"] = cell["matched"] / cell["gold"] if cell["gold"] else 0.0
    return out


@dataclass(frozen=True)
class EvalReport:
    overall: tuple[float, float, float]
    disc_sentences: tuple[float, float, float]
    disc_only: tuple[float, float, float]
    by_category: dict[Category, dict] = field(default_factory=dict)
    by_length: dict[str, dict] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "overall": dict(zip(("precision", "recall", "f1"), self.overall)),
            "disc_sentences": dict(zip(("precision", "recall", "f1"), self.disc_sentences)),
            "disc_only": dict(zip(("precision", "recall", "f1"), self.disc_only)),
            "by_category": {c.value: v for c, v in self.by_category.items()},
            "by_length": self.by_length,
        }, indent=2, sort_keys=True)

    def to_text(self) -> str:
        def row(name, prf):
            p, r, f = prf
            return f"{name:<16} P={p:.4f} R={r:.4f} F1={f:.4f}"

        lines = [row("overall", self.overall),
                 row("disc_sentences", self.disc_sentences),
                 row("disc_only", self.disc_only), ""]
        lines.append(f"{'category':<16} {'gold':>5} {'P':>8} {'R':>8} {'F1':>8}")
        for cat in Category:
            v = self.by_category.get(cat)
            if v is None:
                continue
            lines.append(f"{cat.value:<16} {v['gold']:>5} {v['precision']:>8.4f} "
                         f"{v['recall']:>8.4f} {v['f1']:>8.4f}")
        lines.append("")
        for key, title in (("mention_length", "mention length"),
                           ("interval_length", "interval length")):
            table = self.by_length.get(key, {})
            lines.append(f"recall by {title}:")
            for bucket, cell in table.items():
                lines.append(f"  {bucket:<3} gold={cell['gold']:<5} recall={cell['recall']:.4f}")
        return "\n".join(lines)


def evaluate(gold: GoldPred, pred: GoldPred) -> EvalReport:
    return EvalReport(
        overall=strict_prf(gold, pred),
        disc_sentences=eval_disc_sentences(gold, pred),
        disc_only=eval_disc_only(gold, pred),
        by_category=eval_by_category(gold, pred),
        by_length=recall_by_length(gold, pred),
    )
