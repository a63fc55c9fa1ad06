"""The score stage's phases, called one by one."""

import contextlib
import io
import json

from sumprobe import score
from sumprobe.cli import main
from sumprobe.corpus import load_run
from sumprobe.metrics import EmbeddingTable, HashedOneHotProvider
from sumprobe.subtok import FallbackTokenizer

from corpusgen import write_corpus


def joined_run(tmp_path):
    """A two-model echo run whose generations are not all echoes, with one
    example missing from a variant file, joined with its examples."""
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 24, seed=13)
    out = tmp_path / "out"
    common = ["--seed", "6", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(common + ["transform", "--corpus", str(corpus)]) == 0
        for model in ("a", "b"):
            assert main(common + ["generate", "--model", model, "--mock", "echo"]) == 0
    runs = out / "runs.jsonl"
    rows = [json.loads(line) for line in runs.read_text().splitlines()]
    for i, row in enumerate(rows):
        if i % 7 == 3:
            row["generated"] = ""
        elif i % 3 == 1:
            row["generated"] = rows[i - 1]["generated"]
    runs.write_text("".join(json.dumps(row) + "\n" for row in rows))
    variant = out / "variants" / "original.jsonl"
    lines = variant.read_text().splitlines(keepends=True)
    variant.write_text("".join(lines[:5] + lines[6:]))
    return score.join_examples(load_run(runs), out / "variants")


def test_record_phase_is_shardable(tmp_path):
    """Records scored in contiguous slices, each with its own code memo and
    all with one PairScores, give the scores, error rows and re-pairings of
    a single pass, and no pass changes a record: a record's scores depend
    on the record, its example and the shared tables alone."""
    joined = joined_run(tmp_path)
    before = [rec.to_dict() for rec, _ in joined]
    tokenize = FallbackTokenizer()
    subwords = score.tokenize_descriptions(joined, tokenize)

    def pair_scores():
        tokens = (sw for words in subwords.values() for sw in words)
        return score.PairScores(subwords, EmbeddingTable(HashedOneHotProvider(64), tokens), False)

    whole_pairs = pair_scores()
    whole, whole_errors = score.score_records(joined, tokenize, whole_pairs)
    assert len(whole) == len(joined)
    assert len(whole_errors) == 2  # the missing example, once per model
    assert sum(scores is None for scores in whole) == 2
    assert len({scores.bertscore_f1 for scores in whole if scores is not None}) > 2

    pairs = pair_scores()
    cuts = [0, 7, len(joined) // 2, len(joined)]
    sharded, sharded_errors = [], []
    for start, end in zip(cuts, cuts[1:]):
        scores, errors = score.score_records(joined[start:end], tokenize, pairs)
        sharded += scores
        sharded_errors += errors
    assert sharded == whole
    assert sharded_errors == whole_errors
    assert [rec.to_dict() for rec, _ in joined] == before

    for (rec, _), scores in zip(joined, whole):
        rec.metrics = scores
    repaired = score.pairing_rows(joined, 6, pairs)
    assert repaired[0] and repaired == score.pairing_rows(joined, 6, whole_pairs)


def test_pairings_keep_a_model_id_with_a_line_separator(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, 4, seed=13)
    out = tmp_path / "out"
    common = ["--seed", "6", "--out", str(out)]
    model = "m\u2028x"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(common + ["transform", "--corpus", str(corpus), "--variant", "original"]) == 0
        assert main(common + ["generate", "--model", model, "--mock", "echo"]) == 0
        assert main(common + ["score"]) == 0
    distributions = score.read_pairings(
        out / "pairings.jsonl", 6, FallbackTokenizer().tokenizer_id, load_run(out / "runs.jsonl")
    )
    assert sorted(distributions) == [(model, "bertscore_f1"), (model, "bleu4")]
