"""Command-line interface: ingest collections, train and evaluate models,
and run retrieval with plot-ready outputs.

Every command that writes files also writes a manifest.json recording the
resolved parameters and the checksums of inputs and outputs, so a run can be
reproduced bit-for-bit from the manifest alone.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical degeneracy.
"""

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .aspect_model import (
    AspectModel,
    DegeneracyError,
    mixing_weight_matrix,
    perplexity,
    top_words,
)
from .corpus import (
    CountMatrix,
    ParseError,
    Vocabulary,
    _count_cells,
    _decimal_table,
    _text_lines,
    build_counts,
    load_stopwords,
    parse_qrels,
    parse_smart_collection,
    tokenize,
)
from .lsa import SvdDecomposition, lsi_doc_coords, lsi_fold_in, truncated_svd
from .retrieval import (
    RetrievalRun,
    combined_scores,
    cosine_scores,
    latent_scores,
    plsi_star_scores,
    precision_recall,
    rank_all,
)
from .trainer import TemConfig, fit_em, fit_tem, fold_in

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4
_RUN_BLOCK = 1 << 14  # run.txt lines formatted per write
_PAD = 0xFF  # a byte that UTF-8 text never holds: the padding of run.txt's byte tables


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, parameters: dict,
                    inputs: dict, outputs: dict, counters: dict | None = None) -> None:
    manifest = {
        "tool": f"plsa {__version__}",
        "command": command,
        "parameters": parameters,
        "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": _sha256(Path(p))}
                    for name, p in outputs.items()},
    }
    if counters is not None:
        manifest["counters"] = counters
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _save_ids(path: Path, ids: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, ext in enumerate(ids):
            f.write(f"{i}\t{ext}\n")


def _load_ids(path: Path) -> list[str]:
    ids = []
    for line_no, line in _text_lines(path):
        line = line.rstrip("\n")
        if line:
            row, tab, ext_id = line.partition("\t")
            if not tab:
                raise ParseError(path, line_no, "expected 'row<TAB>document id'")
            if row != str(len(ids)):
                raise ParseError(path, line_no, f"rows must run 0, 1, 2, ... in order; "
                                                f"expected {len(ids)}")
            ids.append(ext_id)
    return ids


def _sidecar(counts_path: Path, explicit, name: str):
    if explicit:
        return Path(explicit)
    candidate = counts_path.parent / name
    return candidate if candidate.exists() else None


def _load_model(path, counts: CountMatrix) -> AspectModel:
    model = AspectModel.load(path)
    if model.n_docs != counts.n_docs or model.n_terms != counts.n_terms:
        raise ValueError(f"model {path} does not match the count matrix")
    return model


# ---------------------------------------------------------------- ingest


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None

    if args.format == "triples":
        counts = CountMatrix.load(args.inputs[0])
        vocab_path = _sidecar(Path(args.inputs[0]), args.vocab, "vocab.tsv")
        if vocab_path is not None:
            vocab = Vocabulary.load(vocab_path)
            if len(vocab) != counts.n_terms:
                raise ValueError(f"{vocab_path}: vocabulary has {len(vocab)} terms but counts "
                                 f"reference {counts.n_terms}")
        else:
            vocab = Vocabulary([f"t{i}" for i in range(counts.n_terms)])
        doc_ids = [str(i) for i in range(counts.n_docs)]
    else:
        texts: list[str] = []
        doc_ids = []
        if args.format == "smart":
            for path in args.inputs:
                for record in parse_smart_collection(path):
                    doc_ids.append(record.id)
                    texts.append(record.text)
        else:  # raw: one document per line
            for path in args.inputs:
                for _, line in _text_lines(path):
                    doc_ids.append(str(len(doc_ids) + 1))
                    texts.append(line.rstrip("\n"))
        try:
            vocab, counts = build_counts(tokenize(t, stopwords) for t in texts)
        except ValueError as exc:  # no document has a token
            raise ValueError(f"{', '.join(map(str, args.inputs))}: {exc}") from None

    counts_path = out_dir / "counts.tsv"
    vocab_path = out_dir / "vocab.tsv"
    docids_path = out_dir / "docids.tsv"
    counts.save(counts_path)
    vocab.save(vocab_path)
    _save_ids(docids_path, doc_ids)
    _write_manifest(
        out_dir, "ingest",
        {"format": args.format, "stopwords": args.stopwords},
        {f"input{i}": p for i, p in enumerate(args.inputs)},
        {"counts": counts_path, "vocab": vocab_path, "docids": docids_path},
    )
    print(f"docs={counts.n_docs} terms={counts.n_terms} tokens={counts.total}")
    return EXIT_OK


# ----------------------------------------------------------------- train


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = CountMatrix.load(args.counts)

    if args.mode == "svd":
        decomp = truncated_svd(counts, args.k)
        model_path = out_dir / "svd.bin"
        decomp.save(model_path)
        _write_manifest(out_dir, "train", {"mode": "svd", "k": args.k},
                        {"counts": args.counts}, {"model": model_path})
        print(f"mode=svd k={args.k} sigma_max={decomp.sigma[0]:.6g}")
        return EXIT_OK

    config = TemConfig(
        eta=args.eta,
        beta_min=args.beta_min,
        improvement_tol=args.tol,
        max_iters_per_beta=args.max_iters_per_beta,
        max_total_iters=args.max_total_iters,
        seed=args.seed,
        heldout_fraction=args.heldout,
    )
    fit = fit_tem if args.mode == "tem" else fit_em
    model, trace = fit(counts, args.k, config)
    model_path = out_dir / "model.bin"
    trace_path = out_dir / "trace.tsv"
    model.save(model_path)
    trace.save(trace_path)
    _write_manifest(
        out_dir, "train",
        {"mode": args.mode, "k": args.k, "eta": args.eta, "beta_min": args.beta_min,
         "tol": args.tol, "heldout": args.heldout, "seed": args.seed,
         "max_iters_per_beta": args.max_iters_per_beta,
         "max_total_iters": args.max_total_iters},
        {"counts": args.counts},
        {"model": model_path, "trace": trace_path},
    )
    last = trace.records[-1]
    best = min(r.heldout_perplexity for r in trace.records)
    print(f"mode={args.mode} k={args.k} iterations={last.iteration} "
          f"final_beta={last.beta:.6g} best_heldout_ppx={best:.6g} "
          f"stopping={trace.stopping_reason.value}")
    return EXIT_OK


# ------------------------------------------------------------ perplexity


def cmd_perplexity(args) -> int:
    counts = CountMatrix.load(args.counts)
    model = _load_model(args.model, counts)
    value = perplexity(model, counts, conditional=args.conditional)
    lines = [f"perplexity {value:.10g}"]
    if args.baseline:
        base = _load_model(args.baseline, counts)
        base_value = perplexity(base, counts, conditional=args.conditional)
        lines.append(f"baseline_perplexity {base_value:.10g}")
        lines.append(f"reduction_factor {base_value / value:.10g}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "perplexity.txt"
        report_path.write_text(report, encoding="utf-8")
        inputs = {"model": args.model, "counts": args.counts}
        if args.baseline:
            inputs["baseline"] = args.baseline
        _write_manifest(out_dir, "perplexity",
                        {"conditional": args.conditional},
                        inputs, {"report": report_path})
    return EXIT_OK


# ----------------------------------------------------------------- query


def _load_queries(args) -> tuple[list[str], list[str]]:
    """Returns (external query ids, raw query texts); ids must be unique."""
    if args.queries_format == "smart":
        records = parse_smart_collection(args.queries)
        ids, texts = [r.id for r in records], [r.text for r in records]
    else:
        texts = [line.rstrip("\n") for _, line in _text_lines(args.queries)]
        ids = [str(i) for i in range(1, len(texts) + 1)]
    if not texts:
        raise ParseError(args.queries, 0, "no queries found")
    repeated = [qid for qid, n in Counter(ids).items() if n > 1]
    if repeated:
        raise ParseError(args.queries, 0, f"query id {repeated[0]!r} appears more than once;"
                         " run.txt could not tell the queries apart")
    return ids, texts


def _query_counts(texts: list[str], vocab: Vocabulary, stopwords) -> CountMatrix:
    """One row of term counts per query text; words outside `vocab` are dropped."""
    ids = [[vocab.index[t] for t in tokenize(text, stopwords) if t in vocab.index] for text in texts]
    rows = np.repeat(np.arange(len(texts)), [len(i) for i in ids])
    return _count_cells(len(texts), len(vocab), rows,
                        np.fromiter(chain.from_iterable(ids), np.int64))


def _text_table(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of `texts`, one row each followed by a space and
    padded with _PAD."""
    raw = [t.encode("utf-8") + b" " for t in texts]
    width = max(map(len, raw), default=1)
    return np.frombuffer(b"".join(r.ljust(width, bytes([_PAD])) for r in raw),
                         np.uint8).reshape(len(raw), width)


def _write_run(path: Path, rankings, doc_ext_ids: list[str]) -> None:
    """`query_id doc_id rank score` lines, one row of a byte table each.
    Ids and ranks are gathered from tables built once; scores are formatted
    by one C-level `%.10g` call per block of lines, right-aligned in 17 bytes
    (the longest `%.10g`), and every padding byte is dropped on writing."""
    n_docs = rankings.doc_ids.shape[1]
    queries = _text_table([str(q) for q in rankings.query_ids])
    docs = _text_table(doc_ext_ids)
    ranks, digits = _decimal_table([np.arange(1, n_docs + 1)], b" ")
    ranks[~digits] = _PAD
    step = max(1, _RUN_BLOCK // n_docs)
    with open(path, "wb") as f:
        for lo in range(0, len(rankings.query_ids), step):
            ids = rankings.doc_ids[lo:lo + step]
            text = ("%17.10g\n" * ids.size) % tuple(rankings.scores[lo:lo + step].ravel().tolist())
            scores = np.frombuffer(text.encode("ascii").replace(b" ", bytes([_PAD])), np.uint8)
            fields = (queries[lo:lo + step, None], docs[ids], ranks[None],
                      scores.reshape(*ids.shape, -1))
            table = np.concatenate([np.broadcast_to(a, ids.shape + a.shape[2:]) for a in fields],
                                   axis=-1)
            f.write(table[table != _PAD])


def _parameter_digest(model: AspectModel) -> bytes:
    """SHA-256 of the model's three parameter blocks, hashed in place."""
    h = hashlib.sha256()
    for block in (model.prior, model.doc_given_z, model.word_given_z):
        h.update(block)
    return h.digest()


def cmd_query(args) -> int:
    if not args.model and not args.svd and not args.baseline_only:
        raise ValueError("supply --model and/or --svd, or pass --baseline-only")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts_path = Path(args.counts)
    counts = CountMatrix.load(counts_path)
    vocab_path = _sidecar(counts_path, args.vocab, "vocab.tsv")
    if vocab_path is None:
        raise ValueError("no vocabulary file found; pass --vocab")
    vocab = Vocabulary.load(vocab_path)
    if len(vocab) != counts.n_terms:
        raise ValueError(f"{vocab_path}: vocabulary size does not match the count matrix")
    docids_path = _sidecar(counts_path, args.docids, "docids.tsv")
    doc_ext_ids = (_load_ids(docids_path) if docids_path is not None
                   else [str(i) for i in range(counts.n_docs)])
    if len(doc_ext_ids) != counts.n_docs:
        raise ValueError(f"{docids_path}: document id map does not match the count matrix")

    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    query_ext_ids, query_texts = _load_queries(args)
    queries = _query_counts(query_texts, vocab, stopwords)
    scores, query_ok, doc_ok = cosine_scores(queries.to_csr(), counts.to_csr())

    lam = 1.0 if args.baseline_only else args.lam
    method = "cos"
    # lam = 1 is the pure cosine ranking by definition, whatever was supplied
    if lam < 1.0 and (args.model or args.svd):
        pieces = []
        if args.model:
            models = [_load_model(p, counts) for p in args.model]
            # fixed reduction order so permuting --model files cannot change a bit
            models.sort(key=_parameter_digest)
            for model in models:
                pieces.append(latent_scores(fold_in(model, queries, beta=args.fold_in_beta),
                                            mixing_weight_matrix(model)))
            method = "plsi" if len(models) == 1 else "plsi-star"
        if args.svd:
            decomp = SvdDecomposition.load(args.svd)
            if decomp.u.shape[0] != counts.n_docs or decomp.v.shape[0] != counts.n_terms:
                raise ValueError(f"{args.svd}: svd decomposition does not match the count matrix")
            pieces.append(latent_scores(lsi_fold_in(decomp, queries), lsi_doc_coords(decomp)))
            method = "lsi" if not args.model else method
        latent, latent_query_ok, latent_doc_ok = plsi_star_scores(pieces)
        scores = combined_scores(lam, scores, latent)
        query_ok &= latent_query_ok
        doc_ok &= latent_doc_ok

    rankings = rank_all(scores, query_ok[:, None] & doc_ok[None, :], query_ext_ids)
    run_path = out_dir / "run.txt"
    _write_run(run_path, rankings, doc_ext_ids)
    counters = {"unscored_queries": int((~query_ok).sum())}

    outputs = {"run": run_path}
    inputs = {"counts": args.counts, "queries": args.queries}
    for i, p in enumerate(args.model or []):
        inputs[f"model{i}"] = p
    if args.svd:
        inputs["svd"] = args.svd

    if args.qrels:
        inputs["qrels"] = args.qrels
        ext_judgments = parse_qrels(args.qrels)
        doc_index = {ext: i for i, ext in enumerate(doc_ext_ids)}
        judgments: dict[str, set[int]] = {qid: set() for qid in query_ext_ids}
        for qid, relevant in judgments.items():
            for ext_doc in ext_judgments.get(qid, ()):  # queries may lack judgments
                if ext_doc not in doc_index:
                    raise ValueError(f"{args.qrels}: unknown document id {ext_doc!r}")
                relevant.add(doc_index[ext_doc])
        try:
            summary = precision_recall(RetrievalRun(rankings, judgments))
        except ValueError as exc:  # no query has a judged document
            raise ValueError(f"{args.qrels}: {exc}") from None
        pr_path = out_dir / "pr.txt"
        with open(pr_path, "w", encoding="utf-8") as f:
            f.write("# recall\tprecision\n")
            for level, prec in zip(summary.recall_levels, summary.precision_at_level):
                f.write(f"{level:.1f}\t{prec:.6f}\n")
            f.write(f"# average_precision\t{summary.average_precision:.6f}"
                    f"\t({summary.n_queries} queries)\n")
        curve_path = out_dir / f"pr_curve_{method}.txt"
        with open(curve_path, "w", encoding="utf-8") as f:
            for level, prec in zip(summary.recall_levels, summary.precision_at_level):
                f.write(f"{level:.1f} {prec:.6f}\n")
        outputs["pr"] = pr_path
        outputs["pr_curve"] = curve_path
        counters["unjudged_queries"] = queries.n_docs - summary.n_queries
        summary_line = (f"method={method} queries={summary.n_queries} "
                        f"average_precision={summary.average_precision:.4f}")
    else:
        summary_line = f"method={method} queries={queries.n_docs} ranked={counts.n_docs} docs each"
    print(summary_line, *(f"{name}={n}" for name, n in counters.items()))

    inputs["vocab"] = str(vocab_path)
    if docids_path is not None:
        inputs["docids"] = str(docids_path)
    _write_manifest(
        out_dir, "query",
        {"lambda": lam, "baseline_only": args.baseline_only, "method": method,
         "fold_in_beta": args.fold_in_beta,
         "queries_format": args.queries_format, "stopwords": args.stopwords},
        inputs, outputs, counters,
    )
    return EXIT_OK


# ---------------------------------------------------------------- topics


def cmd_topics(args) -> int:
    model = AspectModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    if len(vocab) != model.n_terms:
        raise ValueError(f"{args.vocab}: vocabulary size does not match the model")
    for z in range(model.k):
        print(f"factor {z}\tP(z)={model.prior[z]:.6g}")
        for term_id, prob in top_words(model, z, args.top):
            print(f"  {vocab.terms[term_id]}\t{prob:.6g}")
    return EXIT_OK


# ------------------------------------------------------------------ main


def _flag(convert, check):
    """An argparse type: the value `convert` reads from the text must pass
    `check`, whose ValueError becomes a usage error naming the flag."""
    def parse(text):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None
        return value
    parse.__name__ = convert.__name__  # argparse names it when `convert` fails
    return parse


def _require(ok: bool, rule: str) -> None:
    if not ok:
        raise ValueError(f"must be {rule}")


# Built once per process: a parser is a web of reference cycles, and one per
# call of main() would wait for a full garbage collection to be freed.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plsa",
        description="Aspect-model topic analysis with tempered EM, an SVD "
                    "baseline, and retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a sparse count matrix from documents")
    p.add_argument("inputs", nargs="+", help="input file(s)")
    p.add_argument("--format", choices=["raw", "smart", "triples"], default="raw")
    p.add_argument("--stopwords", help="stop-word list, one word per line")
    p.add_argument("--vocab", help="vocabulary sidecar for --format triples")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit an aspect model (or an SVD) on a count matrix")
    p.add_argument("--counts", required=True)
    p.add_argument("--k", type=_flag(int, lambda k: _require(k >= 1, ">= 1")), required=True,
                   help="number of factors / components")
    p.add_argument("--mode", choices=["em", "tem", "svd"], default="tem")
    p.add_argument("--eta", type=_flag(float, lambda v: TemConfig(eta=v)), default=0.9,
                   help="beta decay factor")
    p.add_argument("--beta-min", type=_flag(float, lambda v: TemConfig(beta_min=v)), default=0.5)
    p.add_argument("--tol", type=_flag(float, lambda v: TemConfig(improvement_tol=v)),
                   default=1e-4, help="relative held-out improvement counting as progress")
    p.add_argument("--heldout", type=_flag(float, lambda v: TemConfig(heldout_fraction=v)),
                   default=0.1, help="fraction of occurrences split off for early stopping")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters-per-beta", default=100,
                   type=_flag(int, lambda v: TemConfig(max_iters_per_beta=v)))
    p.add_argument("--max-total-iters", default=1000,
                   type=_flag(int, lambda v: TemConfig(max_total_iters=v)))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("perplexity", help="evaluate a model's perplexity on counts")
    p.add_argument("--model", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--conditional", action="store_true",
                   help="score P(w|d) instead of the joint P(d,w)")
    p.add_argument("--baseline", help="second model; also report the reduction factor")
    p.add_argument("--out", help="optional output directory for the report")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("query", help="rank documents for queries and evaluate")
    p.add_argument("--counts", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--queries-format", choices=["smart", "raw"], default="smart")
    p.add_argument("--model", nargs="*", default=[],
                   help="aspect model file(s); several trigger uniform averaging")
    p.add_argument("--svd", help="svd decomposition file for latent-space scoring")
    p.add_argument("--baseline-only", action="store_true",
                   help="rank by the raw term cosine only")
    p.add_argument("--lambda", dest="lam", type=_flag(float, lambda v: combined_scores(v, 0, 0)),
                   default=0.5, help="weight of the cosine score in the blend")
    p.add_argument("--qrels", help="relevance judgments; enables precision-recall output")
    p.add_argument("--stopwords")
    p.add_argument("--vocab")
    p.add_argument("--docids")
    p.add_argument("--fold-in-beta", type=_flag(float, lambda v: _require(v > 0.0, "> 0")),
                   default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("topics", help="print the most probable words per factor")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top", type=_flag(int, lambda v: _require(v >= 1, ">= 1")), default=10)
    p.set_defaults(func=cmd_topics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
