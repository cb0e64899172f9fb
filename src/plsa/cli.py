"""Command-line interface: ingest collections, train and evaluate models,
and run retrieval with plot-ready outputs.

Every command that writes files also writes a manifest.json.  It holds the
resolved parameters and an entry for each file the command read (stop-word
lists and sidecars included) or wrote: its path and SHA-256, and for a
count matrix the file it was read from ("read_from").  Every input is read
and hashed before the command writes its first file.  One file read is not
recorded: a stale counts container (a counts.bin beside counts.tsv that
records another text's digest), which is opened only to read its header and
is passed over.  The "environment" records the Python, numpy, scipy and
BLAS builds, the CPU count and the BLAS thread variables, so a run can be
reproduced bit-for-bit from the manifest alone in that environment.
`perplexity` without --out and `topics` write no manifest.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical degeneracy.
"""

import argparse
import functools
import json
import os
import platform
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from . import __version__, serialize
from .aspect_model import (
    AspectModel,
    DegeneracyError,
    mixing_weight_matrix,
    perplexity,
    top_words,
)
from .corpus import (
    _PAD,
    CountMatrix,
    ParseError,
    Vocabulary,
    _container_path,
    _count_cells,
    _decimal_table,
    _load_id_table,
    _read_lines,
    _save_container,
    _save_id_table,
    _unpadded,
    build_counts,
    load_stopwords,
    parse_qrels,
    parse_smart_collection,
    tokenize,
)
from .lsa import SvdDecomposition, lsi_doc_coords, lsi_fold_in, truncated_svd
from .retrieval import (
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
_LAMBDA = 0.5  # query --lambda when none is given
_FOLD_IN_BETA = 1.0  # query --fold-in-beta when none is given
# train's schedule flags in --help order: dest, which is also the manifest
# key, to its TemConfig field, which holds the default, and its help text
_SCHEDULE = {
    "eta": ("eta", "beta decay factor"),
    "beta_min": ("beta_min", None),
    "tol": ("improvement_tol", "relative held-out improvement counting as progress"),
    "heldout": ("heldout_fraction", "fraction of occurrences split off for early stopping"),
    "seed": ("seed", None),
    "max_iters_per_beta": ("max_iters_per_beta", None),
    "max_total_iters": ("max_total_iters", None),
}
_UNREAD = {"svd": tuple(_SCHEDULE), "em": ("eta", "beta_min"), "tem": ()}  # flags a mode ignores
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(Exception):
    """Flags that parse but do not fit together."""


def _entry(entries: dict, name: str, path, **fields) -> dict:
    """Enter the file at `path` as `name` in a command's manifest `entries`
    and return its entry, for a reader such as CountMatrix.load to fill with
    what it learns of the file ("sha256", ...)."""
    entry = entries[name] = {"path": str(path), **fields}
    return entry


def _read(inputs: dict, name: str, path, reader):
    """`reader(path)`, with the file entered as `name` in the manifest
    `inputs` and hashed as soon as it is read, before the command writes
    anything that could overwrite it."""
    value = reader(path)
    _entry(inputs, name, path, sha256=serialize.file_sha256(path))
    return value


def _write_manifest(out_dir: Path, command: str, parameters: dict, inputs: dict,
                    outputs: dict, counters: dict | None = None) -> None:
    """Write manifest.json from the `_entry` entries of the files read and
    written; an output left without a "sha256" has its file hashed here."""
    for entry in outputs.values():
        if "sha256" not in entry:
            entry["sha256"] = serialize.file_sha256(entry["path"])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "tool": f"plsa {__version__}",
        "command": command,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": outputs,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__,
                        "blas": f"{blas.get('name')} {blas.get('version')}",
                        "cpu_count": os.cpu_count(),
                        **{name: os.environ.get(name) for name in _THREAD_VARIABLES}},
    }
    if counters is not None:
        manifest["counters"] = counters
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _require_unique(path, ids: list[str], kind: str, line_nos=None) -> None:
    """Raise ParseError at the first of `ids` that repeats an earlier one,
    naming `path` and, from `line_nos` if given, its line: run.txt and qrels
    tell rows apart by their ids."""
    seen = set()
    for i, ext_id in enumerate(ids):
        if ext_id in seen:
            raise ParseError(path, line_nos[i] if line_nos else 0,
                             f"{kind} id {ext_id!r} appears more than once; "
                             "run.txt could not tell them apart")
        seen.add(ext_id)


def _load_ids(path: Path) -> list[str]:
    ids, line_nos = _load_id_table(path, "document id")
    for ext_id, line_no in zip(ids, line_nos):
        if ext_id.split() != [ext_id]:  # run.txt splits its lines at whitespace
            raise ParseError(path, line_no, f"document id {ext_id!r} is empty or holds "
                                            "whitespace")
    _require_unique(path, ids, "document", line_nos)
    return ids


def _sidecar(counts_path: Path, explicit, name: str):
    if explicit:
        return Path(explicit)
    candidate = counts_path.parent / name
    return candidate if candidate.exists() else None


def _load_model(counts: CountMatrix, entry: dict) -> AspectModel:
    model = AspectModel.load(entry["path"], entry)
    if model.n_docs != counts.n_docs or model.n_terms != counts.n_terms:
        raise ValueError(f"model {entry['path']} does not match the count matrix")
    return model


# ---------------------------------------------------------------- ingest


def cmd_ingest(args) -> int:
    if args.format == "triples" and len(args.inputs) > 1:
        raise UsageError(f"--format triples reads one counts file, got {len(args.inputs)}")
    if args.format == "triples" and args.stopwords:
        raise UsageError("--stopwords does not apply to --format triples")
    if args.format != "triples" and args.vocab:
        raise UsageError(f"--vocab applies to --format triples only, not {args.format}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs, outputs = {}, {}
    stopwords = (_read(inputs, "stopwords", args.stopwords, load_stopwords)
                 if args.stopwords else None)

    if args.format == "triples":
        counts = CountMatrix.load(args.inputs[0], _entry(inputs, "input0", args.inputs[0]))
        vocab_path = _sidecar(Path(args.inputs[0]), args.vocab, "vocab.tsv")
        if vocab_path is not None:
            vocab = _read(inputs, "vocab", vocab_path, Vocabulary.load)
            if len(vocab) != counts.n_terms:
                raise ValueError(f"{vocab_path}: vocabulary has {len(vocab)} terms but counts "
                                 f"reference {counts.n_terms}")
        else:
            vocab = Vocabulary([f"t{i}" for i in range(counts.n_terms)])
        doc_ids = [str(i) for i in range(counts.n_docs)]
    else:
        texts: list[str] = []
        doc_ids = []
        for i, path in enumerate(args.inputs):
            if args.format == "smart":
                ids, file_texts = _read(inputs, f"input{i}", path, parse_smart_collection)
                doc_ids += ids
                texts += file_texts
                _require_unique(path, doc_ids, "document")  # within the file or with earlier ones
            else:  # raw: one document per line, numbered from 1 across the files
                texts += _read(inputs, f"input{i}", path, _read_lines)
        if args.format == "raw":
            doc_ids = [str(i) for i in range(1, len(texts) + 1)]
        try:
            vocab, counts = build_counts(tokenize(t, stopwords) for t in texts)
        except ValueError as exc:  # no document has a token
            raise ValueError(f"{', '.join(map(str, args.inputs))}: {exc}") from None

    counts_path = out_dir / "counts.tsv"
    container_path = _container_path(counts_path)
    counts_sha256 = _entry(outputs, "counts", counts_path, sha256=counts.save(counts_path))["sha256"]
    _entry(outputs, "counts_bin", container_path,
           sha256=_save_container(counts, container_path, counts_sha256))
    vocab.save(_entry(outputs, "vocab", out_dir / "vocab.tsv")["path"])
    _save_id_table(_entry(outputs, "docids", out_dir / "docids.tsv")["path"], doc_ids)
    _write_manifest(out_dir, "ingest", {"format": args.format, "stopwords": args.stopwords},
                    inputs, outputs)
    print(f"docs={counts.n_docs} terms={counts.n_terms} tokens={counts.total}")
    return EXIT_OK


# ----------------------------------------------------------------- train


def cmd_train(args) -> int:
    given = {dest: value for dest in _SCHEDULE if (value := getattr(args, dest)) is not None}
    unread = [dest for dest in given if dest in _UNREAD[args.mode]]
    if unread:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in unread)
        raise UsageError(f"--mode {args.mode} does not read {flags}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs, outputs = {}, {}
    if args.mode == "svd":
        decomp = truncated_svd(CountMatrix.load(args.counts, _entry(inputs, "counts", args.counts)),
                               args.k)
        model_path = out_dir / "svd.bin"
        _entry(outputs, "model", model_path, sha256=decomp.save(model_path))
        _write_manifest(out_dir, "train", {"mode": "svd", "k": args.k}, inputs, outputs)
        print(f"mode=svd k={args.k} sigma_max={decomp.sigma[0]:.6g}")
        return EXIT_OK

    config = TemConfig(**{_SCHEDULE[dest][0]: value for dest, value in given.items()})
    fit = fit_tem if args.mode == "tem" else fit_em
    # loaded in the call, so that the fit, which keeps only its split, can free it
    model, trace = fit(CountMatrix.load(args.counts, _entry(inputs, "counts", args.counts)),
                       args.k, config)
    model_path = out_dir / "model.bin"
    _entry(outputs, "model", model_path, sha256=model.save(model_path))
    trace.save(_entry(outputs, "trace", out_dir / "trace.tsv")["path"])
    counters = {"dead_factor_resets": trace.dead_factor_resets,
                "empty_heldout_fallback": int(trace.empty_heldout_fallback)}
    _write_manifest(
        out_dir, "train",
        {"mode": args.mode, "k": args.k,
         **{dest: getattr(config, field) for dest, (field, _) in _SCHEDULE.items()}},
        inputs, outputs, counters,
    )
    last = trace.records[-1]
    best = min(r.heldout_perplexity for r in trace.records)
    print(f"mode={args.mode} k={args.k} iterations={last.iteration} "
          f"final_beta={last.beta:.6g} best_heldout_ppx={best:.6g} "
          f"stopping={trace.stopping_reason.value}",
          *(f"{name}={n}" for name, n in counters.items()))
    return EXIT_OK


# ------------------------------------------------------------ perplexity


def cmd_perplexity(args) -> int:
    inputs, outputs = {}, {}
    counts = CountMatrix.load(args.counts, _entry(inputs, "counts", args.counts))
    model = _load_model(counts, _entry(inputs, "model", args.model))
    value = perplexity(model, counts, conditional=args.conditional)
    lines = [f"perplexity {value:.10g}"]
    if args.baseline:
        base = _load_model(counts, _entry(inputs, "baseline", args.baseline))
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
        _entry(outputs, "report", report_path)
        _write_manifest(out_dir, "perplexity", {"conditional": args.conditional}, inputs, outputs)
    return EXIT_OK


# ----------------------------------------------------------------- query


def _load_queries(args, inputs: dict) -> tuple[list[str], list[str]]:
    """Returns (external query ids, raw query texts); ids must be unique."""
    if args.queries_format == "smart":
        ids, texts = _read(inputs, "queries", args.queries, parse_smart_collection)
    else:
        texts = _read(inputs, "queries", args.queries, _read_lines)
        ids = [str(i) for i in range(1, len(texts) + 1)]
    if not texts:
        raise ParseError(args.queries, 0, "no queries found")
    _require_unique(args.queries, ids, "query")
    return ids, texts


def _query_counts(texts: list[str], vocab: Vocabulary, stopwords) -> CountMatrix:
    """One row of term counts per query text; words outside `vocab` are dropped."""
    ids = [[vocab.index[t] for t in tokenize(text, stopwords) if t in vocab.index] for text in texts]
    rows = np.repeat(np.arange(len(texts)), [len(i) for i in ids])
    return _count_cells(len(texts), len(vocab),
                        rows * len(vocab) + np.fromiter(chain.from_iterable(ids), np.int64))


def _text_table(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of `texts`, one row each followed by a space and
    padded with _PAD."""
    raw = [t.encode("utf-8") + b" " for t in texts]
    width = max(map(len, raw), default=1)
    return np.frombuffer(b"".join(r.ljust(width, bytes([_PAD])) for r in raw),
                         np.uint8).reshape(len(raw), width)


_SCALES = np.array([1e13, 1e12, 1e11, 1e10, 1e9])  # 10**(9 - e) by e + 4, exact doubles
_LEADS = np.array([list(b"0.000"[:n].ljust(5, bytes([_PAD]))) for n in (5, 4, 3, 2, 0)],
                  np.uint8).T  # column e + 4 holds the lead "0.000" .. "" of exponent e


def _or_pad(mask: np.ndarray, char: str) -> np.ndarray:
    """The byte of `char` where the boolean `mask` holds, else _PAD, in
    uint8 arithmetic: np.where would compute it in int64."""
    return np.uint8(_PAD) - mask.view(np.uint8) * np.uint8(_PAD - ord(char))


def _score_table(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The bytes of `"%17.10g\n" % v` for each float64 v, one row of 18 each,
    written as the 18 rows of `out` if it is given; a row without its _PAD
    bytes is that line without its spaces. numpy places +-0 and each v with
    1e-4 <= |v| < 10, in columns: sign, the lead "0.000" of a decimal
    exponent e in [-4, 0], d0, the point after d0 when e = 0, d1 .. d9 with
    trailing zeros dropped, and the newline. The mantissa
    y = |v| * 10**(9 - e) is off by at most 2**-20, so rint(y) rounds as %
    does unless y lies near a tie or past its decade: `%` formats those
    values and every other one."""
    a = np.abs(values)
    # e + 4, as intp: take converts any other index type first
    e4 = sum((a >= bound).view(np.int8) for bound in (1e-3, 1e-2, 1e-1, 1.0)).astype(np.intp)
    zero = a == 0
    e4[zero] = 4
    with np.errstate(over="ignore", invalid="ignore"):  # such values are left to %
        y = a * _SCALES.take(e4)
        m = np.rint(y)
        placed = ((y >= 1e9) & (y < 1e10 - 0.5) & (np.abs(y - m) < 0.5 - 1e-5)) | zero
    left = np.flatnonzero(~placed)  # formatted by %
    m[left] = 0
    hi = np.floor(m / 1e5)  # 5-digit halves: numpy divides uint32 by a constant fast
    halves = ((m - hi * 1e5).astype(np.uint32), hi.astype(np.uint32))
    # a row per column, so that each write is contiguous
    table = np.empty((18, a.size), np.uint8) if out is None else out
    table[0] = _or_pad(np.signbit(values), "-")
    _LEADS.take(e4, axis=1, out=table[1:6])
    kept = np.zeros((10, a.size), bool)  # kept[c - 8]: a digit from column c on is not 0
    for half, cols in zip(halves, (range(16, 11, -1), range(11, 7, -1))):
        for col in cols:  # d9 .. d1
            quotient = half // 10
            digit = half - quotient * 10
            table[col] = digit + ord("0")
            np.logical_or(kept[col - 7], digit, out=kept[col - 8])
            half = quotient
    table[6] = half + ord("0")
    table[7] = _or_pad(kept[0] & (e4 == 4), ".")
    table[8:17] |= kept[:9].view(np.uint8) - np.uint8(1)  # _PAD, all ones, where not kept
    table[17] = ord("\n")
    rest = values[left]
    text = ("%17.10g\n" * rest.size) % tuple(rest.tolist())
    table[:, left] = np.frombuffer(text.encode("ascii").replace(b" ", bytes([_PAD])),
                                   np.uint8).reshape(-1, 18).T
    return table.T


def _write_run(path: Path, rankings, doc_ext_ids: list[str]) -> str:
    """`query_id doc_id rank score` lines, one column of a byte table each.
    Ids and ranks are copied from tables built once, scores are formatted
    by _score_table in place, and the table is written line by line with
    every padding byte dropped.  The table holds a row per byte of a line,
    so that each copy is contiguous.  Returns the SHA-256 of the bytes
    written."""
    n_docs = rankings.doc_ids.shape[1]
    queries = _text_table([str(q) for q in rankings.query_ids]).T
    docs = np.ascontiguousarray(_text_table(doc_ext_ids).T)
    ranks = _decimal_table([np.arange(1, n_docs + 1)], b" ").T
    ends = np.cumsum([len(queries), len(docs), len(ranks), 18])
    step = max(1, _RUN_BLOCK // n_docs)

    def blocks():
        for lo in range(0, len(rankings.query_ids), step):
            ids = rankings.doc_ids[lo:lo + step]
            table = np.empty((ends[3], *ids.shape), np.uint8)
            table[:ends[0]] = queries[:, lo:lo + step, None]
            docs.take(ids, axis=1, out=table[ends[0]:ends[1]])
            table[ends[1]:ends[2]] = ranks[:, None]
            table = table.reshape(ends[3], -1)
            _score_table(rankings.scores[lo:lo + step].ravel(), table[ends[2]:])
            yield _unpadded(table.T)

    return serialize.write_blocks(path, blocks())


def cmd_query(args) -> int:
    if not args.model and not args.svd and not args.baseline_only:
        raise UsageError("supply --model and/or --svd, or pass --baseline-only")
    if args.baseline_only and (args.model or args.svd or args.lam is not None
                               or args.fold_in_beta is not None):
        raise UsageError("--baseline-only ranks by the term cosine alone; it takes no "
                         "--model, --svd, --lambda or --fold-in-beta")
    if args.fold_in_beta is not None and not args.model:
        raise UsageError("--fold-in-beta tempers the fold-in of --model's aspect models; "
                         "it needs --model")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts_path = Path(args.counts)
    inputs, outputs = {}, {}
    counts = CountMatrix.load(counts_path, _entry(inputs, "counts", args.counts))
    vocab_path = _sidecar(counts_path, args.vocab, "vocab.tsv")
    if vocab_path is None:
        raise ValueError("no vocabulary file found; pass --vocab")
    vocab = _read(inputs, "vocab", vocab_path, Vocabulary.load)
    if len(vocab) != counts.n_terms:
        raise ValueError(f"{vocab_path}: vocabulary size does not match the count matrix")
    docids_path = _sidecar(counts_path, args.docids, "docids.tsv")
    doc_ext_ids = (_read(inputs, "docids", docids_path, _load_ids)
                   if docids_path is not None else [str(i) for i in range(counts.n_docs)])
    if len(doc_ext_ids) != counts.n_docs:
        raise ValueError(f"{docids_path}: document id map does not match the count matrix")

    stopwords = (_read(inputs, "stopwords", args.stopwords, load_stopwords)
                 if args.stopwords else None)
    query_ext_ids, query_texts = _load_queries(args, inputs)
    ext_judgments = _read(inputs, "qrels", args.qrels, parse_qrels) if args.qrels else None
    queries = _query_counts(query_texts, vocab, stopwords)
    scores, query_ok, doc_ok = cosine_scores(queries.to_csr(), counts.to_csr())

    lam = 1.0 if args.baseline_only else _LAMBDA if args.lam is None else args.lam
    fold_in_beta = _FOLD_IN_BETA if args.fold_in_beta is None else args.fold_in_beta
    method = "cos"
    if args.model or args.svd:
        pieces = []
        if args.model:
            models = [_load_model(counts, _entry(inputs, f"model{i}", p))
                      for i, p in enumerate(args.model)]
            # ordered by file digest so permuting --model files cannot change a bit
            for i in sorted(range(len(models)), key=lambda i: inputs[f"model{i}"]["sha256"]):
                pieces.append(latent_scores(fold_in(models[i], queries, beta=fold_in_beta),
                                            mixing_weight_matrix(models[i])))
            method = "plsi" if len(models) == 1 else "plsi-star"
        if args.svd:
            decomp = SvdDecomposition.load(args.svd, _entry(inputs, "svd", args.svd))
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
    _entry(outputs, "run", run_path, sha256=_write_run(run_path, rankings, doc_ext_ids))
    counters = {"unscored_documents": int((~doc_ok).sum()),
                "unscored_queries": int((~query_ok).sum())}

    if args.qrels:
        doc_index = {ext: i for i, ext in enumerate(doc_ext_ids)}
        judgments: dict[str, set[int]] = {qid: set() for qid in query_ext_ids}
        for qid, relevant in judgments.items():
            for ext_doc in ext_judgments.get(qid, ()):  # queries may lack judgments
                if ext_doc not in doc_index:
                    raise ValueError(f"{args.qrels}: unknown document id {ext_doc!r}")
                relevant.add(doc_index[ext_doc])
        try:
            summary = precision_recall(rankings, judgments)
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
        _entry(outputs, "pr", pr_path)
        _entry(outputs, "pr_curve", curve_path)
        counters["unjudged_queries"] = queries.n_docs - summary.n_queries
        summary_line = (f"method={method} queries={summary.n_queries} "
                        f"average_precision={summary.average_precision:.4f}")
    else:
        summary_line = f"method={method} queries={queries.n_docs} ranked={counts.n_docs} docs each"
    print(summary_line, *(f"{name}={n}" for name, n in counters.items()))

    parameters = {"lambda": lam, "baseline_only": args.baseline_only, "method": method,
                  "queries_format": args.queries_format, "stopwords": args.stopwords}
    if not args.baseline_only:
        parameters["fold_in_beta"] = fold_in_beta
    _write_manifest(out_dir, "query", parameters, inputs, outputs, counters)
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
    schedule = TemConfig()
    p.add_argument("--counts", required=True)
    p.add_argument("--k", type=_flag(int, lambda k: _require(k >= 1, ">= 1")), required=True,
                   help="number of factors / components")
    p.add_argument("--mode", choices=["em", "tem", "svd"], default="tem")
    for dest, (field, text) in _SCHEDULE.items():  # default None, so cmd_train sees what was given
        p.add_argument("--" + dest.replace("_", "-"), help=text, type=_flag(
            type(getattr(schedule, field)), lambda v, field=field: TemConfig(**{field: v})))
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
    p.add_argument("--model", nargs="*", action="extend", default=[],
                   help="aspect model file(s), the flag may repeat; several trigger "
                        "uniform averaging")
    p.add_argument("--svd", help="svd decomposition file for latent-space scoring")
    p.add_argument("--baseline-only", action="store_true",
                   help="rank by the raw term cosine only")
    p.add_argument("--lambda", dest="lam", type=_flag(float, lambda v: combined_scores(v, 0, 0)),
                   help=f"weight of the cosine score in the blend (default {_LAMBDA})")
    p.add_argument("--qrels", help="relevance judgments; enables precision-recall output")
    p.add_argument("--stopwords")
    p.add_argument("--vocab")
    p.add_argument("--docids")
    p.add_argument("--fold-in-beta", type=_flag(float, lambda v: _require(v > 0.0, "> 0")),
                   help=f"inverse temperature of the queries' fold-in (default {_FOLD_IN_BETA})")
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except BrokenPipeError:  # the reader of standard output has gone, as `| head` does
        # shutdown flushes standard output again: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
