"""Ingestion tests: tokenization, count matrices, splits, SMART parsing."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from plsa import corpus
from plsa import (
    CountMatrix,
    ParseError,
    Vocabulary,
    build_counts,
    load_stopwords,
    parse_qrels,
    SmartRecord,
    parse_smart_collection,
    split_heldout,
    tokenize,
)


class TestTokenize:
    def test_lowercase_and_stopwords(self):
        assert tokenize("The cat sat.", stopwords={"the"}) == ["cat", "sat"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_duplicates_preserved(self):
        assert tokenize("a a b") == ["a", "a", "b"]

    def test_punctuation_and_digits(self):
        assert tokenize("foo-bar, baz2!  qux_quux") == ["foo", "bar", "baz2", "qux", "quux"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(7)
        alphabet = list("abc XY.,;--12")
        for _ in range(50):
            text = "".join(rng.choice(alphabet, size=40))
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens


class TestBuildCounts:
    def test_basic_counts(self):
        vocab, counts = build_counts([["a", "b", "a"], ["b"]])
        assert counts.n_docs == 2
        assert counts.n_terms == 2
        entries = set(zip(counts.doc_ids.tolist(), counts.term_ids.tolist(),
                          counts.counts.tolist()))
        a, b = vocab.index["a"], vocab.index["b"]
        assert entries == {(0, a, 2), (0, b, 1), (1, b, 1)}

    def test_single_token(self):
        vocab, counts = build_counts([["x"]])
        assert (counts.n_docs, counts.n_terms) == (1, 1)
        assert counts.total == 1

    def test_total_equals_token_count(self):
        docs = [["a", "b"], ["c", "a", "a"], [], ["d"]]
        _, counts = build_counts(docs)
        assert counts.total == sum(len(d) for d in docs)

    def test_first_seen_term_order(self):
        vocab, _ = build_counts([["z", "a"], ["a", "m"]])
        assert vocab.terms == ["z", "a", "m"]

    def test_empty_docs_keep_rows(self):
        _, counts = build_counts([[], ["a"], []])
        assert counts.n_docs == 3
        assert counts.doc_ids.tolist() == [1]

    def test_all_empty_is_an_error(self):
        with pytest.raises(ValueError):
            build_counts([[], []])
        with pytest.raises(ValueError):
            build_counts([])
        with pytest.raises(ValueError):
            build_counts(iter([[], [], []]))


TOKENS = ("a", "b", "ab", "x1", "café", "straße", "日本", "ωμέγα", "z")


def assert_same_counts(got, want):
    (got_vocab, got_counts), (want_vocab, want_counts) = got, want
    assert got_vocab.terms == want_vocab.terms
    assert (got_counts.n_docs, got_counts.n_terms) == (want_counts.n_docs, want_counts.n_terms)
    for name in ("doc_ids", "term_ids", "counts"):
        np.testing.assert_array_equal(getattr(got_counts, name), getattr(want_counts, name))
        assert getattr(got_counts, name).dtype == np.int64


@st.composite
def token_docs(draw):
    """Token lists with repeated and non-ASCII tokens and many empty
    documents, sometimes leading or trailing, sometimes all but one."""
    token = st.one_of(st.sampled_from(TOKENS), st.text(min_size=1, max_size=3))
    docs = draw(st.lists(st.lists(token, max_size=8), min_size=1, max_size=30))
    shape = draw(st.sampled_from(["as drawn", "leading", "trailing", "all but one"]))
    n_empty = draw(st.integers(1, 5))
    if shape == "leading":
        docs = [[]] * n_empty + docs
    elif shape == "trailing":
        docs = docs + [[]] * n_empty
    elif shape == "all but one":
        keep = draw(st.integers(0, len(docs) - 1))
        docs = [doc if i == keep else [] for i, doc in enumerate(docs)]
    return docs


class TestBuildCountsOracle:
    """build_counts against the per-token dict loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(docs=token_docs(), block=st.integers(1, 4))
    def test_matches_dict_loop(self, docs, block):
        try:
            want = helpers.brute_build_counts(docs)
        except ValueError:
            with pytest.raises(ValueError, match="all documents are empty"):
                build_counts(docs)
            return
        # small blocks put first appearances of terms across block boundaries
        with mock.patch.object(corpus, "_COUNT_BLOCK", block):
            assert_same_counts(build_counts(docs), want)
            assert_same_counts(build_counts(list(d) for d in docs), want)

    def test_single_document(self):
        docs = [["b", "日本", "b", "a", "日本", "b"]]
        assert_same_counts(build_counts(iter(docs)), helpers.brute_build_counts(docs))

    def test_terms_first_seen_in_later_blocks(self):
        n_docs = 2 * corpus._COUNT_BLOCK + 7
        docs = [["common", f"t{d % 50}"] * (d % 3) for d in range(n_docs)]
        docs[corpus._COUNT_BLOCK] = ["fresh", "common", "fresh"]  # first doc of block 2
        docs[-1] = ["last", "common"]
        got = build_counts(doc for doc in docs)
        assert_same_counts(got, helpers.brute_build_counts(docs))
        assert got[0].terms[-2:] == ["fresh", "last"]


class TestCountMatrix:
    def test_from_entries_sorts(self):
        m = CountMatrix.from_entries(2, 3, [1, 0, 0], [0, 2, 1], [4, 5, 6])
        assert m.doc_ids.tolist() == [0, 0, 1]
        assert m.term_ids.tolist() == [1, 2, 0]
        assert m.counts.tolist() == [6, 5, 4]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CountMatrix.from_entries(2, 2, [0, 0], [1, 1], [1, 2])

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            CountMatrix.from_entries(2, 2, [0], [1], [0])  # zero count
        with pytest.raises(ValueError):
            CountMatrix.from_entries(2, 2, [2], [0], [1])  # doc out of range
        with pytest.raises(ValueError):
            CountMatrix.from_entries(2, 2, [0], [5], [1])  # term out of range

    def test_views_agree(self):
        rng = np.random.default_rng(3)
        cells = rng.choice(5 * 7, size=12, replace=False)
        m = CountMatrix.from_entries(5, 7, cells // 7, cells % 7,
                                     rng.integers(1, 9, size=12))
        dense = m.to_dense()
        assert dense.sum() == m.total
        np.testing.assert_array_equal(m.to_csr().toarray(), dense)
        np.testing.assert_array_equal(m.row_sums(), dense.sum(axis=1))
        np.testing.assert_array_equal(m.col_sums(), dense.sum(axis=0))

    def test_save_load_round_trip(self, tmp_path):
        m = CountMatrix.from_entries(4, 3, [0, 0, 2], [1, 2, 0], [3, 1, 7])
        path = tmp_path / "counts.tsv"
        m.save(path)
        back = CountMatrix.load(path)
        assert (back.n_docs, back.n_terms) == (4, 3)  # trailing empty doc kept
        np.testing.assert_array_equal(back.to_dense(), m.to_dense())

    def test_load_merges_duplicate_cells(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0\t1\t2\n0\t1\t3\n1\t0\t1\n")
        m = CountMatrix.load(path)
        assert m.to_dense()[0, 1] == 5

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(ParseError):
            CountMatrix.load(path)
        path.write_text("0\tx\t1\n")
        with pytest.raises(ParseError):
            CountMatrix.load(path)


SEPARATORS = ("\t", " ", "  ", " \t")
FILLER_LINES = ("", "   ", "\t", "# note", "#a # b", "  # indented", "#dims 9 9", "#dims\t9")


@st.composite
def count_files(draw):
    """Lines of a counts file in the accepted grammar: shuffled triples with
    duplicate cells (or strictly sorted ones, as `save` writes them), blank
    and comment lines, `#dims` present or absent, tab or space separators."""
    n_docs, n_terms = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.tuples(st.integers(0, n_docs - 1), st.integers(0, n_terms - 1))
    if draw(st.booleans()):
        cells = sorted(draw(st.sets(cell, min_size=1, max_size=20)))
    else:
        cells = draw(st.lists(cell, min_size=1, max_size=20))
    lines = []
    for d, w in cells:
        sep = draw(st.sampled_from(SEPARATORS))
        c = draw(st.integers(1, 2**40))
        lines.append(draw(st.sampled_from(["", " "])) + f"{d}{sep}{w}{sep}{c}")
    for filler in draw(st.lists(st.sampled_from(FILLER_LINES), max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), filler)
    if draw(st.booleans()):
        dims = f"#dims\t{n_docs + draw(st.integers(0, 2))}\t{n_terms + draw(st.integers(0, 2))}"
        lines.insert(draw(st.integers(0, len(lines))), dims)
    return lines


BAD_LINES = {
    "two fields": "0\t1",
    "four fields": "0\t1\t2\t3",
    "not an integer": "0\tx\t1",
    "a float": "0\t1\t1.5",
    "zero count": "0\t1\t0",
    "negative count": "1 0 -3",
    "trailing comment": "0\t1\t2 # note",
    "attached comment": "0\t1\t2#note",
}


def write_lines(path, lines, newline, final_newline=True):
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())


class TestCountsCodec:
    """CountMatrix.load against the line-by-line oracle, save against the
    f-string writer."""

    @settings(max_examples=150, deadline=None)
    @given(lines=count_files(), newline=st.sampled_from(["\n", "\r\n"]), final=st.booleans())
    def test_load_matches_line_oracle(self, tmp_path_factory, lines, newline, final):
        path = tmp_path_factory.mktemp("codec") / "counts.tsv"
        write_lines(path, lines, newline, final)
        want = helpers.brute_load_counts(path)
        got = CountMatrix.load(path)
        assert (got.n_docs, got.n_terms) == (want.n_docs, want.n_terms)
        for name in ("doc_ids", "term_ids", "counts"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(lines=count_files(), newline=st.sampled_from(["\n", "\r\n"]), data=st.data(),
           bad=st.sampled_from(sorted(BAD_LINES.values())))
    def test_bad_line_reported_where_the_oracle_reports_it(
            self, tmp_path_factory, lines, newline, data, bad):
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        path = tmp_path_factory.mktemp("codec") / "counts.tsv"
        write_lines(path, lines, newline)
        with pytest.raises(ParseError) as want:
            helpers.brute_load_counts(path)
        with pytest.raises(ParseError) as got:
            CountMatrix.load(path)
        assert got.value.line_no == want.value.line_no
        assert str(got.value) == str(want.value)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 9), n_terms=st.integers(1, 9),
           max_count=st.sampled_from([5, 2**62]))
    def test_save_bytes_match_fstring_writer(self, tmp_path_factory, seed, n_docs, n_terms,
                                             max_count):
        rng = np.random.default_rng(seed)
        m = helpers.random_counts(rng, n_docs, n_terms, rng.integers(0, n_docs * n_terms + 1),
                                  max_count)
        folder = tmp_path_factory.mktemp("codec")
        m.save(folder / "new.tsv")
        helpers.brute_save_counts(m, folder / "old.tsv")
        assert (folder / "new.tsv").read_bytes() == (folder / "old.tsv").read_bytes()

    def test_save_spanning_several_blocks(self, tmp_path):
        m = helpers.random_counts(np.random.default_rng(5), 400, 300, 70_000, max_count=900)
        m.save(tmp_path / "new.tsv")
        helpers.brute_save_counts(m, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()
        back = CountMatrix.load(tmp_path / "new.tsv")
        np.testing.assert_array_equal(back.to_dense(), m.to_dense())

    # every digit-width boundary, so one block mixes values of every width
    WIDTH_EDGES = sorted({0, *(10**k for k in range(19)), *(10**k - 1 for k in range(1, 19))})

    @pytest.mark.parametrize("column", ["doc_ids", "term_ids", "counts"])
    def test_save_at_digit_width_boundaries(self, tmp_path, column):
        edges = np.array(self.WIDTH_EDGES, dtype=np.int64)
        n = edges.size
        if column == "doc_ids":
            m = CountMatrix(10**18 + 1, 1, edges, np.zeros(n), np.ones(n))
        elif column == "term_ids":
            m = CountMatrix(1, 10**18 + 1, np.zeros(n), edges, np.ones(n))
        else:
            values = np.append(edges[1:], 2**63 - 1)
            m = CountMatrix(values.size, 1, np.arange(values.size), np.zeros(values.size),
                            values)
        m.save(tmp_path / "new.tsv")
        helpers.brute_save_counts(m, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()
        back = CountMatrix.load(tmp_path / "new.tsv")
        np.testing.assert_array_equal(getattr(back, column), getattr(m, column))

    def test_huge_dims_cost_no_memory(self, tmp_path):
        # nothing in save or load may be sized by n_docs or n_terms
        m = CountMatrix(1, 10**12, [0], [10**12 - 1], [3])
        path = tmp_path / "counts.tsv"
        tracemalloc.start()
        try:
            m.save(path)
            back = CountMatrix.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == "#dims\t1\t1000000000000\n0\t999999999999\t3\n"
        assert (back.n_docs, back.n_terms) == (1, 10**12)
        assert back.term_ids.tolist() == [10**12 - 1] and back.counts.tolist() == [3]
        assert peak < 4 * 2**20

    def test_id_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0\t1\t2\n1\t99999999999999999999\t1\n")
        with pytest.raises(ParseError, match="int64") as excinfo:
            CountMatrix.load(path)
        assert excinfo.value.line_no == 2

    def test_overflowing_cell_sum_is_named(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0 0 9223372036854775000\n1 1 1\n0 0 800\n0 0 8\n0 0 1\n")
        with pytest.raises(ParseError, match=r"cell \(0, 0\) sum beyond int64") as excinfo:
            CountMatrix.load(path)
        assert excinfo.value.line_no == 4

    def test_largest_cell_sum_still_fits(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0 0 9223372036854775000\n1 1 1\n0 0 807\n")
        assert CountMatrix.load(path).counts.tolist() == [2**63 - 1, 1]

    def test_key_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("4611686018427387904 3 1\n")
        with pytest.raises(ParseError, match="cell keys beyond int64"):
            CountMatrix.load(path)

    def test_ids_outside_dims_rejected(self, tmp_path):
        # the key 0 * 2 + 3 is also the key of cell (1, 1)
        path = tmp_path / "counts.tsv"
        path.write_text("#dims\t3\t2\n0\t3\t1\n")
        with pytest.raises(ParseError, match="term_id out of range"):
            CountMatrix.load(path)

    def test_bad_dims_header_names_its_line(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("0 0 1\r\n#dims\tx\t3\r\n")
        with pytest.raises(ParseError, match="#dims") as excinfo:
            CountMatrix.load(path)
        assert excinfo.value.line_no == 2

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_bytes(b"1 0 2\r0 1 3\r#dims\t3\t4\r")
        m = CountMatrix.load(path)
        assert (m.n_docs, m.n_terms) == (3, 4)
        assert m.to_dense()[1, 0] == 2 and m.to_dense()[0, 1] == 3

    def test_compressed_suffix_read_as_plain_text(self, tmp_path):
        path = tmp_path / "counts.gz"
        path.write_text("#dims\t2\t2\n0\t1\t4\n")
        assert CountMatrix.load(path).to_dense().tolist() == [[0, 4], [0, 0]]


class TestVocabulary:
    def test_bijection(self):
        v = Vocabulary(["a", "b", "c"])
        for i, t in enumerate(v.terms):
            assert v.index[t] == i
            assert v.terms[i] == t
        assert "b" in v.index and "x" not in v.index

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    def test_save_load(self, tmp_path):
        v = Vocabulary(["alpha", "beta"])
        path = tmp_path / "vocab.tsv"
        v.save(path)
        assert Vocabulary.load(path).terms == v.terms

    # digits that str.isdigit() accepts: Arabic-Indic zero and one, superscripts
    @pytest.mark.parametrize("text, line_no", [
        ("\u0660\tfoo\n\u0661\tbar\n", 1),
        ("\u00b9\tfoo\n", 1),
        ("0\tfoo\n\u00b2\tbar\n", 2),
    ])
    def test_ids_must_be_ascii_decimal(self, tmp_path, text, line_no):
        path = tmp_path / "vocab.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="ASCII decimal") as excinfo:
            Vocabulary.load(path)
        assert (excinfo.value.path, excinfo.value.line_no) == (str(path), line_no)

    @pytest.mark.parametrize("content, message", [
        (b"0\tfoo\n1\tfoo\n", "duplicate terms"),
        (b"0\tfoo\n1\tb\xffr\n", "not UTF-8"),
    ])
    def test_rejected_file_is_named(self, tmp_path, content, message):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(content)
        with pytest.raises(ParseError, match=message) as excinfo:
            Vocabulary.load(path)
        assert excinfo.value.path == str(path)


class TestSplitHeldout:
    def _corpus_of_total(self, total):
        # `total` cells of count 1 spread over a 100-column grid
        ids = np.arange(total)
        return CountMatrix.from_entries(
            (total + 99) // 100, 100, ids // 100, ids % 100, np.ones(total, dtype=np.int64))

    def test_reconstruction_exact(self):
        rng = np.random.default_rng(11)
        counts = CountMatrix.from_entries(
            6, 9, *(lambda c: (c // 9, c % 9, rng.integers(1, 12, size=c.size)))(
                rng.choice(54, size=30, replace=False)))
        pair = split_heldout(counts, 0.25, seed=5)
        np.testing.assert_array_equal(pair.train.to_dense() + pair.heldout.to_dense(),
                                      counts.to_dense())
        assert pair.train.n_docs == pair.heldout.n_docs == counts.n_docs
        assert pair.train.n_terms == pair.heldout.n_terms == counts.n_terms

    def test_deterministic(self):
        counts = self._corpus_of_total(500)
        a = split_heldout(counts, 0.1, seed=42)
        b = split_heldout(counts, 0.1, seed=42)
        np.testing.assert_array_equal(a.train.counts, b.train.counts)
        np.testing.assert_array_equal(a.heldout.counts, b.heldout.counts)

    def test_tiny_fraction_keeps_everything(self):
        counts = self._corpus_of_total(200)
        pair = split_heldout(counts, 1e-9, seed=0)
        assert pair.heldout.total == 0
        np.testing.assert_array_equal(pair.train.to_dense(), counts.to_dense())

    def test_heldout_share_tracks_fraction(self):
        # Binomial(10000, 0.1): five sigma is 150, so [800, 1200] is generous.
        counts = self._corpus_of_total(10000)
        for seed in (0, 1, 2):
            pair = split_heldout(counts, 0.1, seed=seed)
            assert 800 <= pair.heldout.total <= 1200
            share = pair.heldout.total / counts.total
            assert abs(share - 0.1) <= 0.02

    def test_fraction_bounds(self):
        counts = self._corpus_of_total(10)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split_heldout(counts, bad, seed=0)


SMART_SAMPLE = """.I 1
.T
Flow Equations
.A
Someone
.W
boundary layer flow
over a flat plate
.X
17 2 1
.I 2
.W
heat transfer in pipes
.I 3
.B
Journal 1959
.W
supersonic wings
"""


class TestSmartParsing:
    def test_minimal_record(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text(".I 1\n.W\nhello")
        records = parse_smart_collection(path)
        assert len(records) == 1
        assert records[0].id == "1"
        assert records[0].text == "hello"

    def test_sections_concatenated(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text(SMART_SAMPLE)
        records = parse_smart_collection(path)
        assert [r.id for r in records] == ["1", "2", "3"]
        assert "Flow Equations" in records[0].text
        assert "Someone" in records[0].text
        assert "flat plate" in records[0].text
        assert "17 2 1" not in records[0].text  # .X content skipped
        assert records[1].text == "heat transfer in pipes"
        assert "Journal 1959" in records[2].text

    def test_record_count_matches_markers(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text(SMART_SAMPLE)
        n_markers = sum(1 for line in SMART_SAMPLE.splitlines() if line.startswith(".I "))
        assert len(parse_smart_collection(path)) == n_markers

    def test_queries_same_grammar(self, tmp_path):
        path = tmp_path / "q.qry"
        path.write_text(".I 4\n.W\nwhat about flow\n")
        assert parse_smart_collection(path) == [SmartRecord("4", "what about flow")]

    def test_content_before_first_record(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text("stray text\n.I 1\n.W\nx\n")
        with pytest.raises(ParseError, match=r":1:"):
            parse_smart_collection(path)

    def test_marker_without_id(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text(".I 1\n.W\nx\n.I\n.W\ny\n")
        with pytest.raises(ParseError, match=r":4:"):
            parse_smart_collection(path)

    def test_section_before_record(self, tmp_path):
        path = tmp_path / "c.all"
        path.write_text(".W\nx\n")
        with pytest.raises(ParseError, match=r":1:"):
            parse_smart_collection(path)


class TestQrels:
    def test_two_columns(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 10\n1 11\n2 10\n1 10\n")
        judgments = parse_qrels(path)
        assert judgments == {"1": {"10", "11"}, "2": {"10"}}

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 10 3\n1 11 2\n")
        assert parse_qrels(path) == {"1": {"10", "11"}}

    def test_trec_layout_autodetected(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 0 13 1\n1 0 14 1\n2 0 13 2\n")
        assert parse_qrels(path) == {"1": {"13", "14"}, "2": {"13"}}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 10\njustone\n")
        with pytest.raises(ParseError, match=r":2:"):
            parse_qrels(path)


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\n\nand\n of \n")
    assert load_stopwords(path) == {"the", "and", "of"}
