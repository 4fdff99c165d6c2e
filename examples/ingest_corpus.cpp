// Corpus ingestion harness: stream a directory tree of Verilog netlists
// through the chunked parallel frontend (src/ingest/) and emit the
// manifest.
//
//   ingest_corpus [dir]     (dir defaults to DEEPSEQ_CORPUS_DIR, strict)
//
// Knobs: DEEPSEQ_INGEST_THREADS (0..256; 1 = inline, 0 = hardware), and
// DEEPSEQ_INGEST_CHUNK (lexer window bytes >= 1, default 1 MiB); a value
// that is unparsable or out of range exits 1 naming the knob, and so does
// an unset DEEPSEQ_CORPUS_DIR or one that is not a directory. The manifest
// JSON (per-design name/file/bytes/nodes/FFs/levels/structural hash/parse
// time plus scan totals and the no-slurp evidence) is written to
// corpus_manifest.json and summarized on stdout. Exits 1 if the
// structural no-slurp contract is violated (lexer carry-over exceeding
// the longest token — cannot happen by construction; this is the guard
// CI leans on).

#include <cstdio>
#include <fstream>

#include "common/env.hpp"
#include "ingest/corpus.hpp"

using namespace deepseq;

int main(int argc, char** argv) try {
  ingest::CorpusOptions options;
  ingest::Corpus corpus = argc > 1 ? ingest::Corpus::scan(argv[1], options)
                                   : ingest::Corpus::scan_from_env();

  const std::string path =
      env_string("DEEPSEQ_MANIFEST", "corpus_manifest.json");
  {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "ingest_corpus: cannot write %s\n", path.c_str());
      return 1;
    }
    out << corpus.manifest_json() << "\n";
  }

  std::uint64_t nodes = 0, ffs = 0;
  for (const auto& entry : corpus) {
    nodes += entry.record.nodes;
    ffs += entry.record.ffs;
  }
  std::printf(
      "ingest_corpus: %zu designs (%llu nodes, %llu FFs) from %llu files, "
      "%.1f MB in %.0f ms (%.1f MB/s), %llu dups dropped, %llu behavioral "
      "skipped\n",
      corpus.size(), static_cast<unsigned long long>(nodes),
      static_cast<unsigned long long>(ffs),
      static_cast<unsigned long long>(corpus.files_scanned()),
      corpus.total_bytes() / 1e6, corpus.elapsed_ms(),
      corpus.total_bytes() / 1e6 / (corpus.elapsed_ms() / 1e3 + 1e-9),
      static_cast<unsigned long long>(corpus.dup_dropped()),
      static_cast<unsigned long long>(corpus.modules_skipped()));
  std::printf("ingest_corpus: manifest -> %s\n", path.c_str());

  if (corpus.peak_carry_bytes() > corpus.max_token_bytes()) {
    std::fprintf(stderr,
                 "ingest_corpus: no-slurp contract violated: carry %zu > "
                 "max token %zu\n",
                 corpus.peak_carry_bytes(), corpus.max_token_bytes());
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  // A bad knob or corpus directory: the error names the variable.
  std::fprintf(stderr, "ingest_corpus: %s\n", e.what());
  return 1;
}
