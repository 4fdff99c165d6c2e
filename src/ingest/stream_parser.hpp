#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"

namespace deepseq::runtime {
class ThreadPool;
}

namespace deepseq::ingest {

/// Knobs of the streaming frontend. Zero/negative values defer to the
/// environment: chunk_bytes 0 reads DEEPSEQ_INGEST_CHUNK (default 1 MiB,
/// must parse to an integer >= 1), threads < 0 reads
/// DEEPSEQ_INGEST_THREADS (default 1 = parse inline on the calling
/// thread; 0 = one worker per hardware thread; at most 256). A set value
/// that does not parse or lies outside its range throws naming the
/// variable (env_int_in). Results are bit-identical at every chunk size
/// and thread count by construction: one lexer feeds fixed-size windows in
/// order, and each module's token slice runs through the same
/// `parse_verilog_tokens` the legacy parser uses.
struct IngestOptions {
  std::size_t chunk_bytes = 0;
  int threads = -1;
  /// Skip modules containing behavioral constructs (always/initial/@/
  /// posedge/negedge/specify) instead of failing the file — gate-level
  /// corpora ship a behavioral DFF companion module next to the netlists.
  bool skip_behavioral = true;
  /// Parse worker pool shared across files (e.g. by Corpus); when set it
  /// overrides `threads`. Not owned.
  runtime::ThreadPool* pool = nullptr;

  std::size_t resolved_chunk_bytes() const;
  int resolved_threads() const;
};

/// One structural module parsed out of a stream, in source order.
struct ParsedModule {
  Circuit circuit;
  std::uint64_t src_bytes = 0;  // byte span from `module` through `endmodule`
  double parse_ms = 0.0;        // tokens -> Circuit wall time (lexing excluded)
};

/// Observed per-stream facts, including the structural no-slurp evidence:
/// peak_carry_bytes (the lexer's only cross-chunk buffer, bounded by the
/// longest token) and reader_buffer_bytes (0 when mmap-backed, one chunk
/// otherwise) are the two owned allocations that could conceivably scale
/// with the input — tests and the CI smoke assert
/// peak_carry_bytes <= max_token_bytes and reader_buffer_bytes <= chunk.
struct StreamStats {
  std::uint64_t file_bytes = 0;
  std::uint64_t modules_parsed = 0;
  std::uint64_t modules_skipped = 0;
  std::size_t chunk_bytes = 0;
  std::size_t peak_carry_bytes = 0;
  std::size_t max_token_bytes = 0;
  std::size_t reader_buffer_bytes = 0;
  bool mmap_backed = false;
  double elapsed_ms = 0.0;
};

/// Parse every structural module of a Verilog netlist file, lexing in
/// chunks (mmap-backed, never slurping the text) and parsing module token
/// slices on the pool when one is configured. Modules come back in source
/// order; the first parse/lex error in source order is rethrown.
std::vector<ParsedModule> parse_verilog_modules_file(
    const std::string& path, const IngestOptions& options = {},
    StreamStats* stats = nullptr);

/// Same frontend over an in-memory text (tests use this to sweep chunk
/// sizes without touching the filesystem).
std::vector<ParsedModule> parse_verilog_modules_string(
    const std::string& text, const IngestOptions& options = {},
    StreamStats* stats = nullptr);

/// Streaming replacement for the legacy file entry point: lex chunks only
/// until the first `endmodule`, parse that one module, ignore the rest of
/// the file (exactly the legacy single-module behavior, without the
/// whole-file std::string). netlist::parse_verilog_file routes here.
Circuit parse_verilog_file_first_module(const std::string& path,
                                        std::string fallback_name,
                                        std::size_t chunk_bytes = 0);

}  // namespace deepseq::ingest
