// Chunk-boundary correctness and new-vs-legacy parser parity: the
// streaming frontend must produce Circuits that are bit-identical (same
// node ids, same serialized bytes, same hashes) to the legacy
// parse_verilog on every design, at every chunk size and thread count.

#include "ingest/stream_parser.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/embedded.hpp"
#include "dataset/generator.hpp"
#include "dataset/test_designs.hpp"
#include "netlist/structural_hash.hpp"
#include "netlist/verilog_io.hpp"
#include "runtime/thread_pool.hpp"

namespace deepseq::ingest {
namespace {

IngestOptions opts(std::size_t chunk, int threads) {
  IngestOptions o;
  o.chunk_bytes = chunk;
  o.threads = threads;
  return o;
}

/// Every Circuit comparison in this suite: identical creation-order ids
/// (exact_hash), identical structure (structural_hash) and identical
/// serialized bytes.
void expect_identical(const Circuit& a, const Circuit& b,
                      const std::string& label) {
  EXPECT_EQ(exact_hash(a), exact_hash(b)) << label;
  EXPECT_EQ(structural_hash(a).to_string(), structural_hash(b).to_string())
      << label;
  EXPECT_EQ(write_verilog_string(a), write_verilog_string(b)) << label;
}

/// The designs the repo already tests on: all six Table IV designs (at
/// test scale) plus the embedded reference netlists and one generic-gate
/// generator circuit.
std::vector<Circuit> testdata_designs() {
  std::vector<Circuit> designs;
  for (TestDesign& d : build_all_test_designs(1.0 / 16.0, 7))
    designs.push_back(std::move(d.netlist));
  designs.push_back(iscas89_s27());
  designs.push_back(counter4());
  Rng rng(55);
  GeneratorSpec spec;
  spec.num_gates = 300;
  designs.push_back(generate_circuit(spec, rng));
  return designs;
}

std::string temp_file(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(StreamParser, ChunkSweepIsByteIdenticalToLegacyOnAllTestdataDesigns) {
  const std::size_t chunks[] = {7, 64, 4096, std::size_t(1) << 30};
  int i = 0;
  for (const Circuit& design : testdata_designs()) {
    const std::string text = write_verilog_string(design);
    const Circuit legacy = parse_verilog_string(text);
    const std::string label = "design " + std::to_string(i++);
    for (const std::size_t chunk : chunks) {
      StreamStats stats;
      auto modules = parse_verilog_modules_string(text, opts(chunk, 1), &stats);
      ASSERT_EQ(modules.size(), 1u) << label;  // DFF companion skipped
      expect_identical(legacy, modules[0].circuit,
                       label + " chunk " + std::to_string(chunk));
      EXPECT_EQ(stats.file_bytes, text.size());
      EXPECT_LE(stats.peak_carry_bytes, stats.max_token_bytes);
    }
  }
}

TEST(StreamParser, ThreadSweepIsByteIdenticalAndOrdered) {
  // One multi-module stream; every thread count must return the same
  // circuits in source order.
  std::string text;
  std::vector<Circuit> sources;
  Rng rng(11);
  for (int m = 0; m < 12; ++m) {
    GeneratorSpec spec;
    spec.name = "mod" + std::to_string(m);
    spec.num_gates = 120 + 40 * m;
    sources.push_back(generate_circuit(spec, rng));
    text += write_verilog_string(sources.back());  // each brings a DFF companion
  }
  const auto reference =
      parse_verilog_modules_string(text, opts(1 << 16, 1), nullptr);
  ASSERT_EQ(reference.size(), sources.size());
  for (const int threads : {1, 2, 4}) {
    for (const std::size_t chunk : {std::size_t(64), std::size_t(1) << 16}) {
      auto modules = parse_verilog_modules_string(text, opts(chunk, threads));
      ASSERT_EQ(modules.size(), reference.size());
      for (std::size_t k = 0; k < modules.size(); ++k) {
        EXPECT_EQ(modules[k].circuit.name(), sources[k].name());
        expect_identical(reference[k].circuit, modules[k].circuit,
                         "module " + std::to_string(k) + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST(StreamParser, ExternalPoolIsEquivalent) {
  Rng rng(3);
  GeneratorSpec spec;
  spec.num_gates = 200;
  const std::string text = write_verilog_string(generate_circuit(spec, rng));
  runtime::ThreadPool pool(3);
  IngestOptions with_pool = opts(128, 1);
  with_pool.pool = &pool;
  auto a = parse_verilog_modules_string(text, with_pool);
  auto b = parse_verilog_modules_string(text, opts(128, 1));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  expect_identical(a[0].circuit, b[0].circuit, "external pool");
}

TEST(StreamParser, FileEntryPointMatchesStringEntryPoint) {
  const Circuit design = counter4();
  const std::string text = write_verilog_string(design);
  const std::string path = temp_file("stream_parser_file.v", text);
  for (const std::size_t chunk : {std::size_t(7), std::size_t(1) << 20}) {
    StreamStats stats;
    auto modules = parse_verilog_modules_file(path, opts(chunk, 2), &stats);
    ASSERT_EQ(modules.size(), 1u);
    expect_identical(parse_verilog_string(text), modules[0].circuit, "file");
    EXPECT_EQ(stats.file_bytes, text.size());
    EXPECT_EQ(stats.chunk_bytes, chunk);
    // mmap chunks are zero-copy views; the fallback buffer is one chunk.
    EXPECT_LE(stats.reader_buffer_bytes, chunk);
  }
}

TEST(StreamParser, LegacyFileEntryPointIsStreamingAndIdentical) {
  // netlist::parse_verilog_file routes through the chunked reader but
  // must behave exactly like the legacy first-module parse.
  const Circuit design = iscas89_s27();
  const std::string text = write_verilog_string(design);
  const std::string path = temp_file("legacy_file_route.v", text);
  expect_identical(parse_verilog_string(text, "legacy_file_route"),
                   parse_verilog_file(path), "parse_verilog_file");
}

TEST(StreamParser, SrcBytesCoverModuleSpans) {
  const std::string text =
      "  module a; endmodule\n\nmodule b; endmodule  // tail\n";
  auto modules = parse_verilog_modules_string(text, opts(8, 1));
  ASSERT_EQ(modules.size(), 2u);
  EXPECT_EQ(modules[0].src_bytes, std::string("module a; endmodule").size());
  EXPECT_EQ(modules[1].src_bytes, std::string("module b; endmodule").size());
}

TEST(StreamParser, BehavioralModulesAreSkippedOrRejected) {
  const std::string text =
      "module good (a, y); input a; output y; buf g (y, a); endmodule\n"
      "\nmodule DFF (Q, D, CK);\n  output reg Q;\n  input D, CK;\n"
      "  initial Q = 1'b0;\n  always @(posedge CK) Q <= D;\nendmodule\n";
  StreamStats stats;
  auto modules = parse_verilog_modules_string(text, opts(16, 1), &stats);
  ASSERT_EQ(modules.size(), 1u);
  EXPECT_EQ(modules[0].circuit.name(), "good");
  EXPECT_EQ(stats.modules_skipped, 1u);

  IngestOptions strict = opts(16, 1);
  strict.skip_behavioral = false;
  EXPECT_THROW(parse_verilog_modules_string(text, strict), ParseError);
}

TEST(StreamParser, MalformedInputsFailFast) {
  // Truncated module: the parser's own missing-endmodule diagnosis, same
  // as the legacy path, at every chunk size and thread count.
  const std::string truncated = "module m (a);\n  input a;\n  wire w;\n";
  std::string legacy_what;
  try {
    parse_verilog_string(truncated);
    FAIL();
  } catch (const ParseError& e) {
    legacy_what = e.what();
  }
  for (const std::size_t chunk : {std::size_t(7), std::size_t(1) << 20}) {
    for (const int threads : {1, 2}) {
      try {
        parse_verilog_modules_string(truncated, opts(chunk, threads));
        FAIL() << "chunk " << chunk;
      } catch (const ParseError& e) {
        EXPECT_EQ(legacy_what, std::string(e.what()));
      }
    }
  }

  // Token split at EOF inside a comment: unterminated, fail-fast.
  EXPECT_THROW(
      parse_verilog_modules_string("module m; endmodule /* trailing",
                                   opts(7, 1)),
      ParseError);

  // Garbage between modules is not silently ignored in corpus mode.
  try {
    parse_verilog_modules_string("module a; endmodule stray tokens",
                                 opts(64, 1));
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected 'module'"),
              std::string::npos);
  }

  // A parse error inside an early module surfaces even when later modules
  // are fine and workers run in parallel.
  const std::string mixed =
      "module bad; nonsense g (x, y); endmodule\n"
      "module ok (a, y); input a; output y; buf g (y, a); endmodule\n";
  EXPECT_THROW(parse_verilog_modules_string(mixed, opts(64, 4)), ParseError);

  EXPECT_THROW(parse_verilog_modules_file("/nonexistent/path.v", opts(64, 1)),
               ParseError);
}

TEST(StreamParser, NoSlurpContract) {
  // A file many times the chunk size: the frontend's owned buffers stay
  // bounded by max-token + chunk, never the file. This is the CI gate of
  // the acceptance criteria (structural, core-count independent).
  Rng rng(17);
  GeneratorSpec spec;
  spec.num_gates = 4000;
  spec.num_ffs = 200;
  const std::string text = write_verilog_string(generate_circuit(spec, rng));
  const std::size_t chunk = 4096;
  ASSERT_GT(text.size(), 32 * chunk);
  const std::string path = temp_file("no_slurp.v", text);
  for (const int threads : {1, 4}) {
    StreamStats stats;
    auto modules = parse_verilog_modules_file(path, opts(chunk, threads), &stats);
    ASSERT_EQ(modules.size(), 1u);
    EXPECT_LE(stats.peak_carry_bytes, stats.max_token_bytes + chunk);
    EXPECT_LE(stats.peak_carry_bytes, stats.max_token_bytes);  // tighter
    EXPECT_LT(stats.max_token_bytes, 64u);  // identifiers, not the file
    EXPECT_LE(stats.reader_buffer_bytes, chunk);
    EXPECT_EQ(stats.file_bytes, text.size());
  }
}

TEST(StreamParser, OptionResolutionIsStrict) {
  EXPECT_GT(IngestOptions{}.resolved_chunk_bytes(), 0u);
  EXPECT_EQ(opts(123, 1).resolved_chunk_bytes(), 123u);
  EXPECT_EQ(opts(0, 5).resolved_threads(), 5);
}

TEST(StreamParser, EnvChunkKnobFailsFastOnUnparsableOrNonPositive) {
  for (const char* bad : {"64KiB", "0", "-4096", "4096x"}) {
    ::setenv("DEEPSEQ_INGEST_CHUNK", bad, 1);
    EXPECT_THROW(IngestOptions{}.resolved_chunk_bytes(), Error) << bad;
  }
  EXPECT_EQ(opts(123, 1).resolved_chunk_bytes(), 123u);  // explicit wins
  ::setenv("DEEPSEQ_INGEST_CHUNK", "65536", 1);
  EXPECT_EQ(IngestOptions{}.resolved_chunk_bytes(), 65536u);
  ::unsetenv("DEEPSEQ_INGEST_CHUNK");
}

TEST(StreamParser, EnvThreadsKnobFailsFastOutsideZeroTo256) {
  // resolved_threads() only resolves the count; it starts no thread.
  for (const char* bad : {"4x", "257", "-1", "abc", "100000"}) {
    ::setenv("DEEPSEQ_INGEST_THREADS", bad, 1);
    EXPECT_THROW(IngestOptions{}.resolved_threads(), Error) << bad;
  }
  EXPECT_EQ(opts(0, 5).resolved_threads(), 5);  // explicit wins
  for (const int ok : {0, 1, 256}) {
    ::setenv("DEEPSEQ_INGEST_THREADS", std::to_string(ok).c_str(), 1);
    EXPECT_EQ(IngestOptions{}.resolved_threads(), ok);
  }
  ::unsetenv("DEEPSEQ_INGEST_THREADS");
}

}  // namespace
}  // namespace deepseq::ingest
