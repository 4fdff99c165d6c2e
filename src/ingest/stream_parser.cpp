#include "ingest/stream_parser.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "ingest/lexer.hpp"
#include "ingest/source.hpp"
#include "netlist/verilog_io.hpp"
#include "runtime/thread_pool.hpp"

namespace deepseq::ingest {

namespace {

constexpr std::size_t kDefaultChunkBytes = 1 << 20;  // 1 MiB

/// Tokens whose presence marks a module as behavioral (simulation-only):
/// the DFF companion module write_verilog appends trips always/initial/@.
bool behavioral_token(const std::string& text) {
  if (text == "@" || text == "#") return true;
  const std::string low = to_lower(text);
  return low == "always" || low == "initial" || low == "specify";
}

/// One module's token slice, cut out of the stream in source order.
struct ModuleSlice {
  std::vector<VerilogToken> tokens;
  std::uint64_t src_bytes = 0;
  bool behavioral = false;
};

/// Cuts the incoming token stream at module/endmodule boundaries. Tokens
/// between modules must open the next module; anything else is a
/// fail-fast (a corpus file is a plain concatenation of modules).
class ModuleSplitter {
 public:
  template <typename Sink>
  void consume(std::vector<VerilogToken>& tokens,
               std::vector<std::uint64_t>& offsets, Sink&& sink) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      VerilogToken& t = tokens[i];
      if (!in_module_) {
        if (to_lower(t.text) != "module")
          throw ParseError("expected 'module'", t.line);
        in_module_ = true;
        behavioral_ = false;
        start_offset_ = offsets[i];
      } else if (behavioral_token(t.text)) {
        behavioral_ = true;
      }
      const bool ends = in_module_ && to_lower(t.text) == "endmodule";
      const std::uint64_t end_offset = offsets[i] + t.text.size();
      current_.push_back(std::move(t));
      if (ends) {
        in_module_ = false;
        sink(ModuleSlice{std::move(current_), end_offset - start_offset_,
                         behavioral_});
        current_.clear();
      }
    }
    tokens.clear();
    offsets.clear();
  }

  bool mid_module() const { return in_module_; }
  /// The partial slice of a module truncated at EOF (parsed anyway so the
  /// reported error is the parser's own missing-endmodule message).
  ModuleSlice take_partial() {
    in_module_ = false;
    return ModuleSlice{std::move(current_), 0, false};
  }

 private:
  bool in_module_ = false;
  bool behavioral_ = false;
  std::uint64_t start_offset_ = 0;
  std::vector<VerilogToken> current_;
};

ParsedModule parse_slice(ModuleSlice&& slice) {
  WallTimer timer;
  ParsedModule out;
  out.src_bytes = slice.src_bytes;
  out.circuit = parse_verilog_tokens(std::move(slice.tokens));
  out.parse_ms = timer.millis();
  return out;
}

/// The shared driver: pump chunks through the lexer, cut modules, parse
/// them inline or on the pool, return modules in source order. On failure
/// the earliest error in source order wins: module parse errors (checked
/// in dispatch order) outrank a lex/split error, which always lies
/// further into the stream than any fully-dispatched module.
std::vector<ParsedModule> run_stream(
    const std::function<std::string_view()>& next_chunk,
    const IngestOptions& options, StreamStats* stats) {
  WallTimer total;
  StreamLexer lexer;
  ModuleSplitter splitter;

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    const int threads = options.resolved_threads();
    if (threads != 1)
      pool = (owned_pool = std::make_unique<runtime::ThreadPool>(threads))
                 .get();
  }

  std::vector<std::future<ParsedModule>> futures;
  std::vector<ParsedModule> modules;
  std::uint64_t skipped = 0;
  const auto sink = [&](ModuleSlice&& slice) {
    if (slice.behavioral && options.skip_behavioral) {
      ++skipped;
      return;
    }
    if (pool != nullptr) {
      futures.push_back(pool->submit_with_result(
          [s = std::make_shared<ModuleSlice>(std::move(slice))]() {
            return parse_slice(std::move(*s));
          }));
    } else {
      modules.push_back(parse_slice(std::move(slice)));
    }
  };

  std::exception_ptr stream_error;
  try {
    for (;;) {
      const std::string_view chunk = next_chunk();
      if (chunk.empty()) break;
      lexer.feed(chunk);
      splitter.consume(lexer.tokens(), lexer.offsets(), sink);
    }
    lexer.finish();
    splitter.consume(lexer.tokens(), lexer.offsets(), sink);
    if (splitter.mid_module()) sink(splitter.take_partial());
  } catch (...) {
    stream_error = std::current_exception();
  }

  for (auto& f : futures) modules.push_back(f.get());  // source order
  if (stream_error) std::rethrow_exception(stream_error);

  if (stats != nullptr) {
    stats->file_bytes = lexer.bytes_fed();
    stats->modules_parsed = modules.size();
    stats->modules_skipped = skipped;
    stats->peak_carry_bytes = lexer.peak_carry_bytes();
    stats->max_token_bytes = lexer.max_token_bytes();
    stats->elapsed_ms = total.millis();
  }
  return modules;
}

}  // namespace

std::size_t IngestOptions::resolved_chunk_bytes() const {
  if (chunk_bytes > 0) return chunk_bytes;
  return static_cast<std::size_t>(
      env_int_in("DEEPSEQ_INGEST_CHUNK", static_cast<std::int64_t>(kDefaultChunkBytes),
                 1, std::numeric_limits<std::int64_t>::max()));
}

int IngestOptions::resolved_threads() const {
  if (threads >= 0) return threads;
  // 0 = one worker per hardware thread
  return static_cast<int>(env_int_in("DEEPSEQ_INGEST_THREADS", 1, 0, 256));
}

std::vector<ParsedModule> parse_verilog_modules_file(const std::string& path,
                                                     const IngestOptions& options,
                                                     StreamStats* stats) {
  FileChunkReader reader(path, options.resolved_chunk_bytes());
  auto modules = run_stream([&reader]() { return reader.next_chunk(); },
                            options, stats);
  if (stats != nullptr) {
    stats->chunk_bytes = reader.chunk_bytes();
    stats->reader_buffer_bytes = reader.buffer_bytes();
    stats->mmap_backed = reader.mmap_backed();
  }
  return modules;
}

std::vector<ParsedModule> parse_verilog_modules_string(
    const std::string& text, const IngestOptions& options,
    StreamStats* stats) {
  const std::size_t chunk = options.resolved_chunk_bytes();
  std::size_t pos = 0;
  const auto next_chunk = [&]() -> std::string_view {
    if (pos >= text.size()) return {};
    const std::size_t n = std::min(chunk, text.size() - pos);
    const std::string_view view(text.data() + pos, n);
    pos += n;
    return view;
  };
  auto modules = run_stream(next_chunk, options, stats);
  if (stats != nullptr) stats->chunk_bytes = chunk;
  return modules;
}

Circuit parse_verilog_file_first_module(const std::string& path,
                                        std::string fallback_name,
                                        std::size_t chunk_bytes) {
  IngestOptions options;
  options.chunk_bytes = chunk_bytes;
  FileChunkReader reader(path, options.resolved_chunk_bytes());
  StreamLexer lexer;
  std::vector<VerilogToken> tokens;
  bool complete = false;
  const auto drain = [&]() {
    for (VerilogToken& t : lexer.tokens()) {
      const bool ends = to_lower(t.text) == "endmodule";
      tokens.push_back(std::move(t));
      if (ends) {
        complete = true;
        break;
      }
    }
    lexer.tokens().clear();
    lexer.offsets().clear();
  };
  for (;;) {
    const std::string_view chunk = reader.next_chunk();
    if (chunk.empty()) break;
    lexer.feed(chunk);
    drain();
    if (complete) break;  // stop reading: the rest of the file is not ours
  }
  if (!complete) {
    lexer.finish();
    drain();
  }
  // A missing endmodule falls through to the parser, which reports the
  // same error the legacy whole-text path does.
  return parse_verilog_tokens(std::move(tokens), std::move(fallback_name));
}

}  // namespace deepseq::ingest
