// e2e_ledger: the end-to-end performance ledger. One process runs one
// workload for a fixed wall time and prints, as its last stdout line, one
// JSON object with its end-to-end metrics (--trace 0) or its per-layer
// metrics (--trace 1). Serving workloads drive an in-process serve::Server
// on loopback with closed-loop serve::Clients; the finetune workload drives
// Trainer::fit. README.md defines every workload and metric.
//
//   e2e_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out <result.json>] [--trace-out <chrome.json>]
//              [--scratch <dir>]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "dataset/test_designs.hpp"
#include "dataset/training_data.hpp"
#include "ingest/corpus.hpp"
#include "ingest/stream_parser.hpp"
#include "netlist/aig.hpp"
#include "netlist/scoap.hpp"
#include "netlist/structural_hash.hpp"
#include "netlist/verilog_io.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "power/pipeline.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

using namespace deepseq;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using e2e::quantile;
using api::TaskKind;

namespace {

// ---- pinned configuration ---------------------------------------------------
// Every run uses exactly this tier and model; it is echoed into the output.

constexpr int kShards = 2;
constexpr int kWorkersPerShard = 2;
constexpr int kEngineThreads = 2;
constexpr std::size_t kAdmissionDepth = 64;
constexpr int kHidden = 32;
constexpr int kIterations = 4;
constexpr int kClients = 2;  // closed loop, one connection each
constexpr double kDesignScale = 1.0 / 16.0;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kSampleCap = 64;  // verified / replayed requests per run
constexpr std::uint64_t kInitSeed = 1;

constexpr int kTrainSubcircuits = 60;
constexpr int kTrainSimCycles = 2000;
constexpr int kTrainBatch = 4;
constexpr float kTrainLr = 1.5e-3f;

const char* const kDesignNames[] = {"noc_router", "pll",       "ptc",
                                    "rtcclock",   "ac97_ctrl", "mem_ctrl"};
constexpr int kNumDesignNames = 6;
constexpr int kNumKinds = 6;

constexpr TaskKind kAllKinds[] = {
    TaskKind::kEmbedding, TaskKind::kLogicProb,   TaskKind::kTransitionProb,
    TaskKind::kPower,     TaskKind::kReliability, TaskKind::kTestability};

// ---- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  std::vector<TaskKind> kinds;
  /// Inputs are generated for this many requests per second of --seconds;
  /// a run that exhausts them ends early (and says so).
  double items_per_s;
  /// Every stride-th request is verified (and replayed in a traced run).
  std::size_t sample_stride;
};

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Every design is new: ingest, prepare and embed run per request.
      {"cold_unique",
       {std::begin(kAllKinds), std::end(kAllKinds)},
       80.0,
       4},
      // Structures warm, workloads fresh: nn embed and the heads dominate.
      // Testability is left out: its answer ignores the workload.
      {"new_workload",
       {TaskKind::kEmbedding, TaskKind::kLogicProb, TaskKind::kTransitionProb,
        TaskKind::kPower, TaskKind::kReliability},
       200.0,
       4},
      // Every (structure, kind) pair warm: wire, hashing and admission carry
      // the latency. Reliability is left out: its readout is never cached.
      {"warm_repeat",
       {TaskKind::kEmbedding, TaskKind::kLogicProb, TaskKind::kTransitionProb,
        TaskKind::kPower, TaskKind::kTestability},
       4000.0,
       10},
      // Training: grad mode, backward and Adam on the same nn layer.
      {"finetune", {}, 0.0, 1},
  };
  return specs;
}

bool needs_embedding(TaskKind k) {
  return k == TaskKind::kEmbedding || k == TaskKind::kLogicProb ||
         k == TaskKind::kTransitionProb || k == TaskKind::kPower;
}
bool needs_regress(TaskKind k) {
  return k == TaskKind::kLogicProb || k == TaskKind::kTransitionProb ||
         k == TaskKind::kPower;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return hash_mix(hash_mix(0x6532656c65646772ULL, seed), salt);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Restart the kernel's peak-RSS watermark (VmHWM), so process.peak_rss_mb
/// covers set-up and the timed phase but not input generation. Freed input
/// memory goes back to the OS first, or the watermark would restart above
/// it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM since the last reset_peak_rss(); getrusage's lifetime peak where
/// /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t counter_sum(const obs::Snapshot& s, const std::string& prefix) {
  std::uint64_t sum = 0;
  for (const auto& [name, v] : s.counters)
    if (name.rfind(prefix, 0) == 0) sum += v;
  return sum;
}

/// One timed item (a request, a training step) and how many units it
/// completes (1 request, or a batch's samples).
struct Interval {
  Clock::time_point begin, end;
  double units = 1.0;
};

constexpr int kRateWindows = 5;

/// Units per second: the median over kRateWindows equal windows of the
/// timed phase. An item counts toward a window in proportion to the share
/// of its interval inside it, so long items do not quantize the counts,
/// and the median keeps a transient host stall from deciding the number.
double windowed_rate(const std::vector<Interval>& items,
                     Clock::time_point start, double wall_s) {
  const double w = wall_s / kRateWindows;
  std::vector<double> rate(kRateWindows, 0.0);
  for (const Interval& it : items) {
    const double b = ms_between(start, it.begin) * 1e-3;
    const double e = ms_between(start, it.end) * 1e-3;
    for (int k = 0; k < kRateWindows; ++k) {
      const double overlap = std::min(e, (k + 1) * w) - std::max(b, k * w);
      if (overlap > 0)
        rate[k] += it.units * overlap / std::max(e - b, 1e-9) / w;
    }
  }
  return quantile(rate, 0.5);
}

// ---- metric output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Failed correctness and self checks; any entry makes the run incorrect.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---- serving inputs ---------------------------------------------------------

struct Item {
  TaskKind kind = TaskKind::kEmbedding;
  /// The AIG the request carries; cold requests build it from `verilog`.
  std::shared_ptr<const Circuit> circuit;
  std::string verilog;
  std::shared_ptr<const Workload> workload;
  std::size_t nodes = 0;  // design size, for the kind/size independence check
};

struct IngestScan {
  double scan_s = 0.0;
  std::uint64_t bytes = 0, designs = 0, dup_dropped = 0;
  obs::HistogramSnapshot parse_ns;
};

struct ServingInputs {
  std::vector<Item> items;   // the timed phase, in order
  std::vector<Item> warmup;  // sent during set-up
  IngestScan scan;           // cold_unique only
};

/// Request order in balanced blocks: each block holds every (design, kind)
/// pair once, shuffled. Kinds are independent of design size by
/// construction, and every whole-block prefix has the same mix, so runs
/// with different seeds measure the same traffic.
std::vector<std::pair<int, TaskKind>> balanced_order(
    int designs, const std::vector<TaskKind>& kinds, std::size_t min_items,
    Rng& rng) {
  std::vector<std::pair<int, TaskKind>> block;
  for (int d = 0; d < designs; ++d)
    for (TaskKind k : kinds) block.emplace_back(d, k);
  std::vector<std::pair<int, TaskKind>> order;
  while (order.size() < min_items) {
    rng.shuffle(block);
    order.insert(order.end(), block.begin(), block.end());
  }
  return order;
}

/// The twelve structures of new_workload and warm_repeat: the Table IV
/// designs at design seeds 1 and 2, as optimized AIGs. They do not depend
/// on the run's seed: a design's AIG size and depth swing 2-4x between
/// design seeds, which would make the seed, not the code, move these
/// workloads' numbers. The run's seed draws their workloads and the
/// request order.
std::vector<std::shared_ptr<const Circuit>> build_structures() {
  std::vector<std::shared_ptr<const Circuit>> out;
  for (std::uint64_t design_seed : {1, 2})
    for (const char* name : kDesignNames) {
      const TestDesign d = build_test_design(name, kDesignScale, design_seed);
      out.push_back(std::make_shared<const Circuit>(
          optimize_aig(decompose_to_aig(d.netlist).aig).circuit));
    }
  return out;
}

std::string design_file_name(const std::string& name) { return name + ".v"; }

/// A Table IV-family design whose optimized AIG is structurally new: drawn
/// at design seed derive(seed, salt), and redrawn while its AIG's
/// structural digest is already in `seen`. Distinct netlists of the small
/// designs (ptc at this scale) fold to the same AIG for about one design
/// seed in a thousand, and the server would answer such a repeat from its
/// structure cache.
Circuit unique_design(const char* base, std::uint64_t seed, std::uint64_t salt,
                      std::set<std::uint64_t>& seen) {
  constexpr std::uint64_t kRedrawStride = std::uint64_t(1) << 32;
  for (std::uint64_t draw = 0;; ++draw) {
    TestDesign d = build_test_design(base, kDesignScale,
                                     derive(seed, salt + draw * kRedrawStride));
    const Circuit aig = optimize_aig(decompose_to_aig(d.netlist).aig).circuit;
    if (seen.insert(structural_hash(aig).digest).second)
      return std::move(d.netlist);
  }
}

/// Write one Verilog file per design into `dir`, then ingest the directory
/// through Corpus::scan: the proof that every design is present and
/// distinct, and (into `scan`) the ingest layer's numbers.
ingest::Corpus write_and_scan(const fs::path& dir,
                              const std::vector<Circuit>& designs,
                              IngestScan* scan) {
  fs::create_directories(dir);
  for (const Circuit& c : designs)
    write_verilog_file(c, (dir / design_file_name(c.name())).string());
  ingest::CorpusOptions options;
  options.ingest.threads = 4;
  options.ingest.chunk_bytes = std::size_t(1) << 20;
  const obs::Snapshot base = obs::Registry::global().snapshot();
  const auto t0 = Clock::now();
  ingest::Corpus corpus = ingest::Corpus::scan(dir.string(), options);
  if (scan != nullptr) {
    scan->scan_s = ms_between(t0, Clock::now()) * 1e-3;
    const obs::Snapshot d =
        obs::delta(obs::Registry::global().snapshot(), base);
    scan->bytes = corpus.total_bytes();
    scan->designs = corpus.size();
    scan->dup_dropped = corpus.dup_dropped();
    const auto it = d.histograms.find("ingest.parse_ns");
    if (it != d.histograms.end()) scan->parse_ns = it->second;
  }
  return corpus;
}

ServingInputs cold_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                          double seconds, const fs::path& dir, Checks& checks) {
  ServingInputs in;
  Rng rng(derive(seed, 1));
  const auto order = balanced_order(
      kNumDesignNames, spec.kinds,
      static_cast<std::size_t>(std::ceil(spec.items_per_s * seconds)), rng);
  fs::remove_all(dir);

  // Set-up traffic: one more design per Table IV name, never reused. Every
  // design, set-up or timed, has an AIG no other design has.
  std::set<std::uint64_t> seen;
  std::vector<Circuit> warm;
  for (int n = 0; n < kNumDesignNames; ++n) {
    warm.push_back(unique_design(kDesignNames[n], seed, 2000000 + n, seen));
    warm.back().set_name(std::string("warm_") + kDesignNames[n]);
  }
  std::vector<Circuit> designs;
  designs.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const char* base = kDesignNames[order[i].first];
    designs.push_back(unique_design(base, seed, 1000000 + i, seen));
    designs.back().set_name(std::string(base) + "_s" + std::to_string(seed) +
                            "_d" + std::to_string(i));
  }
  const ingest::Corpus corpus =
      write_and_scan(dir / "designs", designs, &in.scan);
  checks.require(in.scan.dup_dropped == 0,
                 "cold_unique: corpus dropped " +
                     std::to_string(in.scan.dup_dropped) +
                     " duplicate designs");
  checks.require(corpus.size() == designs.size(),
                 "cold_unique: corpus holds " + std::to_string(corpus.size()) +
                     " designs, generated " + std::to_string(designs.size()));
  std::map<std::string, std::size_t> by_name;
  for (std::size_t r = 0; r < corpus.size(); ++r)
    by_name[corpus.record(r).name] = r;

  // Workloads come from the ingested netlists, so their PI counts are the
  // ones the request path will see.
  Rng wrng(derive(seed, 2));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto it = by_name.find(designs[i].name());
    if (it == by_name.end()) {
      checks.require(false, "cold_unique: design " + designs[i].name() +
                                " missing from the corpus");
      continue;
    }
    Item item;
    item.kind = order[i].second;
    item.verilog =
        (dir / "designs" / design_file_name(designs[i].name())).string();
    item.workload = std::make_shared<const Workload>(
        random_workload(corpus.circuit(it->second), wrng));
    item.nodes = designs[i].num_nodes();
    in.items.push_back(std::move(item));
  }

  const ingest::Corpus warm_corpus =
      write_and_scan(dir / "warmup", warm, nullptr);
  for (std::size_t r = 0; r < warm_corpus.size(); ++r)
    for (TaskKind k : spec.kinds) {
      Item item;
      item.kind = k;
      item.verilog = (dir / "warmup" / warm_corpus.record(r).file).string();
      item.workload = std::make_shared<const Workload>(
          random_workload(warm_corpus.circuit(r), wrng));
      in.warmup.push_back(std::move(item));
    }
  return in;
}

ServingInputs structure_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                               double seconds, bool fresh_workloads,
                               Checks& checks) {
  ServingInputs in;
  const auto structures = build_structures();
  std::set<std::uint64_t> digests;
  for (const auto& c : structures) digests.insert(structural_hash(*c).digest);
  checks.require(digests.size() == structures.size(),
                 std::string(spec.name) + ": the structures are not distinct");

  Rng rng(derive(seed, 3));
  std::vector<std::shared_ptr<const Workload>> fixed;
  for (const auto& c : structures)
    fixed.push_back(std::make_shared<const Workload>(random_workload(*c, rng)));
  const auto order = balanced_order(
      static_cast<int>(structures.size()), spec.kinds,
      static_cast<std::size_t>(std::ceil(spec.items_per_s * seconds)), rng);
  in.items.reserve(order.size());
  for (const auto& [s, kind] : order) {
    Item item;
    item.kind = kind;
    item.circuit = structures[static_cast<std::size_t>(s)];
    item.workload = fresh_workloads
                        ? std::make_shared<const Workload>(
                              random_workload(*item.circuit, rng))
                        : fixed[static_cast<std::size_t>(s)];
    item.nodes = item.circuit->num_nodes();
    in.items.push_back(std::move(item));
  }
  // Set-up traffic: every (structure, kind) pair. warm_repeat sends the
  // timed workloads (so every timed request hits); new_workload sends a
  // set-up-only workload per structure (so only structures are warm).
  for (std::size_t s = 0; s < structures.size(); ++s) {
    const auto w = fresh_workloads ? std::make_shared<const Workload>(
                                         random_workload(*structures[s], rng))
                                   : fixed[s];
    for (TaskKind k : spec.kinds) {
      Item item;
      item.kind = k;
      item.circuit = structures[s];
      item.workload = w;
      in.warmup.push_back(std::move(item));
    }
  }
  return in;
}

// ---- the serving tier -------------------------------------------------------

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.router.shards = kShards;
  cfg.router.workers_per_shard = kWorkersPerShard;
  cfg.router.admission.default_depth = kAdmissionDepth;
  cfg.router.session.backend = "deepseq";
  cfg.router.session.engine.threads = kEngineThreads;
  cfg.router.session.engine.nn_threads = kEngineThreads;
  cfg.router.session.backends.model =
      ModelConfig::deepseq(kHidden, kIterations);
  return cfg;
}

std::string config_json() {
  return "{\"shards\": " + std::to_string(kShards) +
         ", \"workers_per_shard\": " + std::to_string(kWorkersPerShard) +
         ", \"engine_threads\": " + std::to_string(kEngineThreads) +
         ", \"nn_threads\": " + std::to_string(kEngineThreads) +
         ", \"admission_depth\": " + std::to_string(kAdmissionDepth) +
         ", \"deadline_ms\": 0, \"model\": \"deepseq(" +
         std::to_string(kHidden) + "," + std::to_string(kIterations) +
         ")\", \"clients\": " + std::to_string(kClients) +
         ", \"design_scale\": " + json_number(kDesignScale) +
         ", \"train\": {\"subcircuits\": " + std::to_string(kTrainSubcircuits) +
         ", \"sim_cycles\": " + std::to_string(kTrainSimCycles) +
         ", \"batch\": " + std::to_string(kTrainBatch) +
         ", \"lr\": " + json_number(kTrainLr) + "}}";
}

/// Server plus connected clients. Clients are declared last so they close
/// their connections before the server stops.
struct Tier {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

/// What the client observed for one request. Written only by the client
/// thread that claimed the request.
struct Record {
  bool ok = false, shed = false, wrong = false, sent = false;
  Clock::time_point begin, end;  // first client-side step, decoded reply
  double rpc_ms = 0.0;           // Client::run call -> decoded reply
  double ingest_ms = 0.0, aig_ms = 0.0;  // cold_unique request path
  double total_ms = 0.0, queue_ms = 0.0, compute_ms = 0.0;  // from the reply
  bool structure_hit = false, embedding_hit = false, regression_hit = false;
};

/// The verified (and, when traced, replayed) share of the requests.
struct Sample {
  std::size_t item = 0;
  bool ok = false;
  std::uint64_t digest = 0;
  std::shared_ptr<const Circuit> circuit;
  std::optional<serve::TaskReply> reply;  // traced phase only
};

struct Phase {
  std::vector<Record> records;  // records[i] belongs to items[i], i < attempted
  std::vector<Sample> samples;
  std::size_t attempted = 0;
  Clock::time_point start;
  double wall_s = 0.0, cpu_s = 0.0;
  obs::Snapshot delta;
  std::vector<std::uint64_t> served;  // per shard, during the phase
  bool exhausted = false;
};

/// Digest of a reply's output: the wire encoding of the result with the
/// timing fields and cache flags cleared, so it compares bit for bit
/// against a recomputation with different cache state.
std::uint64_t output_digest(const api::TaskResult& result) {
  serve::TaskResponseMsg m;
  m.result = result;
  m.result.queue_ms = m.result.compute_ms = m.result.total_ms = 0.0;
  m.result.structure_cache_hit = m.result.embedding_cache_hit =
      m.result.regression_cache_hit = false;
  const std::string bytes = serve::encode(m);
  std::uint64_t h = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = hash_mix(h, w);
  }
  for (; i < bytes.size(); ++i)
    h = hash_mix(h, static_cast<unsigned char>(bytes[i]));
  return h;
}

struct DriveOptions {
  Clock::time_point deadline = Clock::time_point::max();
  std::size_t sample_stride = 0;  // 0 = no samples
  e2e::SpanRecorder* spans = nullptr;  // set = the traced phase
};

ingest::IngestOptions request_ingest_options() {
  ingest::IngestOptions o;
  o.threads = 1;
  o.chunk_bytes = std::size_t(1) << 20;
  return o;
}

void run_request(serve::Client& client, std::uint32_t tid, std::size_t i,
                 const Item& item, Record& rec, Sample* sample,
                 const DriveOptions& opt) {
  const auto t0 = Clock::now();
  auto t_ingest = t0, t_aig = t0, t_end = t0;
  std::shared_ptr<const Circuit> circuit = item.circuit;
  try {
    if (!item.verilog.empty()) {
      std::vector<ingest::ParsedModule> modules =
          ingest::parse_verilog_modules_file(item.verilog,
                                             request_ingest_options());
      if (modules.size() != 1)
        throw Error(item.verilog + ": expected one structural module");
      t_ingest = Clock::now();
      circuit = std::make_shared<const Circuit>(
          optimize_aig(decompose_to_aig(modules[0].circuit).aig).circuit);
      t_aig = Clock::now();
    }
    api::TaskRequest request;
    request.circuit = circuit;
    request.workload = *item.workload;
    request.task = item.kind;
    request.init_seed = kInitSeed;
    rec.sent = true;
    serve::TaskReply reply = client.run(request);
    t_end = Clock::now();
    const api::TaskResult& r = reply.result;
    rec.ok = true;
    rec.wrong = r.task != item.kind ||
                r.output.index() != static_cast<std::size_t>(item.kind);
    rec.total_ms = r.total_ms;
    rec.queue_ms = r.queue_ms;
    rec.compute_ms = r.compute_ms;
    rec.structure_hit = r.structure_cache_hit;
    rec.embedding_hit = r.embedding_cache_hit;
    rec.regression_hit = r.regression_cache_hit;
    if (sample != nullptr) {
      sample->item = i;
      sample->ok = true;
      sample->digest = output_digest(r);
      sample->circuit = circuit;
      // A traced phase keeps the sampled replies for the layer replays.
      if (opt.spans != nullptr) sample->reply = std::move(reply);
    }
  } catch (const serve::ServeError& e) {
    rec.shed = e.overloaded();
    std::fprintf(stderr, "e2e_ledger: request %zu: %s\n", i, e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_ledger: request %zu: %s\n", i, e.what());
  }
  if (!rec.ok) return;
  rec.begin = t0;
  rec.end = t_end;
  rec.rpc_ms = ms_between(t_aig, t_end);
  rec.ingest_ms = ms_between(t0, t_ingest);
  rec.aig_ms = ms_between(t_ingest, t_aig);

  if (opt.spans == nullptr) return;
  // client.request > [ingest.parse, netlist.aig_convert,] client.rpc >
  // session > session.queue, session.compute. The server reports only
  // durations, so the session is laid out ending at the reply (the
  // response encode and write are the small remainder after it).
  const auto ns = [](Clock::time_point tp) { return obs::to_trace_ns(tp); };
  const std::uint64_t req_id = i + 1;
  const std::int64_t root = opt.spans->record(
      {"client.request", ns(t0), ns(t_end), -1, req_id, tid});
  if (!item.verilog.empty()) {
    opt.spans->record(
        {"ingest.parse", ns(t0), ns(t_ingest), root, req_id, tid});
    opt.spans->record(
        {"netlist.aig_convert", ns(t_ingest), ns(t_aig), root, req_id, tid});
  }
  const std::int64_t rpc = opt.spans->record(
      {"client.rpc", ns(t_aig), ns(t_end), root, req_id, tid});
  const std::uint64_t end = ns(t_end);
  const std::uint64_t rpc_ns = end - ns(t_aig);
  const auto to_ns = [](double ms) {
    return static_cast<std::uint64_t>(ms * 1e6);
  };
  const std::uint64_t total = std::min(to_ns(rec.total_ms), rpc_ns);
  const std::uint64_t start = end - total;
  const std::int64_t session =
      opt.spans->record({"session", start, end, rpc, req_id, tid});
  const std::uint64_t queue = std::min(to_ns(rec.queue_ms), total);
  const std::uint64_t compute = std::min(to_ns(rec.compute_ms), total - queue);
  opt.spans->record(
      {"session.queue", start, start + queue, session, req_id, tid});
  opt.spans->record(
      {"session.compute", end - compute, end, session, req_id, tid});
}

/// Closed loop: each client sends its next request only after the previous
/// reply, pulling from one shared cursor until the deadline or the inputs
/// run out.
Phase drive(Tier& tier, const std::vector<Item>& items,
            const DriveOptions& opt) {
  Phase phase;
  phase.records.resize(items.size());
  const std::size_t stride = opt.sample_stride;
  if (stride > 0)
    phase.samples.resize(
        std::min(kSampleCap, (items.size() + stride - 1) / stride));
  serve::ShardRouter& router = tier.server->router();
  std::vector<std::uint64_t> served0;
  for (int s = 0; s < router.num_shards(); ++s)
    served0.push_back(router.shard_stats(s).served);
  const obs::Snapshot base = obs::Registry::global().snapshot();

  std::atomic<std::size_t> cursor{0};
  const double cpu0 = cpu_seconds();
  const auto start = phase.start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < tier.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < opt.deadline) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= items.size()) break;
        Sample* sample = nullptr;
        if (stride > 0 && i % stride == 0 && i / stride < phase.samples.size())
          sample = &phase.samples[i / stride];
        run_request(*tier.clients[c], static_cast<std::uint32_t>(c + 1), i,
                    items[i], phase.records[i], sample, opt);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = ms_between(start, Clock::now()) * 1e-3;
  phase.cpu_s = cpu_seconds() - cpu0;
  phase.attempted = std::min(cursor.load(), items.size());
  phase.exhausted =
      cursor.load() >= items.size() && Clock::now() < opt.deadline;
  phase.delta = obs::delta(obs::Registry::global().snapshot(), base);
  for (int s = 0; s < router.num_shards(); ++s)
    phase.served.push_back(router.shard_stats(s).served -
                           served0[static_cast<std::size_t>(s)]);
  // Samples past the attempted prefix were never claimed.
  if (stride > 0)
    phase.samples.resize(std::min(phase.samples.size(),
                                  (phase.attempted + stride - 1) / stride));
  return phase;
}

/// Start the tier, connect the clients and send the set-up traffic.
Tier start_tier(const std::vector<Item>& warmup) {
  Tier tier;
  tier.server = std::make_unique<serve::Server>(serve_config());
  for (int c = 0; c < kClients; ++c)
    tier.clients.push_back(
        std::make_unique<serve::Client>(tier.server->port()));
  const Phase p = drive(tier, warmup, {});
  for (std::size_t i = 0; i < p.attempted; ++i)
    if (!p.records[i].ok || p.records[i].wrong)
      throw Error("set-up request " + std::to_string(i) + " failed");
  if (p.attempted != warmup.size()) throw Error("set-up traffic incomplete");
  return tier;
}

struct Tally {
  std::size_t completed = 0, failed = 0, shed = 0, wrong = 0, sent = 0;
};

Tally tally(const Phase& p) {
  Tally t;
  for (std::size_t i = 0; i < p.attempted; ++i) {
    const Record& r = p.records[i];
    if (r.sent) ++t.sent;
    if (r.ok) {
      ++t.completed;
      if (r.wrong) ++t.wrong;
    } else if (r.shed) {
      ++t.shed;
    } else {
      ++t.failed;
    }
  }
  return t;
}

/// Hit ratio of one cache layer over the requests that consulted it.
struct HitRatio {
  std::size_t lookups = 0, hits = 0;
  double ratio() const {
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

struct CacheRatios {
  HitRatio structure, embedding, regression;
};

/// Which layers a request consulted follows from its kind and the flags:
/// an embedding hit skips the structure layer unless the task reads the
/// structure itself (reliability), and testability consults none.
CacheRatios cache_ratios(const Phase& p, const std::vector<Item>& items) {
  CacheRatios c;
  for (std::size_t i = 0; i < p.attempted; ++i) {
    const Record& r = p.records[i];
    if (!r.ok) continue;
    const TaskKind k = items[i].kind;
    if (needs_embedding(k)) {
      ++c.embedding.lookups;
      c.embedding.hits += r.embedding_hit;
    }
    if (needs_regress(k)) {
      ++c.regression.lookups;
      c.regression.hits += r.regression_hit;
    }
    if (k == TaskKind::kReliability ||
        (needs_embedding(k) && !r.embedding_hit)) {
      ++c.structure.lookups;
      c.structure.hits += r.structure_hit;
    }
  }
  return c;
}

void check_serving(const std::string& workload, const ServingInputs& in,
                   const Phase& p, const Tally& t, Checks& checks) {
  checks.require(t.failed == 0 && t.shed == 0 && t.wrong == 0,
                 "requests failed: " + std::to_string(t.failed) + " failed, " +
                     std::to_string(t.shed) + " shed, " +
                     std::to_string(t.wrong) + " wrong kind");
  checks.require(p.attempted == t.completed + t.failed + t.shed,
                 "attempted != completed + failed + shed");
  // The server's own accounting must agree with the clients'.
  const std::uint64_t requests = counter_sum(p.delta, "serve.requests.");
  const std::uint64_t completed = counter_sum(p.delta, "serve.completed.");
  const std::uint64_t failed = counter_sum(p.delta, "serve.failed.");
  const std::uint64_t shed = counter_sum(p.delta, "serve.shed.");
  checks.require(requests == t.sent && completed == t.completed &&
                     requests == completed + failed + shed,
                 "obs serve.requests/completed/failed/shed (" +
                     std::to_string(requests) + "/" +
                     std::to_string(completed) + "/" +
                     std::to_string(failed) + "/" + std::to_string(shed) +
                     ") disagree with the clients (" + std::to_string(t.sent) +
                     " sent, " + std::to_string(t.completed) + " completed)");

  const CacheRatios c = cache_ratios(p, in.items);
  if (workload == "cold_unique")
    checks.require(c.structure.hits == 0 && c.embedding.hits == 0 &&
                       c.regression.hits == 0,
                   "cold_unique: a cache hit on never-seen designs");
  if (workload == "new_workload")
    checks.require(c.structure.ratio() >= 0.99 && c.embedding.hits == 0,
                   "new_workload: expected structure hits >= 0.99 and no "
                   "embedding hits");
  if (workload == "warm_repeat")
    checks.require(
        c.embedding.ratio() >= 0.99 && c.regression.ratio() >= 0.99,
        "warm_repeat: expected embedding and regression hits >= 0.99");

  // Kinds must not track design size: the mean size per kind stays within
  // 15% of the overall mean once a few whole blocks have run.
  std::vector<double> sum(kNumKinds, 0.0), n(kNumKinds, 0.0);
  double all = 0.0;
  for (std::size_t i = 0; i < p.attempted; ++i) {
    const auto k = static_cast<std::size_t>(in.items[i].kind);
    sum[k] += static_cast<double>(in.items[i].nodes);
    n[k] += 1.0;
    all += static_cast<double>(in.items[i].nodes);
  }
  if (p.attempted >= 200) {
    const double mean = all / static_cast<double>(p.attempted);
    for (int k = 0; k < kNumKinds; ++k)
      if (n[k] > 0)
        checks.require(std::fabs(sum[k] / n[k] - mean) <= 0.15 * mean,
                       std::string("design size correlates with kind ") +
                           api::task_name(static_cast<TaskKind>(k)));
  }
}

/// Recompute the sampled requests through a separate in-process Session
/// with the tier's exact session config; every digest must match.
std::size_t verify_samples(api::Session& ref, const std::vector<Item>& items,
                           const Phase& p, Checks& checks) {
  std::size_t verified = 0, mismatched = 0;
  for (const Sample& s : p.samples) {
    if (!s.ok) continue;
    api::TaskRequest request;
    request.circuit = s.circuit;
    request.workload = *items[s.item].workload;
    request.task = items[s.item].kind;
    request.init_seed = kInitSeed;
    if (output_digest(ref.run_sync(request)) != s.digest) ++mismatched;
    ++verified;
  }
  checks.require(verified > 0, "no sampled request to verify");
  checks.require(mismatched == 0, std::to_string(mismatched) + " of " +
                                      std::to_string(verified) +
                                      " verified replies differ from the "
                                      "in-process recomputation");
  return verified;
}

// ---- per-layer replays (traced run) ---------------------------------------

/// Per-sample layer times and counts from replay_layers().
struct Replays {
  std::vector<double> req_encode_us, req_decode_us, resp_encode_us,
      resp_decode_us, req_bytes, resp_bytes;
  std::vector<double> structural_hash_ms, exact_hash_ms, scoap_ms;
  std::vector<double> prepare_ms, embed_ms, execute_ms, record_plan_ms;
  std::vector<double> flushes, steps, chains, global_syncs, gather_rows;
  std::vector<double> regress_ms, power_ms, reliability_ms;
  std::vector<double> serve_unattributed_ms, api_unattributed_ms;
  std::size_t samples = 0;
};

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_between(t0, Clock::now());
}

/// Replay the sampled requests layer by layer on this thread, through each
/// layer's public function, after the load has stopped. A layer's time
/// counts toward a request only when the reply says the server ran it.
Replays replay_layers(api::Session& ref, const std::vector<Item>& items,
                      const Phase& p) {
  Replays out;
  const api::EmbeddingBackend& backend = ref.backend();
  runtime::ThreadPool pool(kEngineThreads);
  nn::Executor exec(&pool, kEngineThreads);
  nn::ExecutorScope scope(exec);
  const long long power_duration = ref.config().power_duration;

  for (const Sample& s : p.samples) {
    if (!s.ok || !s.reply) continue;
    ++out.samples;
    const Item& item = items[s.item];
    const Record& rec = p.records[s.item];
    const Circuit& c = *s.circuit;
    const TaskKind kind = item.kind;

    // serve: the codec both ways, and the two hashes the server pays.
    serve::TaskRequestMsg rq;
    rq.request_id = s.item + 1;
    rq.task = kind;
    rq.init_seed = kInitSeed;
    rq.circuit = c;
    rq.workload = *item.workload;
    std::string req_payload, resp_payload;
    const double req_enc = time_ms([&] { req_payload = serve::encode(rq); });
    const double req_dec =
        time_ms([&] { (void)serve::decode_task_request(req_payload); });
    serve::TaskResponseMsg rs;
    rs.request_id = rq.request_id;
    rs.shard = static_cast<std::uint32_t>(s.reply->shard);
    rs.result = s.reply->result;
    const double resp_enc = time_ms([&] { resp_payload = serve::encode(rs); });
    const double resp_dec =
        time_ms([&] { (void)serve::decode_task_response(resp_payload); });
    const double shash = time_ms([&] { (void)structural_hash(c); });
    const double ehash = time_ms([&] { (void)exact_hash(c); });
    out.req_encode_us.push_back(req_enc * 1e3);
    out.req_decode_us.push_back(req_dec * 1e3);
    out.resp_encode_us.push_back(resp_enc * 1e3);
    out.resp_decode_us.push_back(resp_dec * 1e3);
    out.req_bytes.push_back(static_cast<double>(req_payload.size() + 5));
    out.resp_bytes.push_back(static_cast<double>(resp_payload.size() + 5));
    out.structural_hash_ms.push_back(shash);
    out.exact_hash_ms.push_back(ehash);
    // The router and the session each hash the structure once.
    out.serve_unattributed_ms.push_back(
        (rec.rpc_ms - rec.total_ms) -
        (req_enc + req_dec + resp_enc + resp_dec) - 2.0 * shash - ehash);

    // api / core / nn: the layers inside Session compute.
    double attributed = 0.0;
    std::shared_ptr<const api::BackendState> state;
    const bool want_state =
        kind == TaskKind::kReliability ||
        (needs_embedding(kind) &&
         (!rec.embedding_hit || (needs_regress(kind) && !rec.regression_hit)));
    if (want_state) {
      const double ms = time_ms([&] { state = backend.prepare(c); });
      if (!rec.structure_hit) {
        out.prepare_ms.push_back(ms);
        attributed += ms;
      }
    }
    nn::Tensor embedding;
    if (needs_embedding(kind) && state != nullptr) {
      nn::ExecStats stats;
      const double ms = time_ms([&] {
        nn::ExecTraceScope trace(stats);
        embedding = backend.embed(*state, *item.workload, kInitSeed);
      });
      if (!rec.embedding_hit) {
        const double exec_ms =
            std::accumulate(stats.flush_ms.begin(), stats.flush_ms.end(), 0.0);
        out.embed_ms.push_back(ms);
        out.execute_ms.push_back(exec_ms);
        out.record_plan_ms.push_back(ms - exec_ms);
        out.flushes.push_back(stats.flushes);
        out.steps.push_back(stats.steps);
        out.chains.push_back(stats.chains);
        out.global_syncs.push_back(stats.global_syncs);
        out.gather_rows.push_back(stats.slab_gather_rows);
        attributed += ms;
      }
    }
    if (needs_regress(kind) && !rec.regression_hit) {
      const double ms = time_ms([&] { (void)backend.regress(embedding); });
      out.regress_ms.push_back(ms);
      attributed += ms;
    }
    if (kind == TaskKind::kPower) {
      const auto& po = s.reply->result.as<api::PowerOutput>();
      const double ms = time_ms([&] {
        (void)power_from_activity(c, po.logic1, po.toggle_rate, power_duration);
      });
      out.power_ms.push_back(ms);
      attributed += ms;
    }
    if (kind == TaskKind::kReliability) {
      const double ms = time_ms([&] {
        (void)backend.reliability(*state, *item.workload, {}, kInitSeed);
      });
      out.reliability_ms.push_back(ms);
      attributed += ms;
    }
    if (kind == TaskKind::kTestability) {
      const double ms =
          time_ms([&] { (void)compute_scoap(c, ref.config().scoap); });
      out.scoap_ms.push_back(ms);
      attributed += ms;
    }
    out.api_unattributed_ms.push_back(rec.compute_ms - attributed);
  }
  return out;
}

// ---- finetune ---------------------------------------------------------------

struct TrainSetup {
  TrainingDataset data;
  std::unique_ptr<DeepSeqModel> model;
  std::unique_ptr<Trainer> trainer;
};

TrainSetup setup_training(std::uint64_t seed) {
  TrainSetup s;
  TrainingDataOptions o;
  o.num_subcircuits = kTrainSubcircuits;
  o.sim_cycles = kTrainSimCycles;
  o.seed = derive(seed, 4);
  s.data = build_training_dataset(o);
  s.model = std::make_unique<DeepSeqModel>(
      ModelConfig::deepseq(kHidden, kIterations));
  TrainOptions t;
  t.epochs = 1;
  t.lr = kTrainLr;
  t.batch_size = kTrainBatch;
  s.trainer = std::make_unique<Trainer>(*s.model, t);
  return s;
}

struct TrainPhase {
  std::vector<Interval> steps_timed;
  std::size_t samples = 0;
  Clock::time_point start;
  double wall_s = 0.0, cpu_s = 0.0;
  double warmup_loss = 0.0;
  std::vector<double> epoch_loss;  // whole timed epochs
  std::vector<double> epoch_s, epoch_execute_s, epoch_steps, epoch_flushes;
};

/// One optimizer step per fit() call (one batch), so each step is timed
/// on its own; batches are reshuffled every epoch from the seed.
TrainPhase run_training(TrainSetup& setup, std::uint64_t seed, double seconds,
                        e2e::SpanRecorder* spans) {
  TrainPhase phase;
  runtime::ThreadPool pool(kEngineThreads);
  nn::Executor exec(&pool, kEngineThreads);
  nn::ExecutorScope scope(exec);
  const std::vector<TrainSample>& data = setup.data.samples;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(derive(seed, 5));
  std::vector<TrainSample> batch;

  // Returns the epoch's mean loss, or nullopt when the deadline cut it.
  const auto epoch = [&](Clock::time_point deadline,
                         bool timed) -> std::optional<double> {
    rng.shuffle(order);
    double loss_sum = 0.0;
    nn::ExecStats stats;
    std::optional<nn::ExecTraceScope> trace;
    if (timed && spans != nullptr) trace.emplace(stats);
    const std::size_t first_step = phase.steps_timed.size();
    const auto e0 = Clock::now();
    // Spans are recorded once the epoch ends, when the root's end is known.
    const auto record_spans = [&] {
      if (!timed || spans == nullptr) return;
      const std::uint64_t id = phase.epoch_loss.size() + 1;
      const std::int64_t root = spans->record(
          {"train.epoch", obs::to_trace_ns(e0), obs::to_trace_ns(Clock::now()),
           -1, id, 1});
      for (std::size_t k = first_step; k < phase.steps_timed.size(); ++k) {
        const Interval& step = phase.steps_timed[k];
        spans->record({"train.step", obs::to_trace_ns(step.begin),
                       obs::to_trace_ns(step.end), root, id, 1});
      }
    };
    for (std::size_t b = 0; b < order.size(); b += kTrainBatch) {
      if (Clock::now() >= deadline) {
        record_spans();
        return std::nullopt;
      }
      batch.clear();
      for (std::size_t j = b; j < std::min(order.size(), b + kTrainBatch); ++j)
        batch.push_back(data[order[j]]);
      const auto t0 = Clock::now();
      const std::vector<EpochStats> h = setup.trainer->fit(batch);
      const auto t1 = Clock::now();
      loss_sum += h.back().mean_loss * static_cast<double>(batch.size());
      if (!timed) continue;
      phase.steps_timed.push_back({t0, t1, static_cast<double>(batch.size())});
      phase.samples += batch.size();
    }
    record_spans();
    if (timed) {
      phase.epoch_s.push_back(ms_between(e0, Clock::now()) * 1e-3);
      phase.epoch_execute_s.push_back(
          std::accumulate(stats.flush_ms.begin(), stats.flush_ms.end(), 0.0) *
          1e-3);
      phase.epoch_steps.push_back(stats.steps);
      phase.epoch_flushes.push_back(stats.flushes);
    }
    return loss_sum / static_cast<double>(data.size());
  };

  // Untimed warm-up epoch: first-touch allocations and Adam state.
  phase.warmup_loss = epoch(Clock::time_point::max(), false).value_or(0.0);
  const double cpu0 = cpu_seconds();
  const auto start = phase.start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    const std::optional<double> loss = epoch(deadline, true);
    if (!loss) break;
    phase.epoch_loss.push_back(*loss);
  }
  phase.wall_s = ms_between(start, Clock::now()) * 1e-3;
  phase.cpu_s = cpu_seconds() - cpu0;
  return phase;
}

void check_training(const TrainPhase& p, Checks& checks) {
  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return static_cast<unsigned long long>(b);
  };
  std::printf("epoch 1 (warm-up) loss %.17g bits %016llx\n", p.warmup_loss,
              bits(p.warmup_loss));
  bool finite = std::isfinite(p.warmup_loss);
  for (std::size_t e = 0; e < p.epoch_loss.size(); ++e) {
    std::printf("epoch %zu loss %.17g bits %016llx\n", e + 2, p.epoch_loss[e],
                bits(p.epoch_loss[e]));
    finite = finite && std::isfinite(p.epoch_loss[e]);
  }
  checks.require(finite, "a training loss is not finite");
  checks.require(!p.epoch_loss.empty(), "no whole timed epoch completed");
  checks.require(!p.epoch_loss.empty() && p.epoch_loss.back() < p.warmup_loss,
                 "the last epoch's loss is not below the warm-up epoch's");
}

// ---- metric definitions -----------------------------------------------------
// BENCHMARK.json lists the same names; every workload reports every one
// (0 where a workload does no work in that layer).

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    {"serve.outside_session_ms.p50", "ms"},
    {"serve.outside_session_ms.p99", "ms"},
    {"serve.req_encode_us", "us"},
    {"serve.req_decode_us", "us"},
    {"serve.resp_encode_us", "us"},
    {"serve.resp_decode_us", "us"},
    {"serve.req_bytes", "bytes"},
    {"serve.resp_bytes", "bytes"},
    {"serve.shard_skew", "ratio"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.unattributed_ms", "ms"},
    {"netlist.structural_hash_ms", "ms"},
    {"netlist.exact_hash_ms", "ms"},
    {"netlist.aig_convert_ms", "ms"},
    {"netlist.scoap_ms", "ms"},
    {"ingest.request_parse_ms", "ms"},
    {"ingest.scan_s", "s"},
    {"ingest.mb_per_s", "MB/s"},
    {"ingest.parse_ms.p50", "ms"},
    {"ingest.parse_ms.p99", "ms"},
    {"ingest.bytes", "bytes"},
    {"ingest.designs", "count"},
    {"ingest.dup_dropped", "count"},
    {"api.session_total_ms", "ms"},
    {"api.session_queue_ms", "ms"},
    {"api.session_compute_ms", "ms"},
    {"api.kind.embedding.latency_p50_ms", "ms"},
    {"api.kind.logic-prob.latency_p50_ms", "ms"},
    {"api.kind.transition-prob.latency_p50_ms", "ms"},
    {"api.kind.power.latency_p50_ms", "ms"},
    {"api.kind.reliability.latency_p50_ms", "ms"},
    {"api.kind.testability.latency_p50_ms", "ms"},
    {"api.head.regress_ms", "ms"},
    {"power.analyze_ms", "ms"},
    {"reliability.readout_ms", "ms"},
    {"api.unattributed_ms", "ms"},
    {"runtime.structure_hit_ratio", "ratio"},
    {"runtime.embedding_hit_ratio", "ratio"},
    {"runtime.regression_hit_ratio", "ratio"},
    {"runtime.structure_lookups", "count"},
    {"runtime.embedding_lookups", "count"},
    {"runtime.regression_lookups", "count"},
    {"runtime.cache_evictions", "count"},
    {"core.prepare_ms.p50", "ms"},
    {"core.prepare_ms.p90", "ms"},
    {"core.train_epoch_s", "s"},
    {"nn.embed_ms.p50", "ms"},
    {"nn.embed_ms.p90", "ms"},
    {"nn.execute_ms", "ms"},
    {"nn.record_plan_ms", "ms"},
    {"nn.flushes", "count"},
    {"nn.steps", "count"},
    {"nn.chains", "count"},
    {"nn.global_syncs", "count"},
    {"nn.slab_gather_rows", "count"},
    {"nn.train_execute_s", "s"},
    {"nn.train_steps", "count"},
    {"nn.train_flushes", "count"},
    {"process.peak_rss_mb", "MB"},
    {"process.cpu_ms_per_item", "ms"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
    {"trace.replay_samples", "count"},
};

template <std::size_t N>
std::vector<Metric> fill(const MetricDef (&defs)[N],
                         const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  std::set<std::string> known;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v))
      throw Error(std::string("metric ") + d.name + " is not finite");
    out.push_back({d.name, v, d.unit});
    known.insert(d.name);
  }
  for (const auto& [name, v] : values)
    if (known.count(name) == 0) throw Error("undeclared metric " + name);
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        // optional: full result document
  std::string trace_out;  // Chrome trace of the traced run
  std::string scratch = "e2e_ledger_work";
};

/// The traced run's spans as Chrome trace JSON: --trace-out, or
/// <scratch>/trace-<workload>-seed<n>.json.
void write_chrome_trace(const Options& opt, const e2e::SpanRecorder& spans) {
  const std::string path =
      !opt.trace_out.empty()
          ? opt.trace_out
          : (fs::path(opt.scratch) / ("trace-" + opt.workload + "-seed" +
                                      std::to_string(opt.seed) + ".json"))
                .string();
  std::ofstream out(path);
  out << spans.chrome_json();
  if (!out) throw Error("cannot write " + path);
  std::printf("chrome trace: %s\n", path.c_str());
}

struct Result {
  bool correct = false;
  std::size_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

std::vector<double> latencies(const Phase& p, const std::vector<Item>& items,
                              std::optional<TaskKind> kind = std::nullopt) {
  std::vector<double> v;
  for (std::size_t i = 0; i < p.attempted; ++i)
    if (p.records[i].ok && (!kind || items[i].kind == *kind))
      v.push_back(ms_between(p.records[i].begin, p.records[i].end));
  return v;
}

std::vector<double> field(const Phase& p, double Record::*member) {
  std::vector<double> v;
  for (std::size_t i = 0; i < p.attempted; ++i)
    if (p.records[i].ok) v.push_back(p.records[i].*member);
  return v;
}

void print_kind_table(const Phase& p, const std::vector<Item>& items) {
  std::printf("%-16s %8s %10s %10s\n", "kind", "count", "p50 ms", "p90 ms");
  for (TaskKind k : kAllKinds) {
    const std::vector<double> v = latencies(p, items, k);
    if (v.empty()) continue;
    std::printf("%-16s %8zu %10.3f %10.3f\n", api::task_name(k), v.size(),
                quantile(v, 0.5), quantile(v, 0.9));
  }
}

Result run_serving(const WorkloadSpec& spec, const Options& opt) {
  Checks checks;
  const std::string workload = spec.name;
  const fs::path cold_dir =
      fs::path(opt.scratch) / ("cold_unique-seed" + std::to_string(opt.seed));
  // The generated designs only live for the run.
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{workload == "cold_unique" ? cold_dir : fs::path()};

  const auto t_inputs = Clock::now();
  const ServingInputs in =
      workload == "cold_unique"
          ? cold_inputs(spec, opt.seed, opt.seconds, cold_dir, checks)
          : structure_inputs(spec, opt.seed, opt.seconds,
                             workload == "new_workload", checks);
  std::printf("inputs: %zu requests, %zu set-up requests (generated in "
              "%.2f s)\n",
              in.items.size(), in.warmup.size(),
              ms_between(t_inputs, Clock::now()) * 1e-3);
  reset_peak_rss();

  // One timed phase on a freshly started tier.
  const auto timed_phase = [&](int setups, std::vector<double>* setup_s,
                               e2e::SpanRecorder* spans, double* rss) {
    std::optional<Tier> tier;
    for (int r = 0; r < setups; ++r) {
      tier.reset();
      const auto t0 = Clock::now();
      tier.emplace(start_tier(in.warmup));
      if (setup_s != nullptr)
        setup_s->push_back(ms_between(t0, Clock::now()) * 1e-3);
    }
    DriveOptions o;
    o.sample_stride = spec.sample_stride;
    o.spans = spans;
    o.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opt.seconds));
    Phase p = drive(*tier, in.items, o);
    if (rss != nullptr) *rss = peak_rss_mb();
    if (p.exhausted)
      std::fprintf(stderr,
                   "e2e_ledger: inputs exhausted after %.2f s; the phase "
                   "ended early\n",
                   p.wall_s);
    return p;
  };

  std::vector<double> setup_s;
  double rss = 0.0;
  const Phase base =
      timed_phase(opt.trace ? 1 : kSetupRepeats, &setup_s, nullptr, &rss);
  const Tally bt = tally(base);
  check_serving(workload, in, base, bt, checks);
  std::printf("set-up: %zu x, median %.3f s; timed: %zu requests in %.3f s\n",
              setup_s.size(), quantile(setup_s, 0.5), base.attempted,
              base.wall_s);
  print_kind_table(base, in.items);

  api::Session ref(serve_config().router.session);
  Result result;
  std::map<std::string, double> values;
  if (!opt.trace) {
    const std::size_t verified = verify_samples(ref, in.items, base, checks);
    std::printf("verified %zu sampled replies against an in-process Session\n",
                verified);
    const std::vector<double> lat = latencies(base, in.items);
    values["setup_s"] = quantile(setup_s, 0.5);
    std::vector<Interval> done;
    for (std::size_t i = 0; i < base.attempted; ++i)
      if (base.records[i].ok)
        done.push_back({base.records[i].begin, base.records[i].end});
    values["throughput_per_s"] = windowed_rate(done, base.start, base.wall_s);
    values["latency_p50_ms"] = quantile(lat, 0.5);
    values["latency_p90_ms"] = quantile(lat, 0.9);
    std::printf("latency samples: %zu (p90 has %zu beyond it)\n", lat.size(),
                lat.size() / 10);
    result.metrics = fill(kEndToEnd, values);
    result.attempted = base.attempted;
    result.failed = bt.failed + bt.shed + bt.wrong;
  } else {
    e2e::SpanRecorder spans(in.items.size() * 7 + 64);
    const Phase p = timed_phase(1, nullptr, &spans, nullptr);
    const Tally t = tally(p);
    check_serving(workload, in, p, t, checks);
    const std::size_t verified = verify_samples(ref, in.items, p, checks);
    const Replays rep = replay_layers(ref, in.items, p);
    std::printf("traced: %zu requests; verified %zu, replayed %zu\n",
                p.attempted, verified, rep.samples);

    const auto p50 = [](const std::vector<double>& v) {
      return quantile(v, 0.5);
    };
    std::vector<double> outside;
    for (std::size_t i = 0; i < p.attempted; ++i)
      if (p.records[i].ok)
        outside.push_back(p.records[i].rpc_ms - p.records[i].total_ms);
    values["serve.outside_session_ms.p50"] = quantile(outside, 0.5);
    values["serve.outside_session_ms.p99"] = quantile(outside, 0.99);
    values["serve.req_encode_us"] = p50(rep.req_encode_us);
    values["serve.req_decode_us"] = p50(rep.req_decode_us);
    values["serve.resp_encode_us"] = p50(rep.resp_encode_us);
    values["serve.resp_decode_us"] = p50(rep.resp_decode_us);
    values["serve.req_bytes"] = p50(rep.req_bytes);
    values["serve.resp_bytes"] = p50(rep.resp_bytes);
    const std::vector<double> served(p.served.begin(), p.served.end());
    const double served_mean =
        std::accumulate(served.begin(), served.end(), 0.0) / served.size();
    values["serve.shard_skew"] =
        served_mean > 0
            ? *std::max_element(served.begin(), served.end()) / served_mean
            : 0.0;
    values["serve.shed"] =
        static_cast<double>(counter_sum(p.delta, "serve.shed."));
    values["serve.failed"] =
        static_cast<double>(counter_sum(p.delta, "serve.failed."));
    values["serve.unattributed_ms"] = p50(rep.serve_unattributed_ms);

    values["netlist.structural_hash_ms"] = p50(rep.structural_hash_ms);
    values["netlist.exact_hash_ms"] = p50(rep.exact_hash_ms);
    values["netlist.scoap_ms"] = p50(rep.scoap_ms);
    if (workload == "cold_unique") {
      values["netlist.aig_convert_ms"] = p50(field(p, &Record::aig_ms));
      values["ingest.request_parse_ms"] = p50(field(p, &Record::ingest_ms));
      values["ingest.scan_s"] = in.scan.scan_s;
      values["ingest.mb_per_s"] =
          in.scan.scan_s > 0 ? in.scan.bytes / 1e6 / in.scan.scan_s : 0.0;
      values["ingest.parse_ms.p50"] = in.scan.parse_ns.percentile(0.5) * 1e-6;
      values["ingest.parse_ms.p99"] = in.scan.parse_ns.percentile(0.99) * 1e-6;
      values["ingest.bytes"] = static_cast<double>(in.scan.bytes);
      values["ingest.designs"] = static_cast<double>(in.scan.designs);
      values["ingest.dup_dropped"] = static_cast<double>(in.scan.dup_dropped);
    }

    values["api.session_total_ms"] = p50(field(p, &Record::total_ms));
    values["api.session_queue_ms"] = p50(field(p, &Record::queue_ms));
    values["api.session_compute_ms"] = p50(field(p, &Record::compute_ms));
    for (TaskKind k : spec.kinds)
      values[std::string("api.kind.") + api::task_name(k) + ".latency_p50_ms"] =
          p50(latencies(p, in.items, k));
    values["api.head.regress_ms"] = p50(rep.regress_ms);
    values["power.analyze_ms"] = p50(rep.power_ms);
    values["reliability.readout_ms"] = p50(rep.reliability_ms);
    values["api.unattributed_ms"] = p50(rep.api_unattributed_ms);

    const CacheRatios c = cache_ratios(p, in.items);
    values["runtime.structure_hit_ratio"] = c.structure.ratio();
    values["runtime.embedding_hit_ratio"] = c.embedding.ratio();
    values["runtime.regression_hit_ratio"] = c.regression.ratio();
    values["runtime.structure_lookups"] = c.structure.lookups;
    values["runtime.embedding_lookups"] = c.embedding.lookups;
    values["runtime.regression_lookups"] = c.regression.lookups;
    double evictions = 0.0;
    for (const auto& [name, v] : p.delta.counters)
      if (name.rfind("cache.", 0) == 0 && name.size() > 10 &&
          name.compare(name.size() - 10, 10, ".evictions") == 0)
        evictions += static_cast<double>(v);
    values["runtime.cache_evictions"] = evictions;

    values["core.prepare_ms.p50"] = p50(rep.prepare_ms);
    values["core.prepare_ms.p90"] = quantile(rep.prepare_ms, 0.9);
    values["nn.embed_ms.p50"] = p50(rep.embed_ms);
    values["nn.embed_ms.p90"] = quantile(rep.embed_ms, 0.9);
    values["nn.execute_ms"] = p50(rep.execute_ms);
    values["nn.record_plan_ms"] = p50(rep.record_plan_ms);
    values["nn.flushes"] = p50(rep.flushes);
    values["nn.steps"] = p50(rep.steps);
    values["nn.chains"] = p50(rep.chains);
    values["nn.global_syncs"] = p50(rep.global_syncs);
    values["nn.slab_gather_rows"] = p50(rep.gather_rows);

    const double untraced = quantile(latencies(base, in.items), 0.5);
    values["trace.overhead_share"] =
        untraced > 0 ? quantile(latencies(p, in.items), 0.5) / untraced - 1.0
                     : 0.0;
    values["process.peak_rss_mb"] = rss;
    values["process.cpu_ms_per_item"] =
        base.cpu_s * 1e3 / std::max<std::size_t>(1, bt.completed);
    values["trace.spans"] = static_cast<double>(spans.size());
    values["trace.replay_samples"] = static_cast<double>(rep.samples);

    std::printf("\nper-layer spans (traced run; self = minus child spans)\n");
    e2e::print_layer_table(spans);
    std::printf("unattributed p50: serve %.4f ms of %.4f ms outside the "
                "session; api %.4f ms of %.4f ms session compute\n",
                values["serve.unattributed_ms"],
                values["serve.outside_session_ms.p50"],
                values["api.unattributed_ms"],
                values["api.session_compute_ms"]);
    write_chrome_trace(opt, spans);

    result.metrics = fill(kPerLayer, values);
    result.attempted = p.attempted;
    result.failed = t.failed + t.shed + t.wrong;
  }
  result.correct = checks.failures.empty();
  for (const std::string& f : checks.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  return result;
}

std::vector<double> durations_ms(const std::vector<Interval>& items) {
  std::vector<double> v;
  for (const Interval& it : items) v.push_back(ms_between(it.begin, it.end));
  return v;
}

Result run_finetune(const Options& opt) {
  Checks checks;
  Result result;
  std::map<std::string, double> values;
  std::vector<double> setup_s;
  std::optional<TrainSetup> setup;
  reset_peak_rss();
  for (int r = 0; r < (opt.trace ? 1 : kSetupRepeats); ++r) {
    setup.reset();
    const auto t0 = Clock::now();
    setup.emplace(setup_training(opt.seed));
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  const TrainPhase base = run_training(*setup, opt.seed, opt.seconds, nullptr);
  const double rss = peak_rss_mb();
  const std::vector<double> step_ms = durations_ms(base.steps_timed);
  check_training(base, checks);
  std::printf("set-up: %zu x, median %.3f s; timed: %zu steps, %zu samples in "
              "%.3f s\n",
              setup_s.size(), quantile(setup_s, 0.5), step_ms.size(),
              base.samples, base.wall_s);
  if (!opt.trace) {
    values["setup_s"] = quantile(setup_s, 0.5);
    values["throughput_per_s"] =
        windowed_rate(base.steps_timed, base.start, base.wall_s);
    values["latency_p50_ms"] = quantile(step_ms, 0.5);
    values["latency_p90_ms"] = quantile(step_ms, 0.9);
    result.metrics = fill(kEndToEnd, values);
    result.attempted = step_ms.size();
  } else {
    // A fresh model, so the traced phase trains from the same start.
    setup.reset();
    setup.emplace(setup_training(opt.seed));
    e2e::SpanRecorder spans(4096);
    const TrainPhase p = run_training(*setup, opt.seed, opt.seconds, &spans);
    check_training(p, checks);
    values["core.train_epoch_s"] = quantile(p.epoch_s, 0.5);
    values["nn.train_execute_s"] = quantile(p.epoch_execute_s, 0.5);
    values["nn.train_steps"] = quantile(p.epoch_steps, 0.5);
    values["nn.train_flushes"] = quantile(p.epoch_flushes, 0.5);
    const double untraced = quantile(step_ms, 0.5);
    values["trace.overhead_share"] =
        untraced > 0
            ? quantile(durations_ms(p.steps_timed), 0.5) / untraced - 1.0
            : 0.0;
    values["process.peak_rss_mb"] = rss;
    values["process.cpu_ms_per_item"] =
        base.cpu_s * 1e3 / std::max<std::size_t>(1, base.samples);
    values["trace.spans"] = static_cast<double>(spans.size());
    std::printf("\nper-layer spans (traced run; self = minus child spans)\n");
    e2e::print_layer_table(spans);
    write_chrome_trace(opt, spans);
    result.metrics = fill(kPerLayer, values);
    result.attempted = p.steps_timed.size();
  }
  result.correct = checks.failures.empty();
  for (const std::string& f : checks.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  return result;
}

const char kUsage[] =
    "usage: e2e_ledger --workload <cold_unique|new_workload|warm_repeat|"
    "finetune>\n"
    "                  --seed <n> --seconds <s> --trace <0|1>\n"
    "                  [--out <result.json>] [--trace-out <chrome.json>]\n"
    "                  [--scratch <dir>]\n";

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw Error("missing value for " + flag);
    const std::string v = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v, &used);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v, &used);
      if (!(o.seconds > 0)) throw Error("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw Error("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out = v;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--scratch") {
      o.scratch = v;
    } else {
      throw Error("unknown argument " + flag);
    }
    if (used != 0 && used != v.size()) throw Error("bad number for " + flag);
  }
  if (!have_workload) throw Error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const WorkloadSpec* spec = nullptr;
  try {
    opt = parse_args(argc, argv);
    for (const WorkloadSpec& s : workload_specs())
      if (opt.workload == s.name) spec = &s;
    if (spec == nullptr) throw Error("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_ledger: %s\n%s", e.what(), kUsage);
    return 2;
  }
  // The trace clock's origin is its first reading; take it now, before any
  // span starts (earlier time points would clamp to 0).
  (void)obs::trace_now_ns();
  try {
    fs::create_directories(opt.scratch);
    const std::string config = config_json();
    std::printf("e2e_ledger: workload %s, seed %llu, %.3g s, trace %d\n",
                spec->name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("config: %s\n", config.c_str());
    std::fflush(stdout);
    const Result r = spec->kinds.empty() ? run_finetune(opt)
                                         : run_serving(*spec, opt);
    std::printf("\n");
    for (const Metric& m : r.metrics)
      std::printf("%-42s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    const std::string line =
        std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"metrics\": " + json_metrics(r.metrics) + "}";
    if (!opt.out.empty()) {
      std::ofstream out(opt.out);
      out << "{\"workload\": \"" << spec->name << "\", \"seed\": " << opt.seed
          << ", \"seconds\": " << json_number(opt.seconds)
          << ", \"trace\": " << (opt.trace ? 1 : 0)
          << ", \"config\": " << config
          << ", \"result\": " << line << "}\n";
      if (!out) throw Error("cannot write " + opt.out);
    }
    std::printf("%s\n", line.c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_ledger: %s\n", e.what());
    return 1;
  }
}
