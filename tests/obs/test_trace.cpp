#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "runtime/thread_pool.hpp"
#include "support/json_check.hpp"

namespace deepseq::obs {
namespace {

TraceEvent make_event(const char* name, std::uint64_t id) {
  TraceEvent e;
  e.name = name;
  e.ts_ns = id * 1000;
  e.dur_ns = 500;
  e.ctx.task_id = id;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Every integer following a `"task":` key in a serialized trace.
std::vector<std::uint64_t> task_ids_in(const std::string& doc) {
  std::vector<std::uint64_t> ids;
  const std::string key = "\"task\":";
  for (std::size_t pos = doc.find(key); pos != std::string::npos;
       pos = doc.find(key, pos + 1)) {
    ids.push_back(std::strtoull(doc.c_str() + pos + key.size(), nullptr, 10));
  }
  return ids;
}

// ---- ring-buffer sink ------------------------------------------------------

TEST(ObsTraceSink, RetainsEverythingUnderCapacity) {
  TraceSink sink(16);
  for (std::uint64_t i = 0; i < 10; ++i) sink.record(make_event("e", i));
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 0u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_EQ(events[i].ctx.task_id, i);  // oldest first
}

TEST(ObsTraceSink, OverflowKeepsTheNewestEvents) {
  TraceSink sink(8);
  for (std::uint64_t i = 0; i < 20; ++i) sink.record(make_event("e", i));
  EXPECT_EQ(sink.recorded(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_EQ(events[i].ctx.task_id, 12 + i);  // the tail of the run
}

TEST(ObsTraceSink, ClearResets) {
  TraceSink sink(8);
  for (std::uint64_t i = 0; i < 5; ++i) sink.record(make_event("e", i));
  sink.clear();
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(sink.events().empty());
}

TEST(ObsTraceSink, ConcurrentRecordersLoseNothingUnderCapacity) {
  TraceSink sink(4096);
  constexpr int kTasks = 16;
  constexpr int kPerTask = 100;
  {
    runtime::ThreadPool pool(8);
    for (int t = 0; t < kTasks; ++t)
      pool.submit([&sink, t] {
        for (int i = 0; i < kPerTask; ++i)
          sink.record(make_event("e", static_cast<std::uint64_t>(t) * kPerTask +
                                          static_cast<std::uint64_t>(i)));
      });
  }  // destruction runs every queued task
  EXPECT_EQ(sink.recorded(), static_cast<std::uint64_t>(kTasks) * kPerTask);
  EXPECT_EQ(sink.dropped(), 0u);
  // Every distinct event survived (tickets are unique, capacity was enough).
  std::set<std::uint64_t> ids;
  for (const TraceEvent& e : sink.events()) ids.insert(e.ctx.task_id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kTasks) * kPerTask);
}

// ---- chrome export ---------------------------------------------------------

TEST(ObsChromeTrace, SerializesValidJson) {
  std::vector<TraceEvent> events;
  TraceEvent x = make_event("span", 7);
  x.ctx.kind = "embedding";
  x.ctx.backend_fingerprint = 0xdeadbeef;
  x.structure = 0x1234;
  x.arg_name[0] = "cache_hit";
  x.arg[0] = 1;
  events.push_back(x);
  TraceEvent i = make_event("mark", 8);
  i.ph = 'i';
  i.cat = "session";
  events.push_back(i);

  const std::string doc = chrome_trace_json(events);
  EXPECT_TRUE(testing::valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"span\""), std::string::npos);
  EXPECT_NE(doc.find("\"cache_hit\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"s\":\"p\""), std::string::npos);  // instant scope
}

TEST(ObsChromeTrace, EmptySinkSerializesValidJson) {
  EXPECT_TRUE(testing::valid_json(chrome_trace_json({})));
}

TEST(ObsTracePath, ValidateRejectsUnwritablePath) {
  EXPECT_THROW(validate_trace_path("/nonexistent_dir_xyz123/trace.json"),
               Error);
}

// ---- end-to-end through the Session ---------------------------------------

api::SessionConfig small_session() {
  api::SessionConfig cfg;
  cfg.backends.model = ModelConfig::deepseq(/*hidden=*/12, /*t=*/2);
  return cfg;
}

std::shared_ptr<const Circuit> shared_aig(std::uint64_t seed, int pis = 5) {
  Rng rng(seed);
  GeneratorSpec spec;
  spec.num_pis = pis;
  spec.num_ffs = 4;
  spec.num_gates = 60;
  for (int t = 0; t < kNumGateTypes; ++t) spec.gate_weights[t] = 0.0;
  spec.gate_weights[static_cast<int>(GateType::kAnd)] = 4.0;
  spec.gate_weights[static_cast<int>(GateType::kNot)] = 2.0;
  return std::make_shared<const Circuit>(generate_circuit(spec, rng));
}

/// A Session config that traces to `path`, handed over either as
/// SessionConfig::trace_path or, with that field left empty, as the
/// DEEPSEQ_TRACE environment variable. Callers unset DEEPSEQ_TRACE again.
api::SessionConfig traced_session(const std::string& path, bool via_env) {
  api::SessionConfig cfg = small_session();
  if (via_env)
    ::setenv("DEEPSEQ_TRACE", path.c_str(), 1);
  else
    cfg.trace_path = path;
  return cfg;
}

const char* route_name(bool via_env) {
  return via_env ? "DEEPSEQ_TRACE" : "SessionConfig::trace_path";
}

TEST(ObsSessionTrace, OneTaskYieldsACompleteSpanChain) {
  ::unsetenv("DEEPSEQ_TRACE");
  for (const bool via_env : {false, true}) {
    SCOPED_TRACE(route_name(via_env));
    const std::string path = (std::filesystem::temp_directory_path() /
                              "deepseq_obs_span_chain.json")
                                 .string();
    TraceSink::global().clear();  // isolate from earlier tests in this binary
    {
      api::Session session(traced_session(path, via_env));
      EXPECT_TRUE(tracing_enabled());

      const auto circuit = shared_aig(1);
      Rng rng(9);
      api::TaskRequest req;
      req.circuit = circuit;
      req.workload = random_workload(*circuit, rng);
      req.task = api::TaskKind::kLogicProb;  // embed + regression head
      req.init_seed = 7;
      session.run_sync(req);
    }  // ~Session writes the dump
    ::unsetenv("DEEPSEQ_TRACE");
    EXPECT_FALSE(tracing_enabled());  // prior (off) state restored

    const std::string doc = slurp(path);
    ASSERT_FALSE(doc.empty());
    EXPECT_TRUE(testing::valid_json(doc)) << doc;
    // The full chain of one request, each stage present by name.
    for (const char* span :
         {"\"resolve\"", "\"embed\"", "\"head\"", "\"task\""}) {
      EXPECT_NE(doc.find(span), std::string::npos) << "missing span " << span;
    }
    EXPECT_EQ(doc.find("\"queue\""), std::string::npos);  // no queue stage
    // The head span says whether a cache layer served each head.
    EXPECT_NE(doc.find("\"regression_cache_hit\""), std::string::npos);
    EXPECT_NE(doc.find("\"head_cache_hit\""), std::string::npos);
    EXPECT_NE(doc.find("\"kind\":\"logic-prob\""), std::string::npos);
    // Every span of the single task carries the same task id.
    const std::vector<std::uint64_t> ids = task_ids_in(doc);
    ASSERT_GE(ids.size(), 4u);
    for (std::uint64_t id : ids) EXPECT_EQ(id, ids.front());
    std::filesystem::remove(path);
  }
}

TEST(ObsSessionTrace, UnwritableTracePathFailsSessionConstruction) {
  ::unsetenv("DEEPSEQ_TRACE");
  for (const bool via_env : {false, true}) {
    SCOPED_TRACE(route_name(via_env));
    const api::SessionConfig cfg =
        traced_session("/nonexistent_dir_xyz123/trace.json", via_env);
    EXPECT_THROW(api::Session session(cfg), Error);
    ::unsetenv("DEEPSEQ_TRACE");
  }
}

TEST(ObsSessionTrace, TaskCountersBalanceAcrossSuccessAndFailure) {
  ::unsetenv("DEEPSEQ_TRACE");  // the untraced path: spans stay off
  const Snapshot base = Registry::global().snapshot();
  {
    api::Session session(small_session());
    const auto circuit = shared_aig(2, /*pis=*/5);
    const auto other = shared_aig(3, /*pis=*/9);  // different PI count
    Rng rng(11);

    api::TaskRequest ok;
    ok.circuit = circuit;
    ok.workload = random_workload(*circuit, rng);
    ok.task = api::TaskKind::kEmbedding;
    session.run_sync(ok);
    EXPECT_FALSE(tracing_enabled());

    api::TaskRequest bad = ok;
    bad.workload = random_workload(*other, rng);  // PI mismatch: must throw
    EXPECT_THROW(session.run_sync(bad), std::exception);
  }
  const Snapshot d = delta(Registry::global().snapshot(), base);
  const auto count = [&d](const std::string& name) {
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(count("task.submitted.embedding"), 2u);
  EXPECT_EQ(count("task.completed.embedding"), 1u);
  EXPECT_EQ(count("task.failed.embedding"), 1u);
  EXPECT_EQ(count("task.submitted.embedding"),
            count("task.completed.embedding") +
                count("task.failed.embedding"));
}

TEST(ObsSessionTrace, WriteChromeTraceDumpsTheGlobalSink) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "deepseq_obs_dump.json")
          .string();
  TraceSink::global().clear();
  TraceSink::global().record(make_event("standalone", 42));
  write_chrome_trace(path);
  const std::string doc = slurp(path);
  EXPECT_TRUE(testing::valid_json(doc)) << doc;
  EXPECT_NE(doc.find("\"standalone\""), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace deepseq::obs
