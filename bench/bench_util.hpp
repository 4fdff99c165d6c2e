#pragma once

#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "dataset/training_data.hpp"
#include "obs/metrics.hpp"
#include "power/grannite.hpp"

namespace deepseq::bench {

/// Scale configuration shared by every table bench. Defaults are sized so
/// the whole suite regenerates on a single core in tens of minutes;
/// DEEPSEQ_FULL=1 switches every knob to the paper's values (§IV-A3 and
/// §V) — expect days of CPU time at that setting. Individual knobs can be
/// overridden with DEEPSEQ_* environment variables (listed in
/// bench_util.cpp; README "Benches at paper scale").
struct BenchConfig {
  bool full = false;

  // Pre-training corpus (Table I) and optimization (§IV-A3).
  int circuits = 60;
  int sim_cycles = 2000;
  int epochs = 40;
  int hidden = 32;
  int iterations = 4;  // T
  float lr = 1.5e-3f;
  int batch = 4;
  std::uint64_t data_seed = 1;
  double val_fraction = 0.2;

  // Downstream evaluation (Tables IV-VII).
  double design_scale = 1.0 / 16.0;
  int gt_cycles = 2000;
  int ft_workloads = 12;   // paper: 1000
  int ft_epochs = 20;      // paper: 50
  float ft_lr = 2e-3f;
  int ft_cycles = 1000;
  double workload_active_fraction = 0.3;

  // Reliability (Table VII, §V-B1).
  int fault_sequences = 256;  // paper: 1000
  int fault_cycles = 100;     // paper: 100
  double fault_eps = 0.0005;  // paper: 0.05%
  int rel_ft_samples = 24;
  int rel_ft_epochs = 12;

  std::uint64_t eval_seed = 777;
  std::string cache_dir = "deepseq_cache";

  static BenchConfig from_env();
  std::string fingerprint() const;  // cache-key component
};

/// The shared pre-training dataset (memoized per process).
const TrainingDataset& shared_dataset(const BenchConfig& cfg);
void split_dataset(const BenchConfig& cfg, std::vector<TrainSample>& train,
                   std::vector<TrainSample>& val);

/// Train a model on `train` (or load it from the bench cache when an
/// identically-configured earlier bench already trained it). The cache key
/// covers the model description and every scale knob.
DeepSeqModel train_or_load(const ModelConfig& config,
                           const std::vector<TrainSample>& train,
                           const BenchConfig& cfg, const std::string& tag);

/// Variant with explicit training options (e.g. task-weight ablations);
/// the tag must make the cache key unique for the option set.
DeepSeqModel train_or_load(const ModelConfig& config,
                           const std::vector<TrainSample>& train,
                           const BenchConfig& cfg, const std::string& tag,
                           const TrainOptions& topt);

/// Per-design fine-tuning budget for Tables V/VI: the configured
/// workloads/epochs are scaled by sqrt(1000 / aig_nodes) (clamped) so
/// cheap small designs fine-tune longer and expensive large ones less —
/// roughly constant wall-time per design. Full scale returns the
/// configured values unchanged (the paper's 1000 x 50).
struct FtBudget {
  int workloads = 0;
  int epochs = 0;
};
FtBudget scaled_ft_budget(const BenchConfig& cfg, std::size_t aig_nodes);

/// Pre-trained models for the downstream benches (trained on the full
/// dataset, cached).
DeepSeqModel pretrained_deepseq(const BenchConfig& cfg);
GranniteModel pretrained_grannite(const BenchConfig& cfg);

/// Formatting helpers for paper-style tables.
void print_banner(const std::string& table, const std::string& caption,
                  const BenchConfig& cfg);
std::string pct(double fraction, int decimals = 2);

/// Minimal streaming JSON writer for machine-readable bench output (the
/// serving/runtime benches emit one JSON document next to their tables so
/// results can be tracked across commits). Keys/values are appended in
/// call order; strings are escaped; no pretty-printing beyond newlines.
class JsonWriter {
 public:
  std::string str() const;  // finalized document

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array(const std::string& key = {});
  JsonWriter& end_array();
  JsonWriter& key(const std::string& k);  // next value's key (inside object)
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(bool v);
  /// key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    return key(k).value(v);
  }

 private:
  void separator();
  std::string out_;
  bool need_comma_ = false;
};

/// Write `json` to `path` (parent dirs created), echoing the path on stdout.
void write_json_file(const std::string& path, const std::string& json);

/// Emit an obs::Summary as flat `<prefix>_{mean,p50,p90,p99,max}_ms` fields
/// (plus `<prefix>_count`) — the one JSON shape every bench uses for a
/// latency digest, backed by the same obs::Histogram percentile math as the
/// metrics export.
void json_summary(JsonWriter& json, const std::string& prefix,
                  const obs::Summary& s);

/// Emit a histogram window (typically an obs::delta of the process
/// registry around a measured region) as `<prefix>_{mean,p50,p99,max}`
/// fields in the recorded unit times `scale` — queue-depth / batch-size
/// distributions ride into bench JSON through this.
void json_histogram(JsonWriter& json, const std::string& prefix,
                    const obs::HistogramSnapshot& h, double scale = 1.0);

}  // namespace deepseq::bench
