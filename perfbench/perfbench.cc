// perfbench: the end-to-end benchmark of both Anatomy pipelines.
//
//   perfbench --workload {publish_1m_mem|publish_1m_sharded|publish_1m_disk|
//                         query_hot|serve_churn}
//             --seed N --seconds S --trace {0|1} --trace_out FILE
//             [--git_sha SHA]
//
// Publish: n microdata rows become a verified QIT/ST, in memory, sharded or
// through the page-I/O disk path, one workload per path. Query: analysts ask
// COUNT/SUM aggregates, either straight from one shared estimator or through
// the serving stack (Session policy -> catalog -> scatter-gather -> node
// engines -> fold).
//
// The benchmark drives the library from outside through its public entry
// points. Inputs are generated from --seed before anything is timed, every
// timing is wall clock (steady_clock around one library call), and every
// answer is checked. The virtual-time fields of the serving stack are never
// reported as performance.
//
// --trace 0 prints the end-to-end metrics; --trace 1 wraps each layer call in
// an obs::ScopedSpan, exports the spans as Chrome trace JSON, prints self time
// per layer, and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <malloc.h>

#include "anatomy/anatomized_tables.h"
#include "anatomy/anatomizer.h"
#include "anatomy/external_anatomizer.h"
#include "anatomy/partition.h"
#include "anatomy/rce.h"
#include "anatomy/sharded_anatomizer.h"
#include "data/census_generator.h"
#include "data/dataset.h"
#include "dist/scatter_gather.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/breach.h"
#include "query/aggregate.h"
#include "query/estimator_scratch.h"
#include "query/group_kernels.h"
#include "query/simd.h"
#include "serve/catalog.h"
#include "serve/session.h"
#include "storage/buffer_pool.h"
#include "storage/publication.h"
#include "storage/simulated_disk.h"
#include "workload/workload.h"

namespace perfbench {
extern std::atomic<uint64_t> g_heap_allocs;
}  // namespace perfbench

namespace {

using namespace anatomy;

// The paper's privacy parameter for every workload.
constexpr int kL = 10;

// Set-up runs once cold, then this many times more; the median of the warm
// repetitions is reported, so that work moved into set-up shows without one
// slow repetition deciding. The cold one is not counted: it pays the
// process's first page faults, whose cost follows the host's memory state
// more than the library.
constexpr int kSetupRepeats = 7;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

size_t HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// The kernel's peak resident set of this process (VmHWM) in MiB.
double HwmMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// ---------------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// The highest of p99, p90 and p50 that still has at least ten samples beyond
// it; the maximum when the sample is too small for any.
struct Tail {
  double value = 0.0;
  std::string label;
};

Tail TailOf(const std::vector<double>& v) {
  static const std::pair<double, const char*> kCandidates[] = {
      {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}};
  for (const auto& [q, label] : kCandidates) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      return {Quantile(v, q), label};
    }
  }
  return {v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()), "max"};
}

// "n=<count>, <tail label> <tail value>": the sample count and tail that go
// with a printed median.
std::string Spread(const std::vector<double>& v) {
  const Tail tail = TailOf(v);
  return "n=" + std::to_string(v.size()) + ", " + tail.label + " " +
         std::to_string(tail.value);
}

// ---------------------------------------------------------------------------
// Checks. Each returns true when the answer is acceptable; the self-test
// feeds each one a perturbed answer and requires a rejection.

bool BreachOk(double breach_max, int l) {
  return breach_max <= 1.0 / l + 1e-12;
}

bool RceOk(double rce_over_lb, double bound) {
  return rce_over_lb <= bound + 1e-12;
}

bool WithinRel(double got, double ref, double tol) {
  return std::fabs(got - ref) <= tol * std::max(std::fabs(ref), std::fabs(got));
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

uint64_t PartitionDigest(const Partition& p) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& group : p.groups) {
    mix(group.size());
    for (RowId r : group) mix(static_cast<uint64_t>(r));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Report: human-readable lines plus the final JSON object.

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics_[name] = {value, unit};
    std::printf("  %-30s %16.6f %-9s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  // A value printed for the reader only: the pipeline's own figures by
  // name, which the JSON carries under the workload-independent metrics.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::printf("  %-30s %16.6f %-9s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  // Sets a metric only if the run has not measured it.
  void Default(const std::string& name, double value, const std::string& unit) {
    metrics_.try_emplace(name, MetricValue{value, unit});
  }

  // error_rate = failed / attempted operations, printed with both counts.
  void InfoErrorRate() {
    Info("error_rate",
         static_cast<double>(failed_) /
             static_cast<double>(std::max<uint64_t>(1, attempted_)),
         "fraction",
         std::to_string(failed_) + "/" + std::to_string(attempted_));
  }

  void Attempt(uint64_t n = 1) { attempted_ += n; }

  void Fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20) std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  // A failure of the benchmark's own machinery (not an op of the program).
  void Broken(const std::string& what) {
    broken_ = true;
    std::printf("BENCHMARK ERROR: %s\n", what.c_str());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return !broken_ && failed_ == 0 && attempted_ > 0; }

  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      if (!first) os << ", ";
      first = false;
      os << "\"" << name << "\": {\"value\": " << m.value << ", \"unit\": \""
         << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::map<std::string, MetricValue> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool broken_ = false;
};

// Peak resident set of the program's own work. Restart() counts from the
// current resident set (after input generation and set-up); the benchmark's
// reference structures are built between Pause() and the next Restart(), so
// they do not count. Restart() first hands the heap's free memory back to
// the kernel, so that memory the benchmark freed is not counted either.
class PeakRss {
 public:
  explicit PeakRss(Report* report) : report_(report) {}

  void Restart() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    const bool written = f != nullptr && std::fputs("5", f) >= 0;
    if (f == nullptr || std::fclose(f) != 0 || !written) {
      report_->Broken("cannot reset the peak-RSS count");
    }
  }
  void Pause() { peak_ = std::max(peak_, HwmMiB()); }
  double MiB() const { return std::max(peak_, HwmMiB()); }

 private:
  Report* report_;
  double peak_ = 0.0;
};

// ---------------------------------------------------------------------------
// Tracing support: span bookkeeping for the traced run.

// Which repository layer a span belongs to. The benchmark's own spans are
// named "<layer>.<call>"; the library's internal spans use their pipeline
// names, mapped here onto the module that records them.
std::string LayerOf(const std::string& span_name) {
  const std::string head = span_name.substr(0, span_name.find('.'));
  if (head == "anatomize" || head == "external_anatomize") return "anatomy";
  if (head == "external_sort") return "storage";
  return head;
}

// Accumulates wall-clock span durations and self times (duration minus the
// part covered by child spans) per layer across trace snapshots.
class SpanLedger {
 public:
  void Add(const std::vector<obs::TraceEvent>& events) {
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < events.size(); ++i) {
      if (!events[i].virtual_time && events[i].span_id != 0) {
        by_id[events[i].span_id] = i;
      }
    }
    std::vector<uint64_t> child_ns(events.size(), 0);
    for (const auto& e : events) {
      if (e.virtual_time || e.parent_id == 0) continue;
      auto it = by_id.find(e.parent_id);
      if (it != by_id.end()) child_ns[it->second] += e.dur_ns;
    }
    for (size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      if (e.virtual_time) {
        ++virtual_events_;
        continue;
      }
      const uint64_t self = e.dur_ns > child_ns[i] ? e.dur_ns - child_ns[i] : 0;
      Layer& layer = layers_[LayerOf(e.name)];
      layer.self_ns += self;
      ++layer.spans;
      ++wall_events_;
    }
  }

  void Print() const {
    uint64_t total = 0;
    for (const auto& [name, layer] : layers_) total += layer.self_ns;
    std::printf("self time per layer, summed over threads (%llu wall spans; "
                "%llu virtual-time events ignored):\n",
                static_cast<unsigned long long>(wall_events_),
                static_cast<unsigned long long>(virtual_events_));
    for (const auto& [name, layer] : layers_) {
      std::printf("  %-12s %12.3f ms  %5.1f%%  (%llu spans)\n", name.c_str(),
                  static_cast<double>(layer.self_ns) * 1e-6,
                  total == 0 ? 0.0
                             : 100.0 * static_cast<double>(layer.self_ns) /
                                   static_cast<double>(total),
                  static_cast<unsigned long long>(layer.spans));
    }
  }

 private:
  struct Layer {
    uint64_t self_ns = 0;
    uint64_t spans = 0;
  };
  std::map<std::string, Layer> layers_;
  uint64_t wall_events_ = 0;
  uint64_t virtual_events_ = 0;
};

// Drains the global recorder into the ledger. The first drain of a run is
// also exported as the Chrome trace the validator checks. A ring that
// wrapped would have overwritten parents, so it fails the run.
class TraceDrain {
 public:
  TraceDrain(std::string out_path, Report* report)
      : out_path_(std::move(out_path)), report_(report) {}

  void Drain() {
    obs::TraceRecorder& tracer = obs::TraceRecorder::Global();
    if (tracer.dropped() != 0) {
      report_->Broken("trace ring wrapped: " +
                      std::to_string(tracer.dropped()) + " events lost");
    }
    if (!exported_ && tracer.event_count() > 0) {
      Status st = tracer.WriteChromeJson(out_path_);
      if (!st.ok()) report_->Broken("trace export: " + st.ToString());
      exported_ = true;
    }
    ledger_.Add(tracer.Snapshot());
    tracer.Clear();
  }

  const SpanLedger& ledger() const { return ledger_; }

 private:
  std::string out_path_;
  Report* report_;
  SpanLedger ledger_;
  bool exported_ = false;
};

uint64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->value();
}

struct PredCacheCounters {
  uint64_t hits = 0, misses = 0, evictions = 0;
  static PredCacheCounters Now() {
    return {CounterValue("query.predcache.hits"),
            CounterValue("query.predcache.misses"),
            CounterValue("query.predcache.evictions")};
  }
  PredCacheCounters operator-(const PredCacheCounters& o) const {
    return {hits - o.hits, misses - o.misses, evictions - o.evictions};
  }
  PredCacheCounters operator+(const PredCacheCounters& o) const {
    return {hits + o.hits, misses + o.misses, evictions + o.evictions};
  }
  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

// ---------------------------------------------------------------------------
// Inputs: the CENSUS substitute, generated from the seed. This is the
// benchmark's own cost and is never part of a timed or set-up figure.

// The generator draws every row independently, so the input is drawn as
// kInputChunks independent GenerateCensus streams on parallel threads and
// concatenated: the same distribution, the same rows for a seed at any
// thread count, and a fraction of the sequential time (1M rows: 7.8 s on one
// core of a 4-vCPU x86-64 VM, 2.5-2.8 s on its four).
constexpr size_t kInputChunks = 8;

ExperimentDataset MakeInput(RowId n, uint64_t seed, SensitiveFamily family) {
  std::vector<Table> chunks(kInputChunks);
  {
    const size_t threads = std::min(HardwareThreads(), kInputChunks);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t c = t; c < kInputChunks; c += threads) {
          const RowId lo = static_cast<RowId>(n * c / kInputChunks);
          const RowId hi = static_cast<RowId>(n * (c + 1) / kInputChunks);
          chunks[c] = GenerateCensus(hi - lo, SplitMix64(SplitMix64(seed) + c));
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  Table census = std::move(chunks[0]);
  census.Reserve(n);
  std::vector<Code> row;
  for (size_t c = 1; c < kInputChunks; ++c) {
    for (RowId i = 0; i < chunks[c].num_rows(); ++i) {
      chunks[c].GetRow(i, row);
      census.AppendRow(row);
    }
    chunks[c] = Table();
  }
  auto ds = MakeExperimentDataset(census, family, 5);
  if (!ds.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 ds.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(ds).value();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

// The audit of one publication: Corollary 1 and Theorem 4 (or its sharded
// form) on the tables the publication produced.
struct Audit {
  double breach_max = 0.0;
  double rce_over_lb = 0.0;
};

Audit AuditTables(const AnatomizedTables& tables, int l) {
  Audit a;
  a.rce_over_lb = AnatomyRce(tables) / RceLowerBound(tables.num_rows(), l);
  a.breach_max = MaxTupleBreachProbability(tables);
  return a;
}

// Records one publication's audit verdict against the RCE bound that applies
// to it; returns the RCE ratio for the run-wide maximum.
double CheckAudit(const Audit& a, double rce_bound, const std::string& what,
                  Report& r) {
  if (!BreachOk(a.breach_max, kL)) {
    r.Fail(what + ": breach " + std::to_string(a.breach_max) + " > 1/l");
  }
  if (!RceOk(a.rce_over_lb, rce_bound)) {
    r.Fail(what + ": RCE/LB " + std::to_string(a.rce_over_lb) + " > " +
           std::to_string(rce_bound));
  }
  return a.rce_over_lb;
}

// ---------------------------------------------------------------------------
// Self-test: every check must accept the real answer and reject a perturbed
// one. Runs on a small input at the start of every run.

void SelfTest(uint64_t seed, Report& r) {
  ExperimentDataset ds = MakeInput(4000, seed, SensitiveFamily::kOccupation);
  const Microdata& md = ds.microdata;
  const RowId n = md.n();
  int rejected = 0, expected = 0;
  auto expect = [&](bool accepts_real, bool accepts_perturbed,
                    const char* check) {
    ++expected;
    if (accepts_real && !accepts_perturbed) {
      ++rejected;
    } else {
      r.Broken(std::string("self-test: check '") + check +
               "' does not separate a real from a perturbed answer");
    }
  };

  auto partition = Anatomizer(AnatomizerOptions{.l = kL, .seed = seed})
                       .ComputePartition(md);
  if (!partition.ok()) {
    r.Broken("self-test partition: " + partition.status().ToString());
    return;
  }
  auto tables = AnatomizedTables::Build(md, *partition);
  if (!tables.ok()) {
    r.Broken("self-test build: " + tables.status().ToString());
    return;
  }
  const Audit real = AuditTables(*tables, kL);

  // Breach: move one row into a group that already holds its sensitive value.
  Partition bad = *partition;
  bool moved = false;
  for (size_t g = 1; g < bad.groups.size() && !moved; ++g) {
    std::set<Code> values0;
    for (RowId row : bad.groups[0]) values0.insert(md.sensitive_value(row));
    for (size_t k = 0; k < bad.groups[g].size(); ++k) {
      const RowId row = bad.groups[g][k];
      if (values0.count(md.sensitive_value(row)) != 0 &&
          bad.groups[g].size() > 1) {
        bad.groups[0].push_back(row);
        bad.groups[g].erase(bad.groups[g].begin() +
                            static_cast<std::ptrdiff_t>(k));
        moved = true;
        break;
      }
    }
  }
  auto bad_tables = AnatomizedTables::Build(md, bad);
  expect(BreachOk(real.breach_max, kL),
         moved && bad_tables.ok() &&
             BreachOk(MaxTupleBreachProbability(*bad_tables), kL),
         "breach <= 1/l");

  const double rce_bound = 1.0 + 1.0 / static_cast<double>(n);
  expect(RceOk(real.rce_over_lb, rce_bound),
         RceOk(real.rce_over_lb * (1.0 + 2.0 / static_cast<double>(n)),
               rce_bound),
         "RCE/LB <= 1 + 1/n");

  // Digest: a second run with the same seed must match; two rows swapped
  // between groups must not.
  auto again = Anatomizer(AnatomizerOptions{.l = kL, .seed = seed})
                   .ComputePartition(md);
  Partition swapped = *partition;
  std::swap(swapped.groups[0][0], swapped.groups[1][0]);
  expect(again.ok() && PartitionDigest(*again) == PartitionDigest(*partition),
         PartitionDigest(swapped) == PartitionDigest(*partition),
         "partition digest");

  // VerifyPublication: corrupt one published QIT page.
  {
    SimulatedDisk disk;
    BufferPool pool(&disk,
                    static_cast<size_t>(md.sensitive_attribute().domain_size) +
                        4);
    auto published =
        ExternalAnatomizer(AnatomizerOptions{.l = kL, .seed = seed})
            .RunPublished(md, &disk, &pool);
    const bool real_ok =
        published.ok() &&
        VerifyPublication(&disk, published.value().manifest).ok();
    bool corrupt_ok = true;
    if (published.ok() && !published.value().manifest.qit.pages.empty()) {
      const StorageManifest& manifest = published.value().manifest;
      disk.CorruptStoredPage(manifest.qit.pages.front(), 100, 0x5a);
      corrupt_ok = VerifyPublication(&disk, manifest).ok();
    }
    expect(real_ok, corrupt_ok, "VerifyPublication");
  }

  // Query answers: 1e-9 relative, and bit identity.
  const double v = 12345.678901234;
  expect(WithinRel(v, v, 1e-9), WithinRel(v * (1.0 + 1e-8), v, 1e-9),
         "1e-9 relative");
  expect(BitIdentical(v, v), BitIdentical(std::nextafter(v, 0.0), v),
         "bit identity");

  std::printf("self-test: %d/%d checks reject their perturbed answer\n",
              rejected, expected);
}

// ---------------------------------------------------------------------------
// publish_1m_mem, publish_1m_sharded, publish_1m_disk: the three publication
// paths on the same 1M-row input, one workload each, so that each path's time
// is a gated figure of its own rather than a share of their sum.

enum class PublishPath { kMemory, kSharded, kDisk };

void RunPublish(const Options& o, PublishPath path, Report& r) {
  const RowId n = 1'000'000;
  const uint64_t gen_start = NowNs();
  ExperimentDataset ds = MakeInput(n, o.seed, SensitiveFamily::kOccupation);
  const Microdata& md = ds.microdata;
  std::printf("input: %s, n=%u, generated in %.2f s (not set-up)\n",
              ds.name.c_str(), static_cast<unsigned>(md.n()),
              Seconds(NowNs() - gen_start));
  const size_t threads = HardwareThreads();
  const size_t frames =
      static_cast<size_t>(md.sensitive_attribute().domain_size) + 4;
  const AnatomizerOptions aopt{.l = kL, .seed = o.seed};
  const double rce_bound = 1.0 + 1.0 / static_cast<double>(n);
  const PredCacheCounters cache0 = PredCacheCounters::Now();

  // Set-up, the same for every path: a publisher's in-memory publication
  // (`ComputePartition` + `Build`). Its digest is the in-memory reference.
  std::vector<double> setup;
  uint64_t mem_digest = 0;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    const uint64_t t0 = NowNs();
    auto p = Anatomizer(aopt).ComputePartition(md);
    if (!p.ok()) {
      r.Broken("set-up publish: " + p.status().ToString());
      return;
    }
    auto tables = AnatomizedTables::Build(md, *p);
    if (i > 0) setup.push_back(Seconds(NowNs() - t0));
    if (!tables.ok()) {
      r.Broken("set-up build: " + tables.status().ToString());
      return;
    }
    r.Attempt();
    if (i > 0 && PartitionDigest(*p) != mem_digest) {
      r.Fail("set-up partition digest differs between runs of one seed");
    }
    mem_digest = PartitionDigest(*p);
  }

  struct Iter {
    double total_s = 0;  // the path's timed calls
    double partition_s = 0, build_s = 0, audit_s = 0;  // in memory
    double heap_allocs = 0;                            // sharded
    double external_s = 0, verify_s = 0;               // disk
    bool traced = false;
  };
  std::vector<Iter> iters;
  double rce_max = 0.0, breach_max = 0.0;
  double groups = 0, shards_run = 0, merged_shards = 0;
  std::optional<uint64_t> path_digest;
  IoStats io, commit_io;
  size_t qit_pages = 0, st_pages = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;

  // Checks a sharded or disk-path partition (untimed). The first one, a
  // warm-up publication, is audited in full; every later one must have its
  // digest, so it is the same partition and passes the same audit. The
  // timed loop then holds no tables of the benchmark's.
  auto audit_partition = [&](const Partition& p, double bound,
                             const std::string& what) {
    if (path_digest) {
      if (PartitionDigest(p) != *path_digest) {
        r.Fail(what + " partition digest differs across iterations");
      }
      return;
    }
    path_digest = PartitionDigest(p);
    auto tables = AnatomizedTables::Build(md, p);
    if (!tables.ok()) {
      r.Fail(what + " Build: " + tables.status().ToString());
      return;
    }
    const Audit a = AuditTables(*tables, kL);
    breach_max = std::max(breach_max, a.breach_max);
    rce_max = std::max(rce_max, CheckAudit(a, bound, what + " publication", r));
  };

  // One publication along the path: times its calls into `it` and checks
  // the result. False when a library call failed.
  auto publish_once = [&](Iter& it) -> bool {
    obs::ScopedSpan root("perfbench.publish_iteration", "perfbench");
    r.Attempt();
    uint64_t t0 = NowNs();
    switch (path) {
      case PublishPath::kMemory: {
        // Figure 3, Definition 3, then the audit, on one thread.
        StatusOr<Partition> p = [&] {
          obs::ScopedSpan span("anatomy.ComputePartition", "anatomy");
          return Anatomizer(aopt).ComputePartition(md);
        }();
        it.partition_s = Seconds(NowNs() - t0);
        if (!p.ok()) {
          r.Fail("ComputePartition: " + p.status().ToString());
          return false;
        }
        t0 = NowNs();
        StatusOr<AnatomizedTables> tables = [&] {
          obs::ScopedSpan span("table.AnatomizedTables::Build", "table");
          return AnatomizedTables::Build(md, *p);
        }();
        it.build_s = Seconds(NowNs() - t0);
        if (!tables.ok()) {
          r.Fail("Build: " + tables.status().ToString());
          return false;
        }
        t0 = NowNs();
        Audit audit;
        {
          obs::ScopedSpan span("privacy.audit", "privacy");
          audit = AuditTables(*tables, kL);
        }
        it.audit_s = Seconds(NowNs() - t0);
        it.total_s = it.partition_s + it.build_s + it.audit_s;
        groups = static_cast<double>(p.value().num_groups());
        breach_max = std::max(breach_max, audit.breach_max);
        rce_max = std::max(
            rce_max, CheckAudit(audit, rce_bound, "in-memory publication", r));
        if (PartitionDigest(*p) != mem_digest) {
          r.Fail("in-memory partition digest differs from set-up");
        }
        return true;
      }
      case PublishPath::kSharded: {
        // S = hardware threads shards on as many threads.
        ShardedAnatomizerOptions sopt{
            .l = kL, .seed = o.seed, .shards = threads, .num_threads = threads};
        const uint64_t allocs0 =
            perfbench::g_heap_allocs.load(std::memory_order_relaxed);
        StatusOr<ShardedAnatomizeResult> sharded = [&] {
          obs::ScopedSpan span("anatomy.ShardedAnatomizer::Run", "anatomy");
          return ShardedAnatomizer(sopt).Run(md);
        }();
        it.total_s = Seconds(NowNs() - t0);
        it.heap_allocs = static_cast<double>(
            perfbench::g_heap_allocs.load(std::memory_order_relaxed) -
            allocs0);
        if (!sharded.ok()) {
          r.Fail("ShardedAnatomizer::Run: " + sharded.status().ToString());
          return false;
        }
        shards_run = static_cast<double>(sharded.value().shards_run);
        merged_shards = static_cast<double>(sharded.value().merged_shards);
        audit_partition(sharded.value().partition,
                        1.0 + shards_run * (kL - 1) / static_cast<double>(n),
                        "sharded");
        return true;
      }
      case PublishPath::kDisk: {
        // Theorem 3's memory bound: a lambda + 4 frame pool on a fresh disk.
        SimulatedDisk disk;
        BufferPool pool(&disk, frames);
        const uint64_t h0 = CounterValue("storage.pool.hits");
        const uint64_t m0 = CounterValue("storage.pool.misses");
        const uint64_t e0 = CounterValue("storage.pool.evictions");
        StatusOr<ExternalAnatomizeResult> ext = [&] {
          obs::ScopedSpan span("anatomy.ExternalAnatomizer::RunPublished",
                               "anatomy");
          return ExternalAnatomizer(aopt).RunPublished(md, &disk, &pool);
        }();
        it.external_s = Seconds(NowNs() - t0);
        if (!ext.ok()) {
          r.Fail("RunPublished: " + ext.status().ToString());
          return false;
        }
        t0 = NowNs();
        Status verified = [&] {
          obs::ScopedSpan span("storage.VerifyPublication", "storage");
          return VerifyPublication(&disk, ext.value().manifest);
        }();
        it.verify_s = Seconds(NowNs() - t0);
        it.total_s = it.external_s + it.verify_s;
        pool_hits = CounterValue("storage.pool.hits") - h0;
        pool_misses = CounterValue("storage.pool.misses") - m0;
        pool_evictions = CounterValue("storage.pool.evictions") - e0;
        if (!verified.ok()) {
          r.Fail("VerifyPublication: " + verified.ToString());
        }
        io = ext.value().io;
        commit_io = ext.value().commit_io;
        qit_pages = ext.value().qit_pages;
        st_pages = ext.value().st_pages;
        audit_partition(ext.value().partition, rce_bound, "disk-path");
        return true;
      }
    }
    return false;
  };

  // Warm-up publications of the path, checked but not timed, so that the
  // loop measures a long-running publisher's steady state. The sharded path
  // slows down over its first few publications in a process and then holds
  // (see METRICS.md). The peak-RSS count starts after the first, which
  // carries the full audit; the later ones fault the heap back in.
  const size_t warmup = path == PublishPath::kSharded ? 4 : 2;
  PeakRss rss(&r);
  for (size_t w = 0; w < warmup; ++w) {
    Iter it;
    if (!publish_once(it)) return;
    if (w == 0) rss.Restart();
  }
  // At least a dozen timed publications, so that the median is not one
  // publication's; the disk path takes seconds each, so four for it.
  const size_t min_iters = path == PublishPath::kDisk ? 4 : 12;
  TraceDrain drain(o.trace_out, &r);
  const uint64_t budget = static_cast<uint64_t>(o.seconds * 1e9);
  const uint64_t start = NowNs();
  // The traced run alternates untraced (the overhead baseline) and traced
  // publications, so both see the same process state.
  size_t traced_iters = 0;
  while (iters.size() < min_iters || NowNs() - start < budget ||
         (o.trace && traced_iters == 0)) {
    Iter it;
    it.traced = o.trace && iters.size() % 2 == 1;
    obs::TraceRecorder::Global().SetEnabled(it.traced);
    if (!publish_once(it)) break;
    iters.push_back(it);
    if (it.traced) {
      ++traced_iters;
      drain.Drain();
    }
  }
  obs::TraceRecorder::Global().SetEnabled(false);

  auto series = [&](double Iter::*field, int traced = -1) {
    std::vector<double> v;
    for (const Iter& it : iters) {
      if (traced < 0 || it.traced == (traced == 1)) v.push_back(it.*field);
    }
    return v;
  };
  const std::vector<double> total = series(&Iter::total_s);
  double timed = 0;
  for (double t : total) timed += t;
  const Tail tail = TailOf(total);
  const PredCacheCounters cache = PredCacheCounters::Now() - cache0;

  static const char* const kPathNames[] = {"in memory, 1 thread", "sharded",
                                           "disk"};
  std::printf("%s: %zu timed iterations after %zu warm-up, %s path",
              o.workload.c_str(), iters.size(), warmup,
              kPathNames[static_cast<int>(path)]);
  if (path == PublishPath::kSharded) std::printf(", %zu shards", threads);
  if (path == PublishPath::kDisk) std::printf(", %zu-frame pool", frames);
  std::printf("\n  set-up s:");
  for (double s : setup) std::printf(" %.3f", s);
  std::printf("\n  iteration s:");
  for (const Iter& it : iters) std::printf(" %.3f", it.total_s);
  std::printf("\n");
  switch (path) {
    case PublishPath::kMemory:
      r.Info("publish_s", Median(total), "s",
             "ComputePartition + Build + audit; " + Spread(total));
      break;
    case PublishPath::kSharded:
      r.Info("publish_sharded_s", Median(total), "s",
             "ShardedAnatomizer::Run, S = hardware threads; " + Spread(total));
      break;
    case PublishPath::kDisk:
      r.Info("publish_disk_s", Median(total), "s",
             "RunPublished + VerifyPublication; " + Spread(total));
      r.Info("publish_disk_ios",
             static_cast<double>(io.total() + commit_io.total()), "pages",
             "reads + writes incl. commit");
      break;
  }
  r.Info("rce_over_lb", rce_max, "ratio", "max over every publication");
  r.InfoErrorRate();

  if (!o.trace) {
    r.Metric("setup_s", Median(setup), "s",
             "in-memory publication, median of " +
                 std::to_string(kSetupRepeats) + " after a cold one");
    r.Metric("peak_rss_mb", rss.MiB(), "MiB", "of the timed publications");
    r.Metric("p50_us", Median(total) * 1e6, "us",
             "one publication, n=" + std::to_string(total.size()));
    r.Metric("tail_us", tail.value * 1e6, "us", tail.label);
    r.Metric("ops_per_s", static_cast<double>(total.size()) / timed, "1/s",
             "publications per timed second");
    return;
  }
  r.Metric("privacy.breach_max", breach_max, "probability");
  switch (path) {
    case PublishPath::kMemory:
      r.Metric("anatomy.partition_s", Median(series(&Iter::partition_s)), "s");
      r.Metric("anatomy.groups", groups, "count");
      r.Metric("table.build_s", Median(series(&Iter::build_s)), "s");
      r.Metric("privacy.audit_s", Median(series(&Iter::audit_s)), "s");
      break;
    case PublishPath::kSharded:
      r.Metric("anatomy.sharded_s", Median(total), "s");
      r.Metric("anatomy.shards_run", shards_run, "count");
      r.Metric("anatomy.merged_shards", merged_shards, "count");
      r.Metric("anatomy.sharded_heap_allocs",
               Median(series(&Iter::heap_allocs)), "count");
      break;
    case PublishPath::kDisk:
      r.Metric("anatomy.external_s", Median(series(&Iter::external_s)), "s");
      r.Metric("storage.reads", static_cast<double>(io.reads), "pages");
      r.Metric("storage.writes", static_cast<double>(io.writes), "pages");
      r.Metric("storage.commit_ios", static_cast<double>(commit_io.total()),
               "pages");
      r.Metric("storage.qit_pages", static_cast<double>(qit_pages), "pages");
      r.Metric("storage.st_pages", static_cast<double>(st_pages), "pages");
      r.Metric("storage.verify_s", Median(series(&Iter::verify_s)), "s");
      r.Metric("storage.pool_frames", static_cast<double>(frames), "count");
      r.Metric("storage.pool_hit_rate",
               pool_hits + pool_misses == 0
                   ? 0.0
                   : static_cast<double>(pool_hits) /
                         static_cast<double>(pool_hits + pool_misses),
               "ratio");
      r.Metric("storage.pool_evictions", static_cast<double>(pool_evictions),
               "count");
      break;
  }
  r.Metric("query.predcache_lookups",
           static_cast<double>(cache.hits + cache.misses), "count",
           "no query work on this workload");
  r.Metric("obs.trace_overhead_frac",
           Median(series(&Iter::total_s, 1)) /
                   Median(series(&Iter::total_s, 0)) -
               1.0,
           "ratio", "traced vs untraced iteration median");
  drain.ledger().Print();
}

// ---------------------------------------------------------------------------
// query_hot

struct LoopStats {
  std::vector<double> lat_us, count_us, sum_us;
  uint64_t done = 0;
  double wall_s = 0.0;
  double busy_s = 0.0;
};

// `threads` clients in a closed loop over `pool` (client t starts at offset
// t * |pool| / threads), each with its own scratch, until `seconds` pass or a
// client has answered `max_per_client` queries. Every answer is checked
// against the scalar reference.
LoopStats ClosedLoop(const AnatomyAggregateEstimator& est,
                     const std::vector<AggregateQuery>& pool,
                     const std::vector<double>& ref, size_t threads,
                     double seconds, size_t max_per_client, Report& r) {
  struct Client {
    std::vector<double> count_us, sum_us;
    uint64_t busy_ns = 0;
    uint64_t failed = 0;
    std::string first_failure;
  };
  std::vector<Client> clients(threads);
  std::atomic<size_t> ready{0};
  std::atomic<uint64_t> deadline{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Client& c = clients[t];
      c.count_us.reserve(1 << 18);
      c.sum_us.reserve(1 << 18);
      EstimatorScratch scratch;
      size_t i = t * pool.size() / threads;
      ready.fetch_add(1);
      uint64_t end = 0;
      while ((end = deadline.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      for (size_t k = 0; k < max_per_client; ++k, ++i) {
        const size_t qi = i % pool.size();
        const AggregateQuery& q = pool[qi];
        const uint64_t t0 = NowNs();
        if (t0 >= end) break;
        double v;
        {
          obs::ScopedSpan span("query.AnatomyAggregateEstimator::Estimate",
                               "query");
          v = est.Estimate(q, scratch);
        }
        const uint64_t dt = NowNs() - t0;
        c.busy_ns += dt;
        (q.kind == AggregateKind::kSum ? c.sum_us : c.count_us)
            .push_back(Micros(dt));
        if (!WithinRel(v, ref[qi], 1e-9)) {
          if (c.failed++ == 0) {
            c.first_failure = "query " + std::to_string(qi) + ": " +
                              std::to_string(v) + " vs scalar " +
                              std::to_string(ref[qi]);
          }
        }
      }
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const uint64_t start = NowNs();
  deadline.store(start + static_cast<uint64_t>(seconds * 1e9),
                 std::memory_order_release);
  for (auto& w : workers) w.join();
  LoopStats s;
  s.wall_s = Seconds(NowNs() - start);
  for (Client& c : clients) {
    s.done += c.count_us.size() + c.sum_us.size();
    s.busy_s += Seconds(c.busy_ns);
    s.count_us.insert(s.count_us.end(), c.count_us.begin(), c.count_us.end());
    s.sum_us.insert(s.sum_us.end(), c.sum_us.begin(), c.sum_us.end());
    r.Attempt(c.count_us.size() + c.sum_us.size());
    for (uint64_t f = 0; f < c.failed; ++f) {
      r.Fail(f == 0 ? c.first_failure : "query answer off the reference");
    }
  }
  s.lat_us = s.count_us;
  s.lat_us.insert(s.lat_us.end(), s.sum_us.begin(), s.sum_us.end());
  return s;
}

void RunQueryHot(const Options& o, Report& r) {
  const RowId n = 500'000;
  const uint64_t gen_start = NowNs();
  ExperimentDataset ds = MakeInput(n, o.seed, SensitiveFamily::kOccupation);
  const Microdata& md = ds.microdata;
  std::printf("input: %s, n=%u, generated in %.2f s (not set-up)\n",
              ds.name.c_str(), static_cast<unsigned>(md.n()),
              Seconds(NowNs() - gen_start));
  const size_t threads = HardwareThreads();

  // Set-up: publish, then build the shared estimator; the last one serves.
  std::vector<double> setup, engine_build;
  std::unique_ptr<AnatomizedTables> tables;
  std::unique_ptr<AnatomyAggregateEstimator> est;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    est.reset();
    const uint64_t t0 = NowNs();
    auto p = Anatomizer(AnatomizerOptions{.l = kL, .seed = o.seed})
                 .ComputePartition(md);
    if (!p.ok()) {
      r.Broken("set-up publish: " + p.status().ToString());
      return;
    }
    auto built = AnatomizedTables::Build(md, *p);
    if (!built.ok()) {
      r.Broken("set-up build: " + built.status().ToString());
      return;
    }
    tables = std::make_unique<AnatomizedTables>(std::move(built).value());
    const uint64_t t1 = NowNs();
    est = std::make_unique<AnatomyAggregateEstimator>(*tables);
    const uint64_t t2 = NowNs();
    if (i > 0) {
      setup.push_back(Seconds(t2 - t0));
      engine_build.push_back(Seconds(t2 - t1));
    }
  }

  // The replay pool: 256 distinct range-predicate queries, half SUMs.
  MixedWorkloadOptions wopt;
  wopt.base.qd = 4;
  wopt.base.s = 0.05;
  wopt.base.seed = SplitMix64(o.seed ^ 0x9e3779b97f4a7c15ull);
  wopt.base.range_predicates = true;
  wopt.sum_fraction = 0.5;
  auto gen = MixedWorkloadGenerator::Create(md, wopt);
  if (!gen.ok()) {
    r.Broken("workload: " + gen.status().ToString());
    return;
  }
  std::vector<AggregateQuery> pool;
  std::set<std::string> seen;
  while (pool.size() < 256) {
    AggregateQuery q = gen.value().Next();
    const std::string key = q.predicates.ToString(md) + "|" +
                            std::to_string(static_cast<int>(q.kind)) + "|" +
                            std::to_string(q.measure_qi);
    if (seen.insert(key).second) pool.push_back(std::move(q));
  }

  // References, outside set-up: the scalar kernel and the exact answers,
  // computed on every hardware thread (the scalar path is slow by design).
  // The scalar estimator and the exact answers are freed before timing.
  const uint64_t ref_start = NowNs();
  std::vector<double> ref(pool.size()), rel_err;
  {
    EstimatorOptions scalar_opt;
    scalar_opt.mode = KernelMode::kScalar;
    AnatomyAggregateEstimator scalar(*tables, scalar_opt);
    std::vector<double> exact(pool.size());
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        EstimatorScratch scratch;
        for (size_t i = t; i < pool.size(); i += threads) {
          ref[i] = scalar.Estimate(pool[i], scratch);
          exact[i] = ExactAggregate(md, pool[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
    // One pass of the served estimator: fills its caches before timing and
    // gives the relative error against the exact answers.
    EstimatorScratch scratch;
    for (size_t i = 0; i < pool.size(); ++i) {
      const double got = est->Estimate(pool[i], scratch);
      if (exact[i] != 0.0) {
        rel_err.push_back(100.0 * std::fabs(got - exact[i]) / exact[i]);
      }
    }
  }
  std::printf("references: %zu scalar + exact answers in %.2f s\n",
              pool.size(), Seconds(NowNs() - ref_start));
  PeakRss rss(&r);
  rss.Restart();

  const PredCacheCounters cache0 = PredCacheCounters::Now();
  const size_t kUnbounded = ~size_t{0};
  if (!o.trace) {
    const LoopStats s =
        ClosedLoop(*est, pool, ref, threads, o.seconds, kUnbounded, r);
    const PredCacheCounters cache = PredCacheCounters::Now() - cache0;
    const Tail tail = TailOf(s.lat_us);
    std::printf("query_hot: %zu clients, %llu queries in %.2f s, pool %zu\n",
                threads, static_cast<unsigned long long>(s.done), s.wall_s,
                pool.size());
    r.Info("query_qps", static_cast<double>(s.done) / s.wall_s, "queries/s");
    r.Info("query_p50_us", Median(s.lat_us), "us", Spread(s.lat_us));
    r.Info("query_" + tail.label + "_us", tail.value, "us");
    r.Info("query_rel_err", Median(rel_err), "%",
           "median over " + std::to_string(rel_err.size()) + " queries");
    r.Info("predcache_hit_rate", cache.HitRate(), "ratio");
    r.InfoErrorRate();
    r.Metric("setup_s", Median(setup), "s",
             "publish + estimator build, median of " +
                 std::to_string(kSetupRepeats) + " after a cold one");
    r.Metric("peak_rss_mb", rss.MiB(), "MiB", "of the timed loop");
    r.Metric("p50_us", Median(s.lat_us), "us",
             "Estimate, n=" + std::to_string(s.lat_us.size()));
    r.Metric("tail_us", tail.value, "us", tail.label);
    r.Metric("ops_per_s", static_cast<double>(s.done) / s.wall_s, "1/s",
             "queries per second, " + std::to_string(threads) + " clients");
    return;
  }

  // Traced run: untraced at full concurrency (the baseline every layer
  // metric comes from), one client (the contention base), then traced. The
  // traced phase stops each client well inside the per-thread trace ring.
  const double phase = o.seconds / 3.0;
  const LoopStats a =
      ClosedLoop(*est, pool, ref, threads, phase, kUnbounded, r);
  const PredCacheCounters cache = PredCacheCounters::Now() - cache0;
  const LoopStats b = ClosedLoop(*est, pool, ref, 1, phase, kUnbounded, r);
  TraceDrain drain(o.trace_out, &r);
  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().SetEnabled(true);
  const LoopStats c = ClosedLoop(*est, pool, ref, threads, phase,
                                 obs::kTraceRingCapacity / 2, r);
  obs::TraceRecorder::Global().SetEnabled(false);
  drain.Drain();

  const double qps = static_cast<double>(a.done) / a.wall_s;
  const double qps_1t = static_cast<double>(b.done) / b.wall_s;
  std::printf("query_hot traced run: %zu clients, %llu / %llu / %llu queries "
              "(untraced / 1 client / traced)\n",
              threads, static_cast<unsigned long long>(a.done),
              static_cast<unsigned long long>(b.done),
              static_cast<unsigned long long>(c.done));
  r.Metric("query.engine_build_s", Median(engine_build), "s");
  r.Metric("query.busy_s", a.busy_s, "s",
           "in-call time summed over clients, of " +
               std::to_string(a.wall_s * static_cast<double>(threads)) +
               " client-seconds");
  r.Metric("query.count_p50_us", Median(a.count_us), "us");
  r.Metric("query.count_p99_us", Quantile(a.count_us, 0.99), "us");
  r.Metric("query.sum_p50_us", Median(a.sum_us), "us");
  r.Metric("query.sum_p99_us", Quantile(a.sum_us, 0.99), "us");
  r.Metric("query.qps_1t", qps_1t, "1/s",
           "contention: qps / (threads x qps_1t) = " +
               std::to_string(qps / (static_cast<double>(threads) * qps_1t)));
  r.Metric("query.predcache_hit_rate", cache.HitRate(), "ratio",
           "base " + std::to_string(cache.hits + cache.misses) + " lookups");
  r.Metric("query.predcache_evictions", static_cast<double>(cache.evictions),
           "count");
  r.Metric("query.predcache_lookups",
           static_cast<double>(cache.hits + cache.misses), "count");
  r.Metric("obs.trace_overhead_frac", Median(c.lat_us) / Median(a.lat_us) - 1.0,
           "ratio", "traced vs untraced Estimate p50");
  drain.ledger().Print();
}

// ---------------------------------------------------------------------------
// serve_churn

// One served answer awaiting its check against its epoch's reference.
struct ServedAnswer {
  AggregateQuery query;
  PartialEstimate got;
};

// Per-layer timings taken while checking an epoch's answers (traced run).
struct CheckTimes {
  std::vector<double> partials_us, fold_us, partials_n, direct_us;
};

// Checks the answers served by the publication's current epoch, then frees
// the reference: the epoch's merged single-node tables and the
// group-clustered engine whose canonical fold every exact answer must equal
// bit for bit. The epoch itself is audited too. Checking after the epoch's
// queries rather than beside each one keeps the reference's caches and
// memory out of the way of the served calls.
void CheckEpoch(serve::ServePublication* pub, const Microdata& md,
                std::vector<ServedAnswer>& answers, bool traced_run,
                double* rce_max, double* breach_max,
                std::vector<double>* rel_err, CheckTimes* times, Report& r) {
  constexpr size_t kRelErrEvery = 8;
  auto merged = pub->cluster()->BuildMergedTables();
  r.Attempt();
  if (!merged.ok()) {
    r.Fail("BuildMergedTables: " + merged.status().ToString());
    answers.clear();
    return;
  }
  const AnatomizedTables& tables = merged.value();
  // Each node anatomizes its own shard, so Theorem 4 holds in its sharded
  // form with S = the nodes that hold a shard.
  size_t shards = 0;
  for (const auto& node : pub->cluster()->record().nodes) {
    if (node.root != kInvalidPageId) ++shards;
  }
  const Audit a = AuditTables(tables, pub->l());
  *breach_max = std::max(*breach_max, a.breach_max);
  *rce_max = std::max(
      *rce_max,
      CheckAudit(a,
                 1.0 + static_cast<double>(shards) * (pub->l() - 1) /
                           static_cast<double>(tables.num_rows()),
                 "epoch " + std::to_string(pub->epoch()) + " publication", r));

  AnatomyQueryEngine engine(tables, EstimatorOptions{});
  std::unique_ptr<AnatomyAggregateEstimator> direct;
  if (traced_run) direct = std::make_unique<AnatomyAggregateEstimator>(tables);
  std::vector<AnatomyQueryEngine::GroupAggregatePartial> partials;
  EstimatorScratch scratch;
  for (size_t i = 0; i < answers.size(); ++i) {
    const AggregateQuery& q = answers[i].query;
    const PartialEstimate& got = answers[i].got;
    const bool need_sum = q.kind == AggregateKind::kSum;
    obs::ScopedSpan root("perfbench.check", "perfbench");
    const uint64_t t0 = NowNs();
    {
      obs::ScopedSpan span("query.AnatomyQueryEngine::CollectGroupPartials",
                           "query");
      engine.CollectGroupPartials(q.predicates, need_sum, q.measure_qi,
                                  scratch, &partials);
    }
    const uint64_t t1 = NowNs();
    CanonicalFoldResult fold;
    {
      obs::ScopedSpan span("dist.CanonicalFold", "dist");
      fold = CanonicalFold(partials);
    }
    const uint64_t t2 = NowNs();
    const double want = need_sum ? fold.sum : fold.count;
    if (!got.exact) {
      r.Fail("serve answer not exact (covered " +
             std::to_string(got.covered_mass) + ")");
    } else if (!BitIdentical(got.value, want)) {
      r.Fail("serve answer " + std::to_string(got.value) +
             " != canonical fold " + std::to_string(want));
    }
    if (traced_run) {
      times->partials_us.push_back(Micros(t1 - t0));
      times->fold_us.push_back(Micros(t2 - t1));
      times->partials_n.push_back(static_cast<double>(partials.size()));
      const uint64_t t3 = NowNs();
      double d;
      {
        obs::ScopedSpan span("query.AnatomyAggregateEstimator::Estimate",
                             "query");
        d = direct->Estimate(q, scratch);
      }
      times->direct_us.push_back(Micros(NowNs() - t3));
      r.Attempt();
      if (!WithinRel(d, want, 1e-9)) {
        r.Fail("direct estimate " + std::to_string(d) +
               " off the canonical fold " + std::to_string(want));
      }
    }
    if (i % kRelErrEvery == 0) {
      const double truth = ExactAggregate(md, q);
      if (truth != 0.0) {
        rel_err->push_back(100.0 * std::fabs(got.value - truth) / truth);
      }
    }
  }
  answers.clear();
}

void RunServeChurn(const Options& o, Report& r) {
  const RowId n = 200'000;
  const uint64_t gen_start = NowNs();
  ExperimentDataset ds = MakeInput(n, o.seed, SensitiveFamily::kSalaryClass);
  const Microdata& md = ds.microdata;
  std::printf("input: %s, n=%u, generated in %.2f s (not set-up)\n",
              ds.name.c_str(), static_cast<unsigned>(md.n()),
              Seconds(NowNs() - gen_start));
  const std::string kName = "census";
  constexpr size_t kQueriesPerEpoch = 1000;

  // Set-up: catalog Add (anatomize, per-node storage, engine activation)
  // on a fresh catalog; the last one serves.
  std::vector<double> setup;
  std::unique_ptr<serve::PublicationCatalog> catalog;
  serve::ServePublication* pub = nullptr;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    pub = nullptr;
    catalog = std::make_unique<serve::PublicationCatalog>();
    serve::ServePublicationOptions popt;
    popt.name = kName;
    popt.nodes = 2;
    popt.l = kL;
    popt.seed = o.seed;
    Microdata copy = md;
    const uint64_t t0 = NowNs();
    auto added = catalog->Add(popt, std::move(copy));
    if (i > 0) setup.push_back(Seconds(NowNs() - t0));
    if (!added.ok()) {
      r.Broken("catalog Add: " + added.status().ToString());
      return;
    }
    pub = *added;
  }
  serve::TenantPolicy policy;
  policy.publications = {kName};
  serve::Session session("analyst", policy, catalog.get());

  MixedWorkloadOptions wopt;
  wopt.base.qd = 3;
  wopt.base.s = 0.05;
  wopt.base.seed = SplitMix64(o.seed ^ 0x5e77e5eull);
  wopt.sum_fraction = 0.5;
  auto gen = MixedWorkloadGenerator::Create(md, wopt);
  if (!gen.ok()) {
    r.Broken("workload: " + gen.status().ToString());
    return;
  }
  PeakRss rss(&r);
  rss.Restart();

  double rce_max = 0.0, breach_max = 0.0;
  std::vector<ServedAnswer> pending;
  pending.reserve(kQueriesPerEpoch);
  std::vector<double> serve_us, republish_s, rel_err, republish_writes;
  std::vector<double> session_untraced, session_traced, sg_untraced;
  CheckTimes check_times;
  uint64_t exact = 0, answered = 0, hedges = 0, retries = 0;
  TraceDrain drain(o.trace_out, &r);
  PredCacheCounters cache;
  constexpr size_t kDrainEvery = 400;
  // Session's own time (policy, catalog lookup) is far below the noise of
  // two separate latency medians, so the traced run measures it paired: at
  // each epoch's end, its last queries are asked again, untraced, through
  // Session::Query and straight through scatter-gather, in alternating
  // order. Both calls find the query's work cached by its first ask, so
  // neither has an advantage, and the epoch's caches serve no later loop
  // query. A repeated query must get the answer it got before.
  std::vector<double> self_us;
  auto pair_session_self = [&] {
    constexpr size_t kPairsPerEpoch = 200;
    obs::TraceRecorder& tracer = obs::TraceRecorder::Global();
    const bool was_tracing = tracer.enabled();
    tracer.SetEnabled(false);
    for (size_t i = pending.size() - std::min(pending.size(), kPairsPerEpoch);
         i < pending.size(); ++i) {
      const ServedAnswer& a = pending[i];
      double session_us = 0.0, sg_us = 0.0;
      for (int call = 0; call < 2; ++call) {
        const bool via_session = (call == 0) == (i % 2 == 0);
        const uint64_t t0 = NowNs();
        StatusOr<PartialEstimate> again =
            via_session ? session.Query(kName, a.query)
                        : pub->estimator()->Estimate(a.query);
        (via_session ? session_us : sg_us) = Micros(NowNs() - t0);
        r.Attempt();
        if (!again.ok() || !BitIdentical(again.value().value, a.got.value)) {
          r.Fail("a repeated query got another answer in the same epoch");
        }
      }
      self_us.push_back(session_us - sg_us);
    }
    tracer.SetEnabled(was_tracing);
  };

  // The check's reference is the benchmark's, so it stays out of the
  // peak-RSS count.
  auto check_epoch = [&] {
    if (o.trace) pair_session_self();
    rss.Pause();
    CheckEpoch(pub, md, pending, o.trace, &rce_max, &breach_max, &rel_err,
               &check_times, r);
    rss.Restart();
    if (obs::TraceRecorder::Global().enabled()) drain.Drain();
  };

  // The traced run alternates: even requests go through Session::Query,
  // odd ones straight to the publication's ScatterGatherEstimator. Each
  // query is asked once, so neither call finds the other's cached work,
  // and the node engines see one call per query as in the untraced run.
  const uint64_t budget = static_cast<uint64_t>(o.seconds * 1e9);
  const uint64_t start = NowNs();
  size_t in_epoch = 0, since_drain = 0;
  for (uint64_t k = 0; NowNs() - start < budget; ++k) {
    const bool traced = o.trace && NowNs() - start >= budget / 2;
    const bool via_session = !o.trace || k % 2 == 0;
    obs::TraceRecorder::Global().SetEnabled(traced);
    ServedAnswer& a = pending.emplace_back();
    a.query = gen.value().Next();
    StatusOr<PartialEstimate> got = PartialEstimate{};
    {
      obs::ScopedSpan root("perfbench.request", "perfbench");
      // The predicate-cache counters are process-wide; only the serving
      // path's own lookups are attributed to it.
      const PredCacheCounters before = PredCacheCounters::Now();
      const uint64_t t0 = NowNs();
      if (via_session) {
        obs::ScopedSpan span("serve.Session::Query", "serve");
        got = session.Query(kName, a.query);
      } else {
        obs::ScopedSpan span("dist.ScatterGatherEstimator::Estimate", "dist");
        got = pub->estimator()->Estimate(a.query);
      }
      const double us = Micros(NowNs() - t0);
      cache = cache + (PredCacheCounters::Now() - before);
      if (via_session) {
        serve_us.push_back(us);
        if (o.trace) (traced ? session_traced : session_untraced).push_back(us);
      } else if (!traced) {
        sg_untraced.push_back(us);
      }
    }
    r.Attempt();
    if (!got.ok()) {
      r.Fail((via_session ? "Session::Query: " : "Estimate: ") +
             got.status().ToString());
      pending.pop_back();
      continue;
    }
    a.got = got.value();
    ++answered;
    if (a.got.exact) ++exact;
    hedges += a.got.hedges;
    retries += a.got.retries;
    if (traced && ++since_drain == kDrainEvery) {
      drain.Drain();
      since_drain = 0;
    }

    if (++in_epoch == kQueriesPerEpoch) {
      in_epoch = 0;
      check_epoch();
      // Per-disk IoStats are reset by each publish run, so the write count
      // comes from the registry's disk counter around the call.
      const uint64_t writes0 = CounterValue("storage.disk.writes");
      const uint64_t t0 = NowNs();
      StatusOr<EpochPublishReport> rep = [&] {
        obs::ScopedSpan span("serve.ServePublication::RepublishEpoch",
                             "serve");
        return pub->RepublishEpoch();
      }();
      republish_s.push_back(Seconds(NowNs() - t0));
      republish_writes.push_back(
          static_cast<double>(CounterValue("storage.disk.writes") - writes0));
      r.Attempt();
      if (!rep.ok() || rep.value().activation_failures != 0) {
        r.Fail("RepublishEpoch: " + (rep.ok() ? std::string("activation failed")
                                              : rep.status().ToString()));
        break;
      }
    }
  }
  obs::TraceRecorder::Global().SetEnabled(false);

  check_epoch();
  if (o.trace) drain.Drain();

  double timed_s = 0;
  for (double us : serve_us) timed_s += us * 1e-6;
  for (double s : republish_s) timed_s += s;
  const Tail tail = TailOf(serve_us);
  std::printf("serve_churn: %zu Session queries over %zu republications, "
              "%llu of %llu answers exact\n  set-up s:",
              serve_us.size(), republish_s.size(),
              static_cast<unsigned long long>(exact),
              static_cast<unsigned long long>(answered));
  for (double s : setup) std::printf(" %.3f", s);
  std::printf("\n");
  r.Info("serve_p50_us", Median(serve_us), "us",
         "Session::Query; " + Spread(serve_us));
  r.Info("serve_" + tail.label + "_us", tail.value, "us");
  r.Info("republish_s", Median(republish_s), "s",
         "RepublishEpoch; " + Spread(republish_s));
  r.Info("rce_over_lb", rce_max, "ratio", "max over every epoch");
  r.Info("query_rel_err", Median(rel_err), "%",
         "median over " + std::to_string(rel_err.size()) + " queries");
  r.Info("predcache_hit_rate", cache.HitRate(), "ratio");
  r.InfoErrorRate();
  if (republish_s.empty()) r.Broken("run too short to republish once");

  if (!o.trace) {
    r.Metric("setup_s", Median(setup), "s",
             "catalog Add, median of " + std::to_string(kSetupRepeats) +
                 " after a cold one");
    r.Metric("peak_rss_mb", rss.MiB(), "MiB",
             "of the served queries and republications");
    r.Metric("p50_us", Median(serve_us), "us",
             "Session::Query, n=" + std::to_string(serve_us.size()));
    r.Metric("tail_us", tail.value, "us", tail.label);
    r.Metric("ops_per_s", static_cast<double>(serve_us.size()) / timed_s,
             "1/s", "queries per second of query + republish time");
    return;
  }
  const double serve_p50 = Median(session_untraced);
  const double sg_p50 = Median(sg_untraced);
  const double direct_p50 = Median(check_times.direct_us);
  r.Metric("serve.session_self_us", Median(self_us), "us",
           "paired Session::Query - ScatterGatherEstimator::Estimate, n=" +
               std::to_string(self_us.size()));
  r.Metric("dist.estimate_us", sg_p50, "us",
           "untraced p50, n=" + std::to_string(sg_untraced.size()));
  r.Metric("query.partials_us", Median(check_times.partials_us), "us");
  r.Metric("dist.fold_us", Median(check_times.fold_us), "us");
  r.Metric("dist.partials_per_query", Median(check_times.partials_n),
           "count");
  r.Metric("dist.hedges", static_cast<double>(hedges), "count");
  r.Metric("dist.retries", static_cast<double>(retries), "count");
  r.Metric("dist.exact_frac",
           answered == 0 ? 0.0
                         : static_cast<double>(exact) /
                               static_cast<double>(answered),
           "ratio");
  r.Metric("serve.direct_p50_us", direct_p50, "us");
  r.Metric("serve.overhead_ratio", serve_p50 / direct_p50, "ratio",
           "untraced Session::Query p50 / direct p50");
  r.Metric("dist.republish_writes", Median(republish_writes), "pages");
  r.Metric("query.predcache_hit_rate", cache.HitRate(), "ratio",
           "base " + std::to_string(cache.hits + cache.misses) + " lookups");
  r.Metric("query.predcache_evictions", static_cast<double>(cache.evictions),
           "count");
  r.Metric("query.predcache_lookups",
           static_cast<double>(cache.hits + cache.misses), "count");
  r.Metric("obs.trace_overhead_frac",
           Median(session_traced) / serve_p50 - 1.0, "ratio",
           "traced vs untraced Session::Query p50");

  // The serve waterfall: where one Session::Query's time goes, medians.
  // Session::Query and scatter-gather come from alternate queries of the
  // untraced half, session self from the paired pass; the first gap is what
  // those leave unexplained. Partials and fold are re-run on one engine over
  // the merged tables, so the second gap is what scatter-gather spends
  // beyond that single-engine work; it is negative when the per-node engines
  // together beat the merged one.
  const double self = Median(self_us);
  const double part = Median(check_times.partials_us);
  const double fld = Median(check_times.fold_us);
  std::printf("serve waterfall (medians, us; traced Session::Query %.2f):\n"
              "  Session::Query                       %10.2f\n"
              "    session self (policy, lookup)      %10.2f\n"
              "    ScatterGatherEstimator::Estimate   %10.2f\n"
              "      CollectGroupPartials (merged)    %10.2f\n"
              "      CanonicalFold                    %10.2f\n"
              "      unattributed gap                 %10.2f\n"
              "    unattributed gap                   %10.2f\n",
              Median(session_traced), serve_p50, self, sg_p50, part, fld,
              sg_p50 - part - fld, serve_p50 - self - sg_p50);
  drain.ledger().Print();
}

// Every per-layer metric is reported by every workload; a layer a workload
// does not exercise reads 0, which is itself the evidence that it did no
// such work (e.g. no query calls while publishing).
const char* const kLayerMetrics[][2] = {
    {"anatomy.partition_s", "s"},       {"anatomy.groups", "count"},
    {"table.build_s", "s"},             {"privacy.audit_s", "s"},
    {"privacy.breach_max", "probability"}, {"anatomy.sharded_s", "s"},
    {"anatomy.shards_run", "count"},    {"anatomy.merged_shards", "count"},
    {"anatomy.sharded_heap_allocs", "count"}, {"anatomy.external_s", "s"},
    {"storage.reads", "pages"},         {"storage.writes", "pages"},
    {"storage.commit_ios", "pages"},    {"storage.qit_pages", "pages"},
    {"storage.st_pages", "pages"},      {"storage.verify_s", "s"},
    {"storage.pool_frames", "count"},   {"storage.pool_hit_rate", "ratio"},
    {"storage.pool_evictions", "count"}, {"query.engine_build_s", "s"},
    {"query.busy_s", "s"},              {"query.count_p50_us", "us"},
    {"query.count_p99_us", "us"},       {"query.sum_p50_us", "us"},
    {"query.sum_p99_us", "us"},         {"query.qps_1t", "1/s"},
    {"query.predcache_hit_rate", "ratio"},
    {"query.predcache_evictions", "count"},
    {"query.predcache_lookups", "count"},
    {"serve.session_self_us", "us"},    {"dist.estimate_us", "us"},
    {"query.partials_us", "us"},        {"dist.fold_us", "us"},
    {"dist.partials_per_query", "count"}, {"dist.hedges", "count"},
    {"dist.retries", "count"},          {"dist.exact_frac", "ratio"},
    {"serve.direct_p50_us", "us"},      {"serve.overhead_ratio", "ratio"},
    {"dist.republish_writes", "pages"}, {"obs.trace_overhead_frac", "ratio"},
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o->seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (flag == "--trace_out") {
      o->trace_out = value;
    } else if (flag == "--git_sha") {
      o->git_sha = value;
    } else {
      return false;
    }
  }
  return o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options o;
  bool parsed = false;
  try {
    parsed = ParseArgs(argc, argv, &o);
  } catch (const std::exception&) {
    parsed = false;
  }
  std::function<void(const Options&, Report&)> run;
  if (o.workload == "publish_1m_mem") {
    run = [](const Options& opt, Report& rep) {
      RunPublish(opt, PublishPath::kMemory, rep);
    };
  } else if (o.workload == "publish_1m_sharded") {
    run = [](const Options& opt, Report& rep) {
      RunPublish(opt, PublishPath::kSharded, rep);
    };
  } else if (o.workload == "publish_1m_disk") {
    run = [](const Options& opt, Report& rep) {
      RunPublish(opt, PublishPath::kDisk, rep);
    };
  } else if (o.workload == "query_hot") {
    run = RunQueryHot;
  } else if (o.workload == "serve_churn") {
    run = RunServeChurn;
  }
  if (!parsed || !run || o.trace_out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {publish_1m_mem|"
                 "publish_1m_sharded|publish_1m_disk|query_hot|serve_churn} "
                 "--seed N --seconds S --trace {0|1} --trace_out FILE "
                 "[--git_sha SHA]\n");
    return 2;
  }
  std::printf("# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"hardware_threads\": %zu, \"simd_tier\": "
              "\"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", \"l\": "
              "%d}\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, HardwareThreads(),
              simd::TierName(simd::ActiveTier()), PERFBENCH_BUILD_TYPE,
              o.git_sha.c_str(), kL);

  Report r;
  SelfTest(o.seed, r);
  run(o, r);
  if (o.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      r.Default(name, 0.0, unit);
    }
  }
  std::fflush(stdout);
  std::printf("%s\n", r.Json().c_str());
  return 0;
}
