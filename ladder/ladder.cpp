// viator_ladder: runs one workload of the ladder and reports its metrics.
//
//   viator_ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//   viator_ladder --selftest --workload <name>
//
// An untraced run (--trace 0) repeats passes of the workload for --seconds
// of wall time (at least kMinPasses), each pinned to the next CPU in turn,
// and prints the end-to-end metrics; host times come from each timed
// step's fastest run over the passes. A traced run (--trace 1)
// spends half the budget untraced and half traced and prints the per-layer
// metrics, including the tracing overhead. Both print the outcome
// fingerprint and check every invariant; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. A failed check
// prints correct=false and exits 1. See README.md for every metric.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace ladder {
namespace {

/// Traced self times must sum to the timed phase within this share.
constexpr double kSelfSumTolerance = 0.02;

/// Set-up-only builds before each pass; spreading them over the run keeps
/// the setup_s median from resting on one moment of the host's load.
constexpr std::size_t kSetupsPerPass = 4;

/// Set-up times behind the setup_s median, at least.
constexpr std::size_t kMinSetups = 21;

/// Passes behind the per-step minima, at least: one on each CPU of a 4-CPU
/// host.
constexpr std::size_t kMinPasses = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linear-interpolated percentile `q` (0..100) of `values`.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// The highest percentile of a fixed ladder that leaves at least ten of
/// `samples` steps beyond it.
double TailPercentile(std::size_t samples) {
  for (const double q : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if ((1.0 - q / 100.0) * static_cast<double>(samples) >= 10.0) return q;
  }
  return 50.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t Spin(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Host calibration: N threads each spinning the 1-thread loop, as a
/// multiple of the 1-thread rate (N on a host with N free cores). Best of
/// three of each, so a momentary stall does not read as missing cores.
double SpinScaling(std::size_t threads) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::uint64_t sink = 0;
  auto best_ns = [&](std::size_t n) {
    std::uint64_t best = ~std::uint64_t{0};
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<std::uint64_t> out(n);
      const std::uint64_t t0 = NowNs();
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < n; ++t) {
        pool.emplace_back([&out, t] { out[t] = Spin(kIterations, t + 1); });
      }
      for (auto& thread : pool) thread.join();
      best = std::min(best, NowNs() - t0);
      for (std::uint64_t v : out) sink ^= v;
    }
    return static_cast<double>(best);
  };
  const double one = best_ns(1);
  const double many = best_ns(threads);
  std::printf("host: spin sink %llx\n", static_cast<unsigned long long>(sink));
  return static_cast<double>(threads) * one / many;
}

std::size_t HostThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A pass that failed early can leave a 0/0; JSON has no NaN.
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`; PinTo(AllowedCpus()) taken
/// before a pin undoes it.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// Passes of one configuration plus every cross-pass check.
struct Series {
  std::vector<PassResult> passes;
  std::vector<double> setups;  // of the passes and the set-up-only builds
  std::vector<std::string> errors;

  /// Host time of each timed step: the fastest of the passes' runs of it.
  /// Every pass does the same work, step for step, and each pass runs on
  /// another CPU in turn. On a shared host, other tenants slow a CPU in
  /// phases of seconds, and only ever slow a step down, so the per-step
  /// minimum is the step's cost on an uncontended CPU whenever any pass
  /// met that step on one; a change to the code moves every run of it.
  std::vector<double> best_steps() const {
    std::vector<double> best = passes.front().step_ms;
    for (const auto& pass : passes) {
      for (std::size_t i = 0; i < best.size() && i < pass.step_ms.size();
           ++i) {
        best[i] = std::min(best[i], pass.step_ms[i]);
      }
    }
    return best;
  }

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const auto& pass : passes) n += pass.fingerprint.injected;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const auto& pass : passes) {
      n += pass.fingerprint.injected - std::min(pass.fingerprint.delivered,
                                                pass.fingerprint.injected);
    }
    return n;
  }
  double timed_s() const {
    double s = 0.0;
    for (const auto& pass : passes) s += pass.timed_s;
    return s;
  }
  double events_per_s() const {
    double best_s = 0.0;
    for (const double ms : best_steps()) best_s += ms / 1e3;
    return static_cast<double>(passes.front().timed_events) / best_s;
  }
};

/// Runs passes for `seconds` of wall time, set-ups, warm-up and drain
/// included (at least `min_passes`), checking every pass's invariants and
/// that all passes agree exactly.
/// Each pass, with the set-ups before it, is pinned to the next allowed CPU
/// in turn; the thread's affinity is restored on return.
Series RunSeries(const Workload& workload, const PassOptions& options,
                 double seconds, std::size_t min_passes) {
  Series series;
  PassOptions setup_only = options;
  setup_only.setup_only = true;
  const std::vector<int> cpus = AllowedCpus();
  const std::uint64_t start = NowNs();
  auto elapsed_s = [start] {
    return static_cast<double>(NowNs() - start) / 1e9;
  };
  while (series.passes.size() < min_passes || elapsed_s() < seconds) {
    const int cpu =
        cpus.empty() ? -1 : cpus[series.passes.size() % cpus.size()];
    if (cpu >= 0) PinTo({cpu});
    for (std::size_t i = 0; i < kSetupsPerPass; ++i) {
      series.setups.push_back(workload.run(setup_only).setup_s);
    }
    series.passes.push_back(workload.run(options));
    series.setups.push_back(series.passes.back().setup_s);
    const PassResult& pass = series.passes.back();
    const std::size_t index = series.passes.size();
    std::printf("pass %zu%s on cpu %d: setup %.6f s, timed %.3f s, %llu "
                "events, %llu allocs\n",
                index, options.tracer != nullptr ? " (traced)" : "", cpu,
                pass.setup_s, pass.timed_s,
                static_cast<unsigned long long>(pass.timed_events),
                static_cast<unsigned long long>(pass.timed_allocs));
    for (const auto& error : pass.errors) {
      series.errors.push_back("pass " + std::to_string(index) + ": " + error);
    }
    if (!pass.errors.empty()) break;
    const PassResult& first = series.passes.front();
    if (!(pass.fingerprint == first.fingerprint) ||
        pass.state_hash != first.state_hash) {
      series.errors.push_back("pass " + std::to_string(index) +
                              " fingerprint differs from pass 1: " +
                              pass.fingerprint.ToString());
      break;
    }
    // At threads=1 the allocation count is exact, so it repeats too.
    if (pass.timed_allocs != first.timed_allocs) {
      series.errors.push_back("pass " + std::to_string(index) +
                              " allocation count differs from pass 1");
      break;
    }
  }
  PinTo(cpus);
  return series;
}

void PrintFingerprint(const char* label, const PassResult& pass) {
  std::printf("fingerprint %s: %s state_hash=%016llx\n", label,
              pass.fingerprint.ToString().c_str(),
              static_cast<unsigned long long>(pass.state_hash));
}

/// Untimed: the sharded workload at threads=nproc must make the decisions
/// it makes at threads=1.
void CheckThreadCounts(const Workload& workload, const PassOptions& options,
                       const PassResult& reference,
                       std::vector<std::string>& errors) {
  if (!workload.sharded) return;
  PassOptions parallel = options;
  parallel.tracer = nullptr;
  parallel.threads = HostThreads();
  const PassResult pass = workload.run(parallel);
  for (const auto& error : pass.errors) errors.push_back("threads=N: " + error);
  if (!(pass.fingerprint == reference.fingerprint) ||
      pass.state_hash != reference.state_hash) {
    errors.push_back("threads=" + std::to_string(parallel.threads) +
                     " fingerprint differs from threads=1: " +
                     pass.fingerprint.ToString());
  }
  std::printf("threads=%zu check: %s\n", parallel.threads,
              pass.fingerprint == reference.fingerprint ? "identical"
                                                        : "DIFFERS");
}

std::vector<Metric> EndToEndMetrics(const Workload& workload,
                                    const PassOptions& options,
                                    const Series& series) {
  std::vector<double> setups = series.setups;
  PassOptions setup_only = options;
  setup_only.setup_only = true;
  while (setups.size() < kMinSetups) {
    setups.push_back(workload.run(setup_only).setup_s);
  }
  const PassResult& first = series.passes.front();
  const std::vector<double> steps = series.best_steps();
  const double tail_q = TailPercentile(steps.size());
  const Fingerprint& fp = first.fingerprint;
  std::printf("steps: %zu samples, each the fastest of %zu passes; tail "
              "percentile p%g; %zu set-ups\n",
              steps.size(), series.passes.size(), tail_q, setups.size());
  return {
      {"events_per_s", series.events_per_s(), "1/s"},
      {"step_p50_ms", Median(steps), "ms"},
      {"step_tail_ms", Percentile(steps, tail_q), "ms"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"allocs_per_event",
       static_cast<double>(first.timed_allocs) /
           static_cast<double>(first.timed_events),
       "count"},
      {"delivered_ratio",
       static_cast<double>(fp.delivered) / static_cast<double>(fp.injected),
       "ratio"},
  };
}

std::vector<Metric> PerLayerMetrics(const Series& traced,
                                    const Series& untraced,
                                    const Tracer& tracer, double spin) {
  const auto passes = static_cast<double>(traced.passes.size());
  LayerCounts c;
  std::uint64_t events = 0;
  for (const auto& pass : traced.passes) {
    const LayerCounts& p = pass.counts;
    c.route_fills += p.route_fills;
    c.route_fill_ns += p.route_fill_ns;
    c.route_hits += p.route_hits;
    c.route_evictions += p.route_evictions;
    c.route_invalidations += p.route_invalidations;
    c.route_cache_peak_bytes =
        std::max(c.route_cache_peak_bytes, p.route_cache_peak_bytes);
    c.queue_peak = std::max(c.queue_peak, p.queue_peak);
    c.fabric_frames += p.fabric_frames;
    c.fabric_bytes += p.fabric_bytes;
    c.handoffs += p.handoffs;
    c.vm_executions += p.vm_executions;
    c.vm_instructions += p.vm_instructions;
    c.code_misses += p.code_misses;
    c.captures += p.captures;
    c.snapshot_bytes += p.snapshot_bytes;
    c.restore_ns += p.restore_ns;
    c.restores += p.restores;
    events += pass.timed_events;
  }
  auto ms = [&](Layer layer) {
    return static_cast<double>(tracer.self_ns(layer)) / 1e6 / passes;
  };
  auto per_pass = [&](std::uint64_t n) {
    return static_cast<double>(n) / passes;
  };
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const double traced_rate = traced.events_per_s();
  const double untraced_rate = untraced.events_per_s();
  return {
      {"net.route.ms", ms(Layer::kRoute), "ms"},
      {"net.route.fills", per_pass(c.route_fills), "count"},
      {"net.route.fill_us",
       c.route_fills == 0 ? 0.0
                          : static_cast<double>(c.route_fill_ns) / 1e3 /
                                static_cast<double>(c.route_fills),
       "us"},
      {"net.route.allocs", per_pass(tracer.self_allocs(Layer::kRoute)),
       "count"},
      {"net.route.alloc_share",
       ratio(tracer.self_allocs(Layer::kRoute), tracer.total_self_allocs()),
       "ratio"},
      {"net.route.hit_ratio",
       ratio(c.route_hits, c.route_hits + c.route_fills), "ratio"},
      {"net.route.evictions", per_pass(c.route_evictions), "count"},
      {"net.route.invalidations", per_pass(c.route_invalidations), "count"},
      {"net.route.cache_mb",
       static_cast<double>(c.route_cache_peak_bytes) / (1024.0 * 1024.0),
       "MB"},
      {"sim.self_ms", ms(Layer::kSim), "ms"},
      {"sim.events", per_pass(events), "count"},
      {"sim.queue_peak", static_cast<double>(c.queue_peak), "count"},
      {"core.dispatch_ms", ms(Layer::kDispatch), "ms"},
      {"core.allocs", per_pass(tracer.self_allocs(Layer::kDispatch)),
       "count"},
      {"net.fabric.frames", per_pass(c.fabric_frames), "count"},
      {"net.fabric.bytes", per_pass(c.fabric_bytes), "bytes"},
      {"shard.merge_ms", ms(Layer::kMerge), "ms"},
      {"shard.hash_ms", ms(Layer::kHash), "ms"},
      {"shard.handoffs", per_pass(c.handoffs), "count"},
      {"vm.exec_ms", ms(Layer::kVm), "ms"},
      {"vm.executions", per_pass(c.vm_executions), "count"},
      {"vm.instructions", per_pass(c.vm_instructions), "count"},
      {"vm.code_miss_ratio", ratio(c.code_misses, c.vm_executions), "ratio"},
      {"core.pulse_ms", ms(Layer::kPulse), "ms"},
      {"core.pulse_allocs", per_pass(tracer.self_allocs(Layer::kPulse)),
       "count"},
      {"services.gossip_ms", ms(Layer::kGossip), "ms"},
      {"genesis.capture_ms",
       c.captures == 0 ? 0.0
                       : static_cast<double>(tracer.self_ns(Layer::kCapture)) /
                             1e6 / static_cast<double>(c.captures),
       "ms"},
      {"genesis.snapshot_kb",
       c.captures == 0 ? 0.0
                       : static_cast<double>(c.snapshot_bytes) / 1024.0 /
                             static_cast<double>(c.captures),
       "KB"},
      {"genesis.restore_ms",
       c.restores == 0 ? 0.0
                       : static_cast<double>(c.restore_ns) / 1e6 /
                             static_cast<double>(c.restores),
       "ms"},
      {"bench.loop_ms", ms(Layer::kLoop), "ms"},
      {"trace.overhead_ratio",
       untraced_rate == 0.0 ? 0.0 : traced_rate / untraced_rate, "ratio"},
      {"host.spin_scaling", spin, "x"},
  };
}

void PrintLayerTable(const Tracer& tracer, double timed_s) {
  std::printf("self time by layer (traced timed phase %.3f s, self times "
              "sum to %.4f of it):\n",
              timed_s,
              static_cast<double>(tracer.total_self_ns()) / 1e9 / timed_s);
  for (std::size_t i = 0; i < Tracer::kLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    std::printf("  %-16s %10.3f ms %6.2f%%  allocs %llu\n", LayerName(layer),
                static_cast<double>(tracer.self_ns(layer)) / 1e6,
                100.0 * static_cast<double>(tracer.self_ns(layer)) / 1e9 /
                    timed_s,
                static_cast<unsigned long long>(tracer.self_allocs(layer)));
  }
}

/// Traced self times must account for the traced timed phase.
void CheckSelfSum(const Tracer& tracer, double timed_s,
                  std::vector<std::string>& errors) {
  const double sum = static_cast<double>(tracer.total_self_ns()) / 1e9;
  if (std::fabs(sum - timed_s) > kSelfSumTolerance * timed_s) {
    errors.push_back("traced self times sum to " + std::to_string(sum) +
                     " s, timed phase " + std::to_string(timed_s) + " s");
  }
  if (tracer.depth() != 0) errors.push_back("tracer frames left open");
}

int Report(bool correct, const Series& series, const std::vector<Metric>& m,
           const std::vector<std::string>& errors) {
  for (const auto& error : errors) std::printf("CHECK FAILED: %s\n", error.c_str());
  PrintResult(correct, std::max<std::uint64_t>(1, series.attempted()),
              series.failed(), m);
  return correct ? 0 : 1;
}

int RunBenchmark(const Workload& workload, const Args& args) {
  const double spin = SpinScaling(HostThreads());
  std::printf("workload %s (seed %llu, %g s, trace %d): %s\n", workload.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, workload.why);
  std::printf("host: %zu threads, spin scaling %.3fx\n", HostThreads(), spin);
  PassOptions options;
  options.seed = args.seed;

  if (args.trace == 0) {
    Series series = RunSeries(workload, options, args.seconds, kMinPasses);
    std::vector<std::string> errors = series.errors;
    std::vector<Metric> metrics = EndToEndMetrics(workload, options, series);
    PrintFingerprint("threads=1", series.passes.front());
    if (errors.empty()) {
      CheckThreadCounts(workload, options, series.passes.front(), errors);
    }
    return Report(errors.empty(), series, metrics, errors);
  }

  Series untraced = RunSeries(workload, options, args.seconds / 2, 1);
  Tracer tracer;
  PassOptions traced_options = options;
  traced_options.tracer = &tracer;
  Series traced = RunSeries(workload, traced_options, args.seconds / 2, 1);
  std::vector<std::string> errors = untraced.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  PrintFingerprint("untraced", untraced.passes.front());
  PrintFingerprint("traced", traced.passes.front());
  if (!(traced.passes.front().fingerprint ==
        untraced.passes.front().fingerprint)) {
    errors.push_back("traced fingerprint differs from untraced");
  }
  CheckSelfSum(tracer, traced.timed_s(), errors);
  PrintLayerTable(tracer, traced.timed_s());
  if (errors.empty()) {
    CheckThreadCounts(workload, options, untraced.passes.front(), errors);
  }
  if (!args.spans.empty() && !tracer.WriteSpans(args.spans)) {
    errors.push_back("cannot write spans to " + args.spans);
  }
  const std::vector<Metric> metrics =
      PerLayerMetrics(traced, untraced, tracer, spin);
  return Report(errors.empty(), untraced, metrics, errors);
}

/// The ladder's own test of one workload, at reduced size: one seed twice
/// (identical fingerprints and allocation counts), a second seed
/// (invariants), two traced passes (same fingerprint, same allocation
/// count, self times sum to the timed phase) and, for the sharded workload,
/// threads=N.
int RunSelftest(const Workload& workload) {
  std::vector<std::string> errors;
  PassOptions options;
  options.smoke = true;
  options.seed = 11;
  const PassResult a = workload.run(options);
  const PassResult b = workload.run(options);
  for (const PassResult* pass : {&a, &b}) {
    for (const auto& e : pass->errors) errors.push_back("seed 11: " + e);
  }
  PrintFingerprint("seed 11", a);
  if (!(a.fingerprint == b.fingerprint) || a.state_hash != b.state_hash) {
    errors.push_back("seed 11: fingerprints differ between two runs");
  }
  if (a.timed_allocs != b.timed_allocs) {
    errors.push_back("seed 11: allocation counts differ between runs");
  }
  if (a.fingerprint.delivered == 0 || a.timed_events == 0) {
    errors.push_back("seed 11: the smoke run did no work");
  }

  options.seed = 12;
  const PassResult other = workload.run(options);
  for (const auto& e : other.errors) errors.push_back("seed 12: " + e);
  PrintFingerprint("seed 12", other);
  if (other.fingerprint == a.fingerprint) {
    errors.push_back("seed 12 reproduced seed 11: the seed is not used");
  }

  Tracer tracer;
  options.seed = 11;
  options.tracer = &tracer;
  const PassResult traced = workload.run(options);
  const PassResult traced_again = workload.run(options);
  for (const auto& e : traced.errors) errors.push_back("traced: " + e);
  if (!(traced.fingerprint == a.fingerprint)) {
    errors.push_back("traced fingerprint differs from untraced");
  }
  if (traced.timed_allocs != traced_again.timed_allocs) {
    errors.push_back("traced allocation counts differ between passes");
  }
  CheckSelfSum(tracer, traced.timed_s + traced_again.timed_s, errors);
  options.tracer = nullptr;
  CheckThreadCounts(workload, options, a, errors);

  for (const auto& error : errors) std::printf("FAILED: %s\n", error.c_str());
  std::printf("selftest %s: %s\n", workload.name,
              errors.empty() ? "ok" : "FAILED");
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) {
  ladder::Args args;
  if (!ladder::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: viator_ladder --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n"
                 "       viator_ladder --selftest --workload <name>\n");
    return 2;
  }
  const ladder::Workload* workload = ladder::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& w : ladder::Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args.selftest ? ladder::RunSelftest(*workload)
                       : ladder::RunBenchmark(*workload, args);
}
