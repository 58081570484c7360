// Unit tests for the observability layer: trace ring-buffer wraparound and
// concurrent emission, snapshot-while-writing seqlock integrity, off-path
// no-op semantics, one kGemm span per call from every GEMM front end,
// metrics-registry correctness under concurrent updates,
// serialization (Chrome trace JSON, metrics JSON/CSV), the leveled log
// sink, and the Stream-K load-balance profile math.
//
// Trace state is process-global (rings persist for the binary's lifetime),
// so every test opens its own epoch with reset_trace() and filters by
// event kind; ring-capacity tests emit from fresh threads, since a
// thread's ring keeps the capacity it was created with.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "conv/implicit_gemm.hpp"
#include "cpu/batched.hpp"
#include "cpu/blas.hpp"
#include "cpu/gemm.hpp"
#include "cpu/grouped.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace streamk {
namespace {

/// Arms tracing and opens a fresh epoch for the test's scope; disarms and
/// restores the default ring capacity on exit so tests compose.
class TraceScope {
 public:
  TraceScope() {
    obs::arm_trace();
    obs::reset_trace();
  }
  ~TraceScope() {
    obs::disarm_trace();
    obs::set_trace_buffer_capacity(8192);
  }
};

std::vector<obs::TraceSpan> spans_of_kind(obs::EventKind kind) {
  std::vector<obs::TraceSpan> out;
  for (const obs::TraceSpan& span : obs::snapshot_trace()) {
    if (span.kind == kind) out.push_back(span);
  }
  return out;
}

// ------------------------------------------------------------ trace rings

TEST(Trace, EmitAndSnapshotRoundTrip) {
  TraceScope scope;
  const std::int64_t t0 = obs::trace_now_ns();
  obs::emit_span(obs::EventKind::kBenchRegion, t0, t0 + 100, 7, 9);
  const auto spans = spans_of_kind(obs::EventKind::kBenchRegion);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].t0_ns, t0);
  EXPECT_EQ(spans[0].t1_ns, t0 + 100);
  EXPECT_EQ(spans[0].arg0, 7);
  EXPECT_EQ(spans[0].arg1, 9);
}

TEST(Trace, DisarmedEmissionRecordsNothing) {
  obs::arm_trace();
  obs::reset_trace();
  obs::disarm_trace();
  ASSERT_FALSE(obs::trace_armed());
  obs::emit_instant(obs::EventKind::kPoolSteal, 1, 2);
  { STREAMK_OBS_SPAN(kPoolSteal, 3, 4); }
  obs::arm_trace();
  EXPECT_TRUE(spans_of_kind(obs::EventKind::kPoolSteal).empty());
  obs::disarm_trace();
}

TEST(Trace, EpochResetExcludesOlderSpans) {
  TraceScope scope;
  obs::emit_instant(obs::EventKind::kTunerFind, 1, 0);
  obs::reset_trace();
  obs::emit_instant(obs::EventKind::kTunerFind, 2, 0);
  const auto spans = spans_of_kind(obs::EventKind::kTunerFind);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg0, 2);
}

TEST(Trace, RingWrapsKeepingTheMostRecentSpans) {
  TraceScope scope;
  obs::set_trace_buffer_capacity(16);
  const std::uint64_t overwritten_before = obs::trace_overwritten();
  // A fresh thread gets a fresh 16-slot ring; 50 emissions wrap it ~3x.
  std::thread writer([] {
    for (std::int64_t i = 0; i < 50; ++i) {
      obs::emit_instant(obs::EventKind::kPanelFallback, i, 0);
    }
  });
  writer.join();
  const auto spans = spans_of_kind(obs::EventKind::kPanelFallback);
  ASSERT_EQ(spans.size(), 16u);
  // Survivors are exactly the newest 16, in order.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].arg0, static_cast<std::int64_t>(34 + i));
  }
  EXPECT_EQ(obs::trace_overwritten() - overwritten_before, 34u);
}

TEST(Trace, ConcurrentEmissionLosesNothingWithinCapacity) {
  TraceScope scope;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 500;  // < default capacity 8192
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        obs::emit_instant(obs::EventKind::kPoolTask, t, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto spans = spans_of_kind(obs::EventKind::kPoolTask);
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::vector<std::int64_t> per_thread(kThreads, 0);
  for (const obs::TraceSpan& span : spans) {
    ASSERT_GE(span.arg0, 0);
    ASSERT_LT(span.arg0, kThreads);
    ++per_thread[static_cast<std::size_t>(span.arg0)];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

TEST(Trace, SnapshotWhileWritingSeesOnlyIntactSpans) {
  TraceScope scope;
  obs::set_trace_buffer_capacity(32);  // small ring = constant wraparound
  std::atomic<bool> stop{false};
  std::thread writer([&stop] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // arg0 and arg1 carry the same value: a torn slot would disagree.
      obs::emit_span(obs::EventKind::kMacSegment, i, i + 1, i, i);
      ++i;
    }
  });
  for (int round = 0; round < 200; ++round) {
    for (const obs::TraceSpan& span :
         spans_of_kind(obs::EventKind::kMacSegment)) {
      ASSERT_EQ(span.arg0, span.arg1);
      ASSERT_EQ(span.t1_ns, span.t0_ns + 1);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Trace, SpanGuardMeasuresItsScope) {
  TraceScope scope;
  {
    STREAMK_OBS_SPAN(kGemm, 11, 22);
  }
  const auto spans = spans_of_kind(obs::EventKind::kGemm);
#if STREAMK_OBS_ENABLED
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].arg0, 11);
  EXPECT_EQ(spans[0].arg1, 22);
  EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns);
#else
  // Compile-time kill: the macro vanished entirely.
  EXPECT_TRUE(spans.empty());
#endif
}

TEST(Trace, EveryFrontEndEmitsOneGemmSpanPerCall) {
  // The one blocking call path owns the kGemm span and the gemm.calls
  // counter, so every front end is observed the same way.
  cpu::Matrix<double> a(40, 24), b(24, 32), bt(32, 24), c(40, 32);
  std::vector<cpu::Matrix<double>> as{a, a}, bs{b, b}, cs{c, c};
  std::vector<cpu::Matrix<double>> ragged_as{cpu::Matrix<double>(8, 24), a};
  conv::ConvShape shape;
  shape.batch = 1;
  shape.height = 6;
  shape.width = 6;
  shape.in_channels = 3;
  shape.out_channels = 4;
  shape.filter_h = 3;
  shape.filter_w = 3;
  shape.pad = 1;
  conv::Tensor4<double> input(1, 6, 6, 3), filter(4, 3, 3, 3);
  conv::Tensor4<double> output(1, shape.out_h(), shape.out_w(), 4);
  std::vector<cpu::Matrix<double>> ragged_cs{cpu::Matrix<double>(8, 32), c};
  const cpu::GemmOptions options{.block = {16, 16, 8}, .workers = 2};

  const std::vector<std::pair<std::string, std::function<void()>>> calls = {
      {"gemm", [&] { cpu::gemm(a, b, c, options); }},
      {"dgemm",
       [&] {
         cpu::dgemm(cpu::Trans::kNone, cpu::Trans::kTranspose, 1.0, a, bt,
                    0.0, c, options);
       }},
      {"batched",
       [&] { cpu::batched_gemm<double, double, double>(as, bs, cs, options); }},
      {"grouped",
       [&] {
         cpu::grouped_gemm<double, double, double>(ragged_as, bs, ragged_cs,
                                                   options);
       }},
      {"conv",
       [&] {
         conv::conv_forward<double, double, double>(shape, input, filter,
                                                    output, options);
       }},
  };
  for (const auto& [label, call] : calls) {
    SCOPED_TRACE(label);
    TraceScope scope;
    const auto calls_before = obs::counter("gemm.calls").value();
    call();
    const auto spans = spans_of_kind(obs::EventKind::kGemm);
#if STREAMK_OBS_ENABLED
    EXPECT_EQ(spans.size(), 1u);
    EXPECT_EQ(obs::counter("gemm.calls").value(), calls_before + 1);
#else
    EXPECT_TRUE(spans.empty());
    EXPECT_EQ(obs::counter("gemm.calls").value(), calls_before);
#endif
  }

  // Convolution packs through the shared chunk walk, so its private packs
  // land in the ledger's pack bucket rather than in MAC time.
  TraceScope scope;
  cpu::GemmOptions private_packs = options;
  private_packs.panel_cache = cpu::PanelCacheMode::kOff;
  conv::conv_forward<double, double, double>(shape, input, filter, output,
                                             private_packs);
#if STREAMK_OBS_ENABLED
  EXPECT_FALSE(spans_of_kind(obs::EventKind::kPack).empty());
#else
  EXPECT_TRUE(spans_of_kind(obs::EventKind::kPack).empty());
#endif
}

TEST(Trace, ChromeJsonHasEventsAndMetadata) {
  TraceScope scope;
  obs::emit_instant(obs::EventKind::kFixupSignal, 3, 5);
  const std::int64_t t0 = obs::trace_now_ns();
  obs::emit_span(obs::EventKind::kMacSegment, t0, t0 + 2000, 1, 2);
  const std::string json = obs::chrome_trace_json(obs::snapshot_trace());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"mac_segment\""), std::string::npos);
  EXPECT_NE(json.find("\"fixup_signal\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
}

TEST(Trace, EventTablesCoverEveryKind) {
  for (std::uint32_t k = 0;
       k < static_cast<std::uint32_t>(obs::EventKind::kCount); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    EXPECT_STRNE(obs::event_name(kind), "unknown");
    EXPECT_STRNE(obs::event_category(kind), "unknown");
  }
}

// ------------------------------------------------------------ metrics

TEST(Metrics, CounterIsExactUnderConcurrentUpdates) {
  obs::Counter& counter = obs::counter("test_obs.concurrent_counter");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::int64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Metrics, HistogramIsExactUnderConcurrentUpdates) {
  obs::Histogram& histogram = obs::histogram("test_obs.concurrent_histogram");
  histogram.reset();
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        histogram.record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t n = kThreads * kPerThread;
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(histogram.sum(), n * (n - 1) / 2);
  EXPECT_EQ(histogram.min(), 0);
  EXPECT_EQ(histogram.max(), n - 1);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    bucket_total += histogram.bucket(i);
  }
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(n));
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  obs::Histogram& histogram = obs::histogram("test_obs.bucket_histogram");
  histogram.reset();
  histogram.record(0);   // bucket 0
  histogram.record(1);   // bucket 1: [1, 1]
  histogram.record(2);   // bucket 2: [2, 3]
  histogram.record(3);   // bucket 2
  histogram.record(4);   // bucket 3: [4, 7]
  histogram.record(-5);  // clamps to 0
  EXPECT_EQ(histogram.bucket(0), 2u);
  EXPECT_EQ(histogram.bucket(1), 1u);
  EXPECT_EQ(histogram.bucket(2), 2u);
  EXPECT_EQ(histogram.bucket(3), 1u);
}

TEST(Metrics, SnapshotWhileWritingIsWellFormed) {
  obs::Counter& counter = obs::counter("test_obs.live_counter");
  counter.reset();
  std::atomic<bool> stop{false};
  std::thread writer([&counter, &stop] {
    while (!stop.load(std::memory_order_relaxed)) counter.add(1);
  });
  std::int64_t last = 0;
  for (int round = 0; round < 100; ++round) {
    const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
    bool found = false;
    for (const auto& [name, value] : snapshot.counters) {
      if (name == "test_obs.live_counter") {
        EXPECT_GE(value, last);  // monotone across snapshots
        last = value;
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Metrics, NameDenotesExactlyOneKind) {
  obs::counter("test_obs.kind_conflict");
  EXPECT_THROW(obs::gauge("test_obs.kind_conflict"), util::CheckError);
  EXPECT_THROW(obs::histogram("test_obs.kind_conflict"), util::CheckError);
  // Same kind re-lookup returns the same object.
  EXPECT_EQ(&obs::counter("test_obs.kind_conflict"),
            &obs::counter("test_obs.kind_conflict"));
}

TEST(Metrics, JsonAndCsvRenderRegisteredMetrics) {
  obs::counter("test_obs.render_counter").reset();
  obs::counter("test_obs.render_counter").add(42);
  obs::gauge("test_obs.render_gauge").set(-3);
  obs::Histogram& histogram = obs::histogram("test_obs.render_histogram");
  histogram.reset();
  histogram.record(10);

  const std::string json = obs::metrics_json();
  EXPECT_NE(json.find("\"test_obs.render_counter\":42"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.render_gauge\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.render_histogram\""), std::string::npos);

  const std::string csv = obs::metrics_csv();
  EXPECT_NE(csv.find("counter,test_obs.render_counter,42"),
            std::string::npos);
  EXPECT_NE(csv.find("gauge,test_obs.render_gauge,-3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,test_obs.render_histogram"),
            std::string::npos);
}

TEST(Metrics, HistogramPercentilesExactOnDegenerateDistributions) {
  obs::Histogram& h = obs::histogram("test_obs.percentile_exact");
  h.reset();
  for (int i = 0; i < 100; ++i) h.record(7);

  const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
  const obs::HistogramSnapshot* hs = nullptr;
  for (const obs::HistogramSnapshot& s : snapshot.histograms) {
    if (s.name == "test_obs.percentile_exact") hs = &s;
  }
  ASSERT_NE(hs, nullptr);
  // Every sample is 7, so the min/max clamp makes all percentiles exact.
  EXPECT_DOUBLE_EQ(hs->p50, 7.0);
  EXPECT_DOUBLE_EQ(hs->p95, 7.0);
  EXPECT_DOUBLE_EQ(hs->p99, 7.0);

  h.reset();
  h.record(0);
  EXPECT_DOUBLE_EQ(
      obs::histogram_percentile(
          [] {
            obs::HistogramSnapshot s;
            s.count = 1;
            s.min = 0;
            s.max = 0;
            s.buckets = {{0, 1}};
            return s;
          }(),
          99.0),
      0.0);
}

TEST(Metrics, HistogramPercentileInterpolatesWithinBucket) {
  // 50 samples of exactly 1 (bucket [1,1]) and 50 samples spread over
  // bucket [2,3]: the estimator's arithmetic is exact by construction.
  obs::HistogramSnapshot s;
  s.count = 100;
  s.min = 1;
  s.max = 3;
  s.buckets = {{1, 50}, {3, 50}};
  // Rank 50 lands in the single-valued first bucket.
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(s, 50.0), 1.0);
  // Rank 95 is the 45th of 50 samples in [2,3]: 2 + 1 * 45/50.
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(s, 95.0), 2.9);
  // Rank 99: 2 + 1 * 49/50.
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(s, 99.0), 2.98);
  // Empty histogram reports 0.
  EXPECT_DOUBLE_EQ(obs::histogram_percentile(obs::HistogramSnapshot{}, 50.0),
                   0.0);
}

TEST(Metrics, PercentilesRenderedInJsonAndCsv) {
  obs::Histogram& h = obs::histogram("test_obs.percentile_render");
  h.reset();
  h.record(10);

  const std::string json = obs::metrics_json();
  const std::size_t at = json.find("\"test_obs.percentile_render\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"p50\":10", at), std::string::npos);
  EXPECT_NE(json.find("\"p99\":10", at), std::string::npos);

  const std::string csv = obs::metrics_csv();
  EXPECT_NE(csv.find("kind,name,value,count,sum,min,max,mean,p50,p95,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("histogram,test_obs.percentile_render,,1,10,10,10,10,"
                     "10,10,10"),
            std::string::npos);
}

TEST(Metrics, MacrosResolveOncePerSiteAndCount) {
  obs::counter("test_obs.macro_counter").reset();
  obs::histogram("test_obs.macro_histogram").reset();
  for (int i = 0; i < 5; ++i) {
    STREAMK_OBS_COUNT("test_obs.macro_counter");
    STREAMK_OBS_COUNT_N("test_obs.macro_counter", 2);
    STREAMK_OBS_HISTOGRAM("test_obs.macro_histogram", i);
  }
  STREAMK_OBS_GAUGE("test_obs.macro_gauge", 17);
#if STREAMK_OBS_ENABLED
  EXPECT_EQ(obs::counter("test_obs.macro_counter").value(), 15);
  EXPECT_EQ(obs::histogram("test_obs.macro_histogram").count(), 5u);
  EXPECT_EQ(obs::gauge("test_obs.macro_gauge").value(), 17);
#else
  // Compile-time kill: no macro site touched the registry.
  EXPECT_EQ(obs::counter("test_obs.macro_counter").value(), 0);
  EXPECT_EQ(obs::histogram("test_obs.macro_histogram").count(), 0u);
  EXPECT_EQ(obs::gauge("test_obs.macro_gauge").value(), 0);
#endif
}

// ------------------------------------------------------------ log sink

struct CapturedLog {
  static std::vector<std::pair<util::LogLevel, std::string>>& lines() {
    static std::vector<std::pair<util::LogLevel, std::string>> v;
    return v;
  }
  static void sink(util::LogLevel level, std::string_view message) {
    lines().emplace_back(level, std::string(message));
  }
};

TEST(Log, ThresholdFiltersAndSinkCaptures) {
  const util::LogLevel previous = util::log_level();
  CapturedLog::lines().clear();
  util::set_log_sink(&CapturedLog::sink);
  util::set_log_level(util::LogLevel::kWarn);

  util::log_error("e");
  util::log_warn("w");
  util::log_info("i");    // below threshold: dropped
  util::log_debug("d");   // below threshold: dropped

  util::set_log_level(util::LogLevel::kDebug);
  util::log_debug("d2");

  util::set_log_sink(nullptr);  // restore stderr default
  util::set_log_level(previous);

  ASSERT_EQ(CapturedLog::lines().size(), 3u);
  EXPECT_EQ(CapturedLog::lines()[0].first, util::LogLevel::kError);

  // Every line carries "<ISO-8601 UTC ms>Z t<tid> <message>"; the sink sees
  // the prefix too, so tests (and embedders) can assert on it.
  const auto check_line = [](const std::string& line,
                             const std::string& message) {
    // e.g. "2026-08-07T12:34:56.789Z t0 e"
    ASSERT_GE(line.size(), 25u + message.size());
    EXPECT_EQ(line[4], '-');
    EXPECT_EQ(line[7], '-');
    EXPECT_EQ(line[10], 'T');
    EXPECT_EQ(line[13], ':');
    EXPECT_EQ(line[16], ':');
    EXPECT_EQ(line[19], '.');
    EXPECT_EQ(line[23], 'Z');
    EXPECT_EQ(line[24], ' ');
    EXPECT_EQ(line[25], 't');
    const std::size_t tid_end = line.find(' ', 25);
    ASSERT_NE(tid_end, std::string::npos);
    for (std::size_t i = 26; i < tid_end; ++i) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i])));
    }
    EXPECT_EQ(line.substr(tid_end + 1), message);
  };
  check_line(CapturedLog::lines()[0].second, "e");
  check_line(CapturedLog::lines()[1].second, "w");
  check_line(CapturedLog::lines()[2].second, "d2");

  // Same thread -> same dense tid on every line.
  const std::string tid0 = CapturedLog::lines()[0].second.substr(25, 2);
  EXPECT_EQ(CapturedLog::lines()[1].second.substr(25, 2), tid0);
}

// ------------------------------------------------------------ profile

TEST(Profile, ComputesBusyWaitMakespanPerCta) {
  std::vector<obs::TraceSpan> spans;
  auto add = [&spans](obs::EventKind kind, std::int64_t t0, std::int64_t t1,
                      std::int64_t cta, std::int64_t arg1) {
    obs::TraceSpan span;
    span.kind = kind;
    span.t0_ns = t0;
    span.t1_ns = t1;
    span.arg0 = cta;
    span.arg1 = arg1;
    spans.push_back(span);
  };
  // CTA 0: two MAC segments (100ns + 200ns) and one epilogue (50ns).
  add(obs::EventKind::kMacSegment, 0, 100, 0, 0);
  add(obs::EventKind::kMacSegment, 100, 300, 0, 1);
  add(obs::EventKind::kEpilogueApply, 300, 350, 0, 1);
  // CTA 1: one MAC segment (100ns) and one fixup wait (400ns).
  add(obs::EventKind::kMacSegment, 0, 100, 1, 2);
  add(obs::EventKind::kFixupWait, 100, 500, 1, 0);
  // Signals and non-CTA kinds are counted / ignored respectively.
  add(obs::EventKind::kFixupSignal, 100, 100, 0, 1);
  add(obs::EventKind::kPoolTask, 0, 10000, 0, 0);

  const obs::LoadBalanceProfile profile =
      obs::build_load_balance_profile(spans);
  ASSERT_EQ(profile.ctas.size(), 2u);
  EXPECT_EQ(profile.ctas[0].cta, 0);
  EXPECT_EQ(profile.ctas[0].busy_ns(), 350);
  EXPECT_EQ(profile.ctas[0].mac_ns, 300);
  EXPECT_EQ(profile.ctas[0].epilogue_ns, 50);
  EXPECT_EQ(profile.ctas[0].segments, 2);
  EXPECT_EQ(profile.ctas[0].wait_ns, 0);
  EXPECT_EQ(profile.ctas[1].busy_ns(), 100);
  EXPECT_EQ(profile.ctas[1].wait_ns, 400);
  EXPECT_EQ(profile.ctas[1].waits, 1);
  EXPECT_EQ(profile.makespan_ns, 500);  // kPoolTask's extent is ignored
  EXPECT_EQ(profile.busy_sum_ns, 450);
  EXPECT_EQ(profile.busy_min_ns, 100);
  EXPECT_EQ(profile.busy_max_ns, 350);
  EXPECT_EQ(profile.wait_sum_ns, 400);
  EXPECT_EQ(profile.fixup_signals, 1);
  EXPECT_DOUBLE_EQ(profile.imbalance(), 500.0 * 2 / 450.0);
  EXPECT_DOUBLE_EQ(profile.wait_share(), 400.0 / 850.0);

  const std::string report = obs::render_load_balance_profile(profile);
  EXPECT_NE(report.find("2 CTAs"), std::string::npos);
  const std::string json = obs::load_balance_profile_json(profile);
  EXPECT_NE(json.find("\"makespan_ns\":500"), std::string::npos);
}

TEST(Profile, EmptyTraceYieldsEmptyProfile) {
  const obs::LoadBalanceProfile profile =
      obs::build_load_balance_profile({});
  EXPECT_TRUE(profile.ctas.empty());
  EXPECT_EQ(profile.makespan_ns, 0);
  EXPECT_DOUBLE_EQ(profile.imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(profile.wait_share(), 0.0);
  EXPECT_NE(obs::render_load_balance_profile(profile).find("no CTA"),
            std::string::npos);
}

}  // namespace
}  // namespace streamk
