#include "ledger.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/profile.hpp"

namespace perfbench {

namespace obs = streamk::obs;

Ledger build_ledger(std::span<const obs::TraceSpan> spans,
                    std::span<const CallWindow> calls, std::size_t width) {
  const auto lanes = static_cast<double>(width);
  double capacity = 0.0;
  for (const CallWindow& w : calls) {
    capacity += static_cast<double>(w.t1_ns - w.t0_ns) * lanes;
  }
  Ledger ledger;
  if (capacity <= 0.0) return ledger;

  // Spans on one thread nest (they are scope guards), so a stack walk in
  // start order finds each span's parent; instants carry no time.
  std::map<std::uint32_t, std::vector<const obs::TraceSpan*>> by_thread;
  for (const obs::TraceSpan& s : spans) {
    if (s.t1_ns > s.t0_ns) by_thread[s.tid].push_back(&s);
  }
  double self_ns[static_cast<std::size_t>(obs::EventKind::kCount)] = {};
  std::vector<const obs::TraceSpan*> top_level;
  for (auto& [tid, list] : by_thread) {
    std::stable_sort(list.begin(), list.end(), [](auto* a, auto* b) {
      return a->t0_ns != b->t0_ns ? a->t0_ns < b->t0_ns : a->t1_ns > b->t1_ns;
    });
    std::vector<double> child_ns(list.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const obs::TraceSpan& s = *list[i];
      while (!stack.empty() && list[stack.back()]->t1_ns <= s.t0_ns) {
        stack.pop_back();
      }
      if (stack.empty()) {
        top_level.push_back(&s);
      } else {
        const obs::TraceSpan& parent = *list[stack.back()];
        child_ns[stack.back()] +=
            static_cast<double>(std::min(s.t1_ns, parent.t1_ns) - s.t0_ns);
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double self = std::max(
          0.0, static_cast<double>(list[i]->t1_ns - list[i]->t0_ns) -
                   child_ns[i]);
      self_ns[static_cast<std::size_t>(list[i]->kind)] += self;
    }
  }
  // Per call: the kBenchRegion span covers the calling thread's lane, so
  // whatever of wall x width the covered time leaves is the other workers'
  // idle time.  A call whose work ran on a pool thread while the caller
  // waited covers more than wall at width 1; the excess is not idle.
  double idle_ns = 0.0;
  for (const CallWindow& w : calls) {
    double covered = 0.0;
    for (const obs::TraceSpan* s : top_level) {
      covered += static_cast<double>(std::max<std::int64_t>(
          0, std::min(s->t1_ns, w.t1_ns) - std::max(s->t0_ns, w.t0_ns)));
    }
    idle_ns += std::max(
        0.0, static_cast<double>(w.t1_ns - w.t0_ns) * lanes - covered);
  }
  const auto share = [&](obs::EventKind kind) {
    return self_ns[static_cast<std::size_t>(kind)] / capacity;
  };
  ledger.plan_compile = share(obs::EventKind::kPlanCompile);
  ledger.pack = share(obs::EventKind::kPack);
  ledger.mac = share(obs::EventKind::kMacSegment);
  ledger.fixup_wait = share(obs::EventKind::kFixupWait);
  ledger.epilogue = share(obs::EventKind::kEpilogueApply);
  ledger.pool_idle = idle_ns / capacity;
  ledger.other = 1.0 - (ledger.plan_compile + ledger.pack + ledger.mac +
                        ledger.fixup_wait + ledger.epilogue +
                        ledger.pool_idle);

  double weighted = 0.0;
  double wall = 0.0;
  for (const CallWindow& w : calls) {
    const auto first = std::lower_bound(
        spans.begin(), spans.end(), w.t0_ns,
        [](const obs::TraceSpan& s, std::int64_t t) { return s.t0_ns < t; });
    const auto last = std::lower_bound(
        first, spans.end(), w.t1_ns,
        [](const obs::TraceSpan& s, std::int64_t t) { return s.t0_ns < t; });
    const auto profile = obs::build_load_balance_profile(
        std::span<const obs::TraceSpan>(first, last));
    if (profile.busy_sum_ns <= 0) continue;
    const auto call_wall = static_cast<double>(w.t1_ns - w.t0_ns);
    weighted += static_cast<double>(profile.makespan_ns) * lanes /
                static_cast<double>(profile.busy_sum_ns) * call_wall;
    wall += call_wall;
  }
  ledger.imbalance = wall > 0.0 ? weighted / wall : 0.0;
  return ledger;
}

}  // namespace perfbench
