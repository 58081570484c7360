#include "analysis/wait_graph.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "core/grouped.hpp"
#include "core/work_mapping.hpp"

namespace streamk::analysis {

namespace {

/// Caps per-rule finding volume so one systemic defect in a large plan
/// (say, every tile missing its owner) reports a handful of instances plus
/// a count, not megabytes of repetition.
class Emitter {
 public:
  static constexpr std::int64_t kPerRuleCap = 8;

  explicit Emitter(AnalysisReport& report) : report_(report) {}

  void add(std::string_view rule, Severity severity, std::string message) {
    std::int64_t& count = counts_[std::string(rule)];
    ++count;
    if (count <= kPerRuleCap) {
      report_.add(rule, severity, std::move(message));
    }
  }

  /// Appends one "suppressed N further findings" note per capped rule.
  void finish() {
    for (const auto& [rule, count] : counts_) {
      if (count > kPerRuleCap) {
        report_.add(rule, Severity::kError,
                    "... " + std::to_string(count - kPerRuleCap) +
                        " further " + rule + " finding(s) suppressed");
      }
    }
  }

 private:
  AnalysisReport& report_;
  std::map<std::string, std::int64_t> counts_;
};

/// Per-tile geometry access that is uniform across single-problem and
/// grouped plans (the latter have no one WorkMapping).
struct TileGeometry {
  const core::SchedulePlan& plan;
  const core::GroupedMapping* grouped;

  explicit TileGeometry(const core::SchedulePlan& p)
      : plan(p), grouped(p.group()) {}

  std::int64_t iters_per_tile(std::int64_t tile) const {
    return grouped != nullptr ? grouped->iters_per_tile(tile)
                              : plan.mapping().iters_per_tile();
  }

  /// Panel-cache keys (row, col) of `tile` in the arena's slot grid.
  std::pair<std::int64_t, std::int64_t> panel_keys(std::int64_t tile) const {
    return plan.panel_keys(plan.tile_ref(tile));
  }
};

std::string segment_text(const core::TileSegment& seg) {
  std::ostringstream os;
  os << "tile " << seg.tile_idx << " [" << seg.iter_begin << ","
     << seg.iter_end << ")";
  return os.str();
}

}  // namespace

std::int64_t WaitGraph::program_edges() const {
  std::int64_t count = 0;
  for (const WaitEdge& e : edges) {
    if (e.kind == EdgeKind::kProgram) ++count;
  }
  return count;
}

std::int64_t WaitGraph::fixup_edges() const {
  return static_cast<std::int64_t>(edges.size()) - program_edges();
}

std::string WaitGraph::describe_node(const core::SchedulePlan& plan,
                                     std::int64_t node) const {
  const core::TileSegment& seg =
      plan.segments()[static_cast<std::size_t>(node)];
  std::ostringstream os;
  os << "cta " << node_cta[static_cast<std::size_t>(node)] << " ("
     << segment_text(seg) << ")";
  return os.str();
}

std::vector<std::int64_t> WaitGraph::find_cycle() const {
  // Iterative DFS; a back edge to a node still on the gray path closes a
  // concrete cycle, and the gray path's suffix from that node IS the cycle
  // (every consecutive pair is an edge, and the back edge closes it).
  std::vector<std::vector<std::int64_t>> successors(
      static_cast<std::size_t>(nodes));
  for (const WaitEdge& e : edges) {
    successors[static_cast<std::size_t>(e.from)].push_back(e.to);
  }
  enum : std::int8_t { kNew = 0, kOnPath = 1, kDone = 2 };
  std::vector<std::int8_t> color(static_cast<std::size_t>(nodes), kNew);
  std::vector<std::size_t> next_succ(static_cast<std::size_t>(nodes), 0);
  std::vector<std::int64_t> path;
  for (std::int64_t root = 0; root < nodes; ++root) {
    if (color[static_cast<std::size_t>(root)] != kNew) continue;
    color[static_cast<std::size_t>(root)] = kOnPath;
    path.assign(1, root);
    while (!path.empty()) {
      const auto n = static_cast<std::size_t>(path.back());
      if (next_succ[n] < successors[n].size()) {
        const std::int64_t succ = successors[n][next_succ[n]++];
        const auto s = static_cast<std::size_t>(succ);
        if (color[s] == kNew) {
          color[s] = kOnPath;
          path.push_back(succ);
        } else if (color[s] == kOnPath) {
          const auto loop_start = std::find(path.begin(), path.end(), succ);
          return {loop_start, path.end()};
        }
      } else {
        color[n] = kDone;
        path.pop_back();
      }
    }
  }
  return {};
}

WaitGraph build_wait_graph(const core::SchedulePlan& plan) {
  WaitGraph graph;
  graph.nodes = plan.total_segments();
  graph.node_cta.assign(static_cast<std::size_t>(graph.nodes), 0);

  // Arena order is CTA-major, so a CTA's node range is contiguous; program
  // order chains consecutive nodes of one CTA.
  const core::TileSegment* arena = plan.segments().data();
  for (std::int64_t cta = 0; cta < plan.grid(); ++cta) {
    const auto segments = plan.cta_segments(cta);
    if (segments.empty()) continue;
    const std::int64_t base = segments.data() - arena;
    for (std::size_t j = 0; j < segments.size(); ++j) {
      const std::int64_t node = base + static_cast<std::int64_t>(j);
      graph.node_cta[static_cast<std::size_t>(node)] = cta;
      if (j > 0) graph.edges.push_back({node - 1, node, EdgeKind::kProgram});
    }
  }

  // Fixup edges: contributor spilling segment -> owner starting segment of
  // the same tile.  Built from one arena sweep (a tile's owner may be
  // ambiguous in malformed plans; the first starting segment stands in so
  // graph construction never throws -- the EP-OWNER rule reports the
  // ambiguity itself).
  std::vector<std::int64_t> owner_node(static_cast<std::size_t>(plan.tiles()),
                                       -1);
  for (std::int64_t node = 0; node < graph.nodes; ++node) {
    const core::TileSegment& seg = arena[node];
    if (seg.tile_idx < 0 || seg.tile_idx >= plan.tiles()) continue;
    if (seg.starts_tile() &&
        owner_node[static_cast<std::size_t>(seg.tile_idx)] == -1) {
      owner_node[static_cast<std::size_t>(seg.tile_idx)] = node;
    }
  }
  for (std::int64_t node = 0; node < graph.nodes; ++node) {
    const core::TileSegment& seg = arena[node];
    if (seg.tile_idx < 0 || seg.tile_idx >= plan.tiles()) continue;
    if (seg.starts_tile()) continue;
    const std::int64_t owner = owner_node[static_cast<std::size_t>(seg.tile_idx)];
    if (owner >= 0) graph.edges.push_back({node, owner, EdgeKind::kFixup});
  }
  return graph;
}

std::string plan_summary(const core::SchedulePlan& plan) {
  std::ostringstream os;
  os << "plan '" << plan.name() << "' kind=" << core::kind_name(plan.kind())
     << " grid=" << plan.grid() << " tiles=" << plan.tiles()
     << " segments=" << plan.total_segments();
  if (plan.group() != nullptr) {
    os << " problems=" << plan.group()->problems();
  }
  return os.str();
}

AnalysisReport analyze_plan(const core::SchedulePlan& plan) {
  AnalysisReport report;
  report.subject = plan_summary(plan);
  Emitter emit(report);
  const TileGeometry geom(plan);
  const bool grouped = plan.group() != nullptr;

  const WaitGraph graph = build_wait_graph(plan);
  report.nodes = graph.nodes;
  report.program_edges = graph.program_edges();
  report.fixup_edges = graph.fixup_edges();

  // --- WG-CYCLE: the wait graph must be a DAG ----------------------------
  const std::vector<std::int64_t> cycle = graph.find_cycle();
  if (!cycle.empty()) {
    std::ostringstream os;
    os << "wait graph cycle (" << cycle.size() << " segments): ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) os << " -> ";
      os << graph.describe_node(plan, cycle[i]);
    }
    os << " -> " << graph.describe_node(plan, cycle.front());
    emit.add(rules::kWaitCycle, Severity::kError, os.str());
  }

  // --- WG-WAIT-DIR: fixup waits must target strictly higher CTA ids ------
  for (const WaitEdge& e : graph.edges) {
    if (e.kind != EdgeKind::kFixup) continue;
    const std::int64_t contributor = graph.node_cta[static_cast<std::size_t>(e.from)];
    const std::int64_t owner = graph.node_cta[static_cast<std::size_t>(e.to)];
    if (contributor <= owner) {
      std::ostringstream os;
      os << "fixup wait against the claim order: owner "
         << graph.describe_node(plan, e.to) << " waits on contributor "
         << graph.describe_node(plan, e.from)
         << " whose id is not strictly higher; a bounded pool claiming in "
            "descending order may never execute the awaited CTA";
      emit.add(rules::kWaitDirection, Severity::kError, os.str());
    }
  }

  // --- WG-SLOT-ALIAS: one spill slot per CTA, written at most once -------
  {
    std::vector<std::int64_t> slots_seen;
    for (std::int64_t cta = 0; cta < plan.grid(); ++cta) {
      std::int64_t spills = 0;
      for (const core::TileSegment& seg : plan.cta_segments(cta)) {
        if (!seg.starts_tile()) ++spills;
      }
      const std::int64_t slot = plan.spill_slot(cta);
      if (spills > 1) {
        emit.add(rules::kSlotAlias, Severity::kError,
                 "cta " + std::to_string(cta) + " has " +
                     std::to_string(spills) +
                     " non-starting segments: its second spill would "
                     "overwrite the partials slot before the first owner "
                     "consumed it");
      }
      if (spills > 0 && slot < 0) {
        emit.add(rules::kSlotAlias, Severity::kError,
                 "cta " + std::to_string(cta) +
                     " spills but has no partials slot");
      }
      if (spills == 0 && slot >= 0) {
        emit.add(rules::kSlotAlias, Severity::kWarning,
                 "cta " + std::to_string(cta) +
                     " holds partials slot " + std::to_string(slot) +
                     " but never spills (wasted workspace)");
      }
      if (slot >= 0) slots_seen.push_back(slot);
    }
    std::sort(slots_seen.begin(), slots_seen.end());
    for (std::size_t i = 0; i < slots_seen.size(); ++i) {
      const bool duplicate = i > 0 && slots_seen[i] == slots_seen[i - 1];
      const bool out_of_range =
          slots_seen[i] < 0 || slots_seen[i] >= plan.spill_slot_count();
      if (duplicate || out_of_range) {
        emit.add(rules::kSlotAlias, Severity::kError,
                 "spill slot " + std::to_string(slots_seen[i]) +
                     (duplicate ? " assigned to two CTAs (aliased partials)"
                                : " outside the dense slot range"));
      }
    }
  }

  // --- per-tile rules: ownership, coverage, boundaries -------------------
  std::vector<std::int64_t> starters(static_cast<std::size_t>(plan.tiles()),
                                     0);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> ranges(
      static_cast<std::size_t>(plan.tiles()));
  for (std::int64_t node = 0; node < graph.nodes; ++node) {
    const core::TileSegment& seg =
        plan.segments()[static_cast<std::size_t>(node)];
    const std::int64_t cta = graph.node_cta[static_cast<std::size_t>(node)];
    if (seg.tile_idx < 0 || seg.tile_idx >= plan.tiles()) {
      emit.add(rules::kSegmentMalformed, Severity::kError,
               "cta " + std::to_string(cta) + ": " + segment_text(seg) +
                   " names a tile outside [0, " +
                   std::to_string(plan.tiles()) + ")");
      continue;
    }
    const std::int64_t ipt = geom.iters_per_tile(seg.tile_idx);
    if (seg.iter_begin < 0 || seg.iter_begin >= seg.iter_end) {
      emit.add(rules::kSegmentMalformed, Severity::kError,
               "cta " + std::to_string(cta) + ": " + segment_text(seg) +
                   " has a malformed iteration range");
    } else if (seg.iter_end > ipt) {
      // On grouped plans an over-long range runs into the next tile --
      // which may belong to the next *problem* (different operands, a
      // different epilogue binding): the boundary-straddle class.
      const std::string_view rule =
          grouped ? rules::kBoundaryStraddle : rules::kSegmentMalformed;
      std::ostringstream os;
      os << "cta " << cta << ": " << segment_text(seg)
         << " runs past its tile depth " << ipt;
      if (grouped) {
        os << " (straddles into the next tile of problem "
           << geom.grouped->problem_of_tile(seg.tile_idx) << " or beyond "
           << "its problem boundary)";
      }
      emit.add(rule, Severity::kError, os.str());
    } else if (seg.last != (seg.iter_end == ipt)) {
      emit.add(rules::kSegmentMalformed, Severity::kError,
               "cta " + std::to_string(cta) + ": " + segment_text(seg) +
                   " has `last` inconsistent with tile depth " +
                   std::to_string(ipt));
    }
    if (seg.starts_tile()) {
      ++starters[static_cast<std::size_t>(seg.tile_idx)];
    }
    ranges[static_cast<std::size_t>(seg.tile_idx)].emplace_back(
        seg.iter_begin, std::min(seg.iter_end, ipt));
  }

  for (std::int64_t tile = 0; tile < plan.tiles(); ++tile) {
    const std::int64_t owners = starters[static_cast<std::size_t>(tile)];
    if (owners != 1) {
      std::ostringstream os;
      os << "tile " << tile << " has " << owners
         << " starting segment(s); its store -- and any fused epilogue "
            "chain -- would run "
         << owners << " time(s) instead of exactly once";
      if (grouped && owners > 1) {
        os << " (problem " << geom.grouped->problem_of_tile(tile) << ")";
      }
      emit.add(rules::kEpilogueOwner, Severity::kError, os.str());
    }

    auto& tile_ranges = ranges[static_cast<std::size_t>(tile)];
    std::sort(tile_ranges.begin(), tile_ranges.end());
    const std::int64_t ipt = geom.iters_per_tile(tile);
    std::int64_t cursor = 0;
    for (const auto& [begin, end] : tile_ranges) {
      if (begin > cursor) {
        emit.add(rules::kCoverageGap, Severity::kError,
                 "tile " + std::to_string(tile) + " iterations [" +
                     std::to_string(cursor) + "," + std::to_string(begin) +
                     ") are covered by no segment");
      } else if (begin < cursor) {
        emit.add(rules::kCoverageOverlap, Severity::kError,
                 "tile " + std::to_string(tile) + " iteration " +
                     std::to_string(begin) +
                     " is covered by more than one segment");
      }
      cursor = std::max(cursor, end);
    }
    if (cursor < ipt) {
      emit.add(rules::kCoverageGap, Severity::kError,
               "tile " + std::to_string(tile) + " iterations [" +
                   std::to_string(cursor) + "," + std::to_string(ipt) +
                   ") are covered by no segment");
    }
  }

  // --- PC-GEOMETRY: panel-cache slot grid consistency --------------------
  {
    const core::PanelCacheGeometry& pg = plan.panel_geometry();
    const std::int64_t chunk_iters = plan.pack_geometry().chunk_iters;
    if (pg.panel_kc != plan.pack_geometry().panel_kc) {
      emit.add(rules::kPanelGeometry, Severity::kError,
               "panel-cache chunk depth " + std::to_string(pg.panel_kc) +
                   " disagrees with the pack geometry's " +
                   std::to_string(plan.pack_geometry().panel_kc));
    }
    if (grouped) {
      // Problems' key ranges must tile the arena disjointly: overlapping
      // ranges would publish one problem's packed operands to another.
      std::int64_t row_cursor = 0;
      std::int64_t col_cursor = 0;
      for (std::size_t p = 0; p < geom.grouped->problems(); ++p) {
        const core::GroupedProblem& prob = geom.grouped->problem(p);
        if (prob.row_panel_offset != row_cursor ||
            prob.col_panel_offset != col_cursor) {
          emit.add(rules::kPanelGeometry, Severity::kError,
                   "problem " + std::to_string(p) +
                       " panel-key offsets overlap or leave gaps against "
                       "the preceding problems");
        }
        row_cursor = prob.row_panel_offset + prob.tiles_m;
        col_cursor = prob.col_panel_offset + prob.tiles_n;
      }
      if (pg.row_panels != row_cursor || pg.col_panels != col_cursor) {
        emit.add(rules::kPanelGeometry, Severity::kError,
                 "panel-cache slot grid (" + std::to_string(pg.row_panels) +
                     " x " + std::to_string(pg.col_panels) +
                     " panels) does not match the concatenated problem "
                     "panel spaces");
      }
    }

    // Every segment's panel keys and touched chunks must land inside the
    // slot grid, and shared-chunk statistics fall out of the same sweep.
    const bool grid_valid = pg.row_panels > 0 && pg.col_panels > 0 &&
                            pg.chunks > 0 && chunk_iters > 0;
    if (grid_valid) {
      std::vector<std::int32_t> row_touch(
          static_cast<std::size_t>(pg.row_panels * pg.chunks), 0);
      std::vector<std::int32_t> col_touch(
          static_cast<std::size_t>(pg.col_panels * pg.chunks), 0);
      for (const core::TileSegment& seg : plan.segments()) {
        if (seg.tile_idx < 0 || seg.tile_idx >= plan.tiles()) continue;
        const auto [row_key, col_key] = geom.panel_keys(seg.tile_idx);
        if (row_key < 0 || row_key >= pg.row_panels || col_key < 0 ||
            col_key >= pg.col_panels) {
          emit.add(rules::kPanelGeometry, Severity::kError,
                   segment_text(seg) + " maps to panel key (" +
                       std::to_string(row_key) + ", " +
                       std::to_string(col_key) +
                       ") outside the arena slot grid");
          continue;
        }
        // Cache-served chunks mirror run_cached_chunks' cacheability test:
        // the per-segment chunk walk starts at iter_begin, so its chunks
        // align with the absolute grid only when iter_begin itself is
        // chunk-aligned, and a chunk is served only when the segment covers
        // it in full (misaligned Stream-K fragments pack privately by
        // design).
        const std::int64_t ipt = geom.iters_per_tile(seg.tile_idx);
        if (seg.iter_begin % chunk_iters != 0) continue;
        const std::int64_t end_full = std::min(seg.iter_end, ipt);
        for (std::int64_t c = seg.iter_begin / chunk_iters;
             std::min((c + 1) * chunk_iters, ipt) <= end_full &&
             c * chunk_iters < end_full;
             ++c) {
          if (c >= pg.chunks) {
            emit.add(rules::kPanelGeometry, Severity::kError,
                     segment_text(seg) + " touches k-chunk " +
                         std::to_string(c) + " outside the arena's " +
                         std::to_string(pg.chunks) + "-chunk axis");
            break;
          }
          ++row_touch[static_cast<std::size_t>(row_key * pg.chunks + c)];
          ++col_touch[static_cast<std::size_t>(col_key * pg.chunks + c)];
        }
      }
      std::int64_t shared = 0;
      for (const std::int32_t touches : row_touch) {
        if (touches >= 2) ++shared;
      }
      for (const std::int32_t touches : col_touch) {
        if (touches >= 2) ++shared;
      }
      report.shared_panel_chunks = shared;
    }
  }

  emit.finish();
  return report;
}

}  // namespace streamk::analysis
