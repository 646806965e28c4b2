#include "core/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "dfg/interpreter.hpp"
#include "obs/obs.hpp"
#include "power/attribution.hpp"
#include "sim/equivalence.hpp"
#include "sim/simulator.hpp"
#include "sim/stimulus.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mcrtl::core {

std::optional<ExplorationPoint> ExplorationResult::best_under_area(
    double area_budget) const {
  for (const auto& p : points) {
    if (p.area.total <= area_budget) return p;
  }
  return std::nullopt;
}

const ExplorationPoint& ExplorationResult::best_power() const {
  MCRTL_CHECK(!points.empty());
  return points.front();
}

PointMetrics point_metrics(const ExplorationPoint& p) {
  return PointMetrics{p.power.total, p.area.total,
                      static_cast<double>(p.stats.period)};
}

bool dominates(const PointMetrics& a, const PointMetrics& b) {
  if (a.power > b.power || a.area > b.area || a.period > b.period) {
    return false;
  }
  return a.power < b.power || a.area < b.area || a.period < b.period;
}

bool dominates_power_area(const PointMetrics& a, const PointMetrics& b) {
  return (a.power < b.power && a.area <= b.area) ||
         (a.power <= b.power && a.area < b.area);
}

bool point_order_less(const ExplorationPoint& a, const ExplorationPoint& b) {
  const PointMetrics ma = point_metrics(a);
  const PointMetrics mb = point_metrics(b);
  if (ma.power != mb.power) return ma.power < mb.power;
  if (ma.area != mb.area) return ma.area < mb.area;
  return ma.period < mb.period;
}

std::vector<std::pair<SynthesisOptions, std::string>> enumerate_configurations(
    const ExplorerConfig& cfg) {
  if (!cfg.explicit_configs.empty()) return cfg.explicit_configs;
  std::vector<std::pair<SynthesisOptions, std::string>> configs;
  if (cfg.include_conventional) {
    SynthesisOptions opts;
    opts.style = DesignStyle::ConventionalNonGated;
    configs.emplace_back(opts, style_label(opts.style, 1));
    opts.style = DesignStyle::ConventionalGated;
    configs.emplace_back(opts, style_label(opts.style, 1));
  }
  for (int n = 1; n <= cfg.max_clocks; ++n) {
    std::vector<AllocMethod> methods{AllocMethod::Integrated};
    if (cfg.include_split && n > 1) methods.push_back(AllocMethod::Split);
    std::vector<bool> latch_variants{true};
    if (cfg.include_dff_variant && n > 1) latch_variants.push_back(false);
    for (const auto method : methods) {
      for (const bool latches : latch_variants) {
        SynthesisOptions opts;
        opts.style = DesignStyle::MultiClock;
        opts.num_clocks = n;
        opts.method = method;
        opts.use_latches = latches;
        configs.emplace_back(
            opts,
            str_format("%d clk / %s / %s", n,
                       method == AllocMethod::Split ? "split" : "integrated",
                       latches ? "latch" : "dff"));
      }
    }
  }
  return configs;
}

bool shard_owns(const ExplorerConfig& cfg, std::size_t i) {
  if (cfg.shard_count <= 1) return true;
  return i % static_cast<std::size_t>(cfg.shard_count) ==
         static_cast<std::size_t>(cfg.shard_index);
}

std::size_t num_configurations(const ExplorerConfig& cfg) {
  const std::size_t total = enumerate_configurations(cfg).size();
  if (cfg.shard_count <= 1) return total;
  std::size_t owned = 0;
  for (std::size_t i = 0; i < total; ++i) owned += shard_owns(cfg, i) ? 1 : 0;
  return owned;
}

void finalize_points(std::vector<ExplorationPoint>& points) {
  obs::Span sort_span("explore.sort");
  std::stable_sort(points.begin(), points.end(), point_order_less);
  for (auto& p : points) {
    const PointMetrics mp = point_metrics(p);
    p.pareto = std::none_of(points.begin(), points.end(),
                            [&](const ExplorationPoint& q) {
                              return dominates_power_area(point_metrics(q), mp);
                            });
  }
}

ExplorationResult explore(const dfg::Graph& graph, const dfg::Schedule& sched,
                          const ExplorerConfig& cfg) {
  obs::Span span("explore");
  MCRTL_CHECK(cfg.max_clocks >= 1);
  MCRTL_CHECK_MSG(cfg.streams >= 1 &&
                      cfg.streams <= sim::Simulator::kMaxStreams,
                  "ExplorerConfig::streams must be in 1.."
                      << sim::Simulator::kMaxStreams);
  MCRTL_CHECK_MSG(cfg.shard_count == 0 ||
                      (cfg.shard_index >= 0 &&
                       cfg.shard_index < cfg.shard_count),
                  "ExplorerConfig shard_index must be in 0..shard_count-1");
  const bool sharded = cfg.shard_count > 1;
  graph.validate();
  sched.validate();

  // The stimulus is derived from the seed once, up front, and then shared
  // read-only by every evaluation — this is what makes the result
  // independent of how the points are scheduled across workers. streams == 1
  // keeps the historical scalar stream derivation byte-for-byte; a
  // Monte-Carlo bundle gets per-stream splitmix-derived seeds instead.
  std::vector<sim::InputStream> bundle;
  if (cfg.streams == 1) {
    Rng rng(cfg.seed);
    bundle.push_back(sim::uniform_stream(rng, graph.inputs().size(),
                                         cfg.computations, graph.width()));
  } else {
    bundle = sim::uniform_streams(cfg.seed, cfg.streams,
                                  graph.inputs().size(), cfg.computations,
                                  graph.width());
  }
  const auto tech = power::TechLibrary::cmos08();

  // Enumerate every configuration first; evaluation writes into the slot
  // matching this (fixed) order, so the pre-sort point array is identical
  // for any thread count.
  const auto configs = enumerate_configurations(cfg);

  // Checkpoint replay: restore stored points into their slots before
  // anything is scheduled. The checkpoint file is a point store scoped to
  // this sweep, and a slot replays iff its key (measurement fingerprint ^
  // config hash) is stored; label and options come from the enumeration. A
  // stale file (another sweep's scope) is a hard error; an unreadable one
  // degrades to a fresh sweep.
  std::vector<std::optional<ExplorationPoint>> replayed(configs.size());
  std::vector<std::uint64_t> key(configs.size());
  ResultCache store;
  const bool checkpointing = !cfg.checkpoint_file.empty();
  std::size_t replayed_count = 0;
  if (checkpointing) {
    obs::Span replay_span("explore.journal.replay");
    const std::uint64_t mfp =
        measurement_fingerprint(graph, sched, cfg.computations, cfg.seed,
                                cfg.streams, cfg.power_params);
    try {
      store.load_and_compact(cfg.checkpoint_file,
                             sweep_fingerprint(cfg, graph, sched));
    } catch (const JournalMismatchError&) {
      throw;
    } catch (const std::exception&) {
      obs::count("explore.journal.errors");
    }
    // A shard only replays slots it owns. Shard fields are execution knobs
    // outside the scope, so a file from a different shard of the same
    // sweep *matches* — its foreign records are simply ignored rather than
    // smuggled into this slice.
    for (std::size_t i = 0; i < configs.size(); ++i) {
      key[i] = point_key(mfp, configs[i].first);
      const ExplorationPoint* hit = store.find_row(key[i]);
      if (!hit || !shard_owns(cfg, i)) continue;
      replayed[i] = *hit;
      replayed[i]->options = configs[i].first;
      replayed[i]->label = configs[i].second;
      ++replayed_count;
    }
    // Make sure the file exists with this sweep's header even if nothing
    // is appended (an empty shard's file still merges).
    if (!store.append({})) obs::count("explore.journal.errors");
    if (replayed_count > 0) {
      obs::count("explore.journal.replayed", replayed_count);
    }
  }

  // In-sweep deduplication: identical configurations (possible with
  // explicit_configs, e.g. the search layer's survivor lists) are
  // simulated once per unique config hash; the measurement is fanned out
  // to the duplicate labels after the join. canonical[i] == i marks the
  // slot that actually evaluates. Dedup is scoped to the shard's own
  // slice — a shard never depends on a measurement another process owns,
  // which is what keeps shards fully independent.
  std::vector<std::size_t> canonical(configs.size());
  {
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!shard_owns(cfg, i)) {
        canonical[i] = i;
        continue;
      }
      canonical[i] = first.emplace(config_hash(configs[i].first), i)
                         .first->second;
    }
  }

  // The golden model's outputs depend only on (graph, stream), so they are
  // computed once per stream for the whole sweep and shared read-only, like
  // the stimulus; every evaluated point still compares every computation of
  // every stream against them. Built only when some owned slot will
  // actually be evaluated: a fully replayed resume or an empty shard pays
  // nothing.
  std::vector<std::vector<std::uint64_t>> golden;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (shard_owns(cfg, i) && canonical[i] == i && !replayed[i]) {
      const dfg::Interpreter interp(graph);
      for (const auto& st : bundle) golden.push_back(interp.golden_outputs(st));
      break;
    }
  }

  ExplorationResult result;
  result.points.resize(configs.size());
  result.replayed_points = replayed_count;
  std::vector<std::unique_ptr<FailedPoint>> failed(configs.size());
  // Slots that completed (successfully, by replay, or by quarantine).
  // Written by at most one worker per slot; read only after the join (or an
  // abandoned pool run, whose parallel_for_index still completes every
  // submitted task before rethrowing).
  std::vector<char> done(configs.size(), 0);

  // Single-pass evaluation: one RTL simulation per point feeds both the
  // equivalence check (sampled outputs vs. the golden table) and the power
  // estimate (the same run's Activity) — the design is never simulated
  // twice.
  auto eval_point = [&](std::size_t i) {
    obs::Span point_span("explore.point");
    const auto& [opts, label] = configs[i];
    const auto syn = synthesize(graph, sched, opts);
    // Per-point set-up gets its own spans (sim.build, power.attribution,
    // power.estimate), so explore.point's self time is only glue.
    auto simulator = [&] {
      obs::Span span("sim.build");
      return sim::Simulator(*syn.design,
                            cfg.streams == 1 ? sim::Simulator::Mode::EventDriven
                                             : sim::Simulator::Mode::BitSliced);
    }();
    if (cfg.point_timeout_s > 0) {
      simulator.set_deadline(std::chrono::steady_clock::now() +
                             std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(
                                     cfg.point_timeout_s)));
    }
    ExplorationPoint p;
    p.options = opts;
    p.label = label;
    // One energy model per point: power() folds it into the mW breakdown,
    // attribute() names the hotspot, and the probe keeps the per-step peak
    // and the run total (the crest factor) and, when tracing, the per-step
    // energy distribution. No per-step waveform is stored. The probe only
    // observes — outputs and Activity are bit-identical with it attached
    // (tests/test_attribution.cpp).
    const bool traced = obs::enabled();
    const auto attribution = [&] {
      obs::Span span("power.attribution");
      return power::Attribution(*syn.design, tech, cfg.power_params.vdd);
    }();
    sim::PowerProbe probe(attribution.energy_model(),
                          traced ? sim::PowerProbe::kStepHistogram : 0);
    simulator.set_power_probe(&probe);
    auto estimate = [&](const sim::Activity& activity) {
      obs::Span span("power.estimate");
      return attribution.power(activity, cfg.power_params);
    };
    auto finish_attribution = [&](const sim::Activity& activity) {
      obs::Span span("power.attribution");
      const auto arep = attribution.attribute(activity);
      if (!arep.rows.empty()) {
        p.hotspot = arep.rows.front().component;
        p.hotspot_share = arep.total_fj > 0.0
                              ? arep.rows.front().energy_fj / arep.total_fj
                              : 0.0;
      }
      p.crest = probe.crest();
      if (traced) obs::merge_histogram("power.step_fj", probe.step_histogram());
    };
    if (cfg.streams == 1) {
      const auto res =
          simulator.run(bundle[0], graph.inputs(), graph.outputs());
      const auto rep = sim::check_outputs(graph, golden[0], res.outputs,
                                          syn.design->style_name);
      MCRTL_CHECK_MSG(rep.equivalent,
                      "explorer produced a non-equivalent design: "
                          << rep.detail);
      p.power = estimate(res.activity);
      finish_attribution(res.activity);
    } else {
      // One bit-sliced pass advances all streams; every lane must still be
      // functionally equivalent to the golden model on its own.
      const auto results =
          simulator.run_sliced(bundle, graph.inputs(), graph.outputs());
      std::vector<double> totals(results.size());
      std::vector<power::PowerBreakdown> brs(results.size());
      for (std::size_t s = 0; s < results.size(); ++s) {
        const auto rep = sim::check_outputs(graph, golden[s],
                                            results[s].outputs,
                                            syn.design->style_name);
        MCRTL_CHECK_MSG(rep.equivalent,
                        "explorer produced a non-equivalent design (stream "
                            << s << "): " << rep.detail);
        brs[s] = estimate(results[s].activity);
        totals[s] = brs[s].total;
      }
      // Every reported field is a per-stream sample mean; sample_stats
      // accumulates in sorted order, so the point is invariant under stream
      // permutation.
      auto mean_of = [&](double power::PowerBreakdown::*field) {
        std::vector<double> v(brs.size());
        for (std::size_t s = 0; s < brs.size(); ++s) v[s] = brs[s].*field;
        return sim::sample_stats(std::move(v)).mean;
      };
      p.power.combinational = mean_of(&power::PowerBreakdown::combinational);
      p.power.storage = mean_of(&power::PowerBreakdown::storage);
      p.power.clock_tree = mean_of(&power::PowerBreakdown::clock_tree);
      p.power.control = mean_of(&power::PowerBreakdown::control);
      p.power.io = mean_of(&power::PowerBreakdown::io);
      p.power.leakage = mean_of(&power::PowerBreakdown::leakage);
      const sim::SampleStats st = sim::sample_stats(std::move(totals));
      p.power.total = st.mean;
      p.power_stddev = st.stddev;
      p.power_ci95 = st.ci95;
      // Aggregate attribution across streams: integer Activity records add
      // exactly, and the probe already accumulated the all-lane steps.
      std::vector<sim::Activity> acts(results.size());
      for (std::size_t s = 0; s < results.size(); ++s) {
        acts[s] = results[s].activity;
      }
      finish_attribution(sim::sum_activities(acts));
    }
    {
      obs::Span span("power.estimate");
      p.area = power::estimate_area(*syn.design, tech);
    }
    p.stats = syn.design->stats;
    result.points[i] = std::move(p);
  };

  // Append a completed slot to the checkpoint file (one fsync'd record).
  auto persist = [&](std::size_t i) {
    if (!checkpointing) return;
    if (store.append({{key[i], &result.points[i], 0, {}}})) {
      obs::count("explore.journal.appended");
    } else {
      obs::count("explore.journal.errors");
    }
  };

  // One slot, end to end: replay or evaluate with the retry/backoff loop,
  // then persist and report. Only on_point exceptions (caller code) and —
  // with quarantine off — exhausted evaluation failures escape.
  auto run_point = [&](std::size_t i) {
    if (replayed[i]) {
      result.points[i] = std::move(*replayed[i]);
      done[i] = 1;
      if (cfg.on_point) cfg.on_point(result.points[i]);
      return;
    }
    const int max_attempts = 1 + std::max(0, cfg.max_retries);
    for (int attempt = 1;; ++attempt) {
      try {
        fault::inject("explore.point", configs[i].second);
        eval_point(i);
        break;
      } catch (const std::exception& e) {
        if (attempt < max_attempts) {
          obs::count("explore.retries");
          if (cfg.retry_backoff_ms > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double,
                                                              std::milli>(
                cfg.retry_backoff_ms * static_cast<double>(1ll << (attempt - 1))));
          }
          continue;
        }
        if (!cfg.quarantine) throw;
        failed[i] = std::make_unique<FailedPoint>(
            FailedPoint{configs[i].first, configs[i].second, e.what(), attempt});
        done[i] = 1;
        obs::count("explore.quarantined");
        return;
      }
    }
    done[i] = 1;
    persist(i);
    if (cfg.on_point) cfg.on_point(result.points[i]);
  };

  // Fan a canonical slot's measurement out to a duplicate slot: same
  // numbers under the duplicate's own label/options. Runs after every
  // canonical slot settled (evaluation, replay or quarantine), in
  // enumeration order — deterministic for any jobs value. A duplicate
  // shares its canonical's store key, so it replays whenever the canonical
  // does and is never appended itself; only genuine fan-outs count as
  // explore.deduped.
  auto fill_duplicate = [&](std::size_t i) {
    const std::size_t c = canonical[i];
    if (replayed[i]) {
      result.points[i] = std::move(*replayed[i]);
      done[i] = 1;
      if (cfg.on_point) cfg.on_point(result.points[i]);
      return;
    }
    if (failed[c]) {
      failed[i] = std::make_unique<FailedPoint>(*failed[c]);
      failed[i]->label = configs[i].second;
      failed[i]->options = configs[i].first;
      done[i] = 1;
      obs::count("explore.deduped");
      obs::count("explore.quarantined");
      return;
    }
    if (!done[c]) return;  // canonical never settled (pool fault path)
    ExplorationPoint p = result.points[c];
    p.options = configs[i].first;
    p.label = configs[i].second;
    result.points[i] = std::move(p);
    done[i] = 1;
    obs::count("explore.deduped");
    if (cfg.on_point) cfg.on_point(result.points[i]);
  };

  const unsigned jobs = ThreadPool::resolve_jobs(cfg.jobs);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (shard_owns(cfg, i) && canonical[i] == i) run_point(i);
    }
  } else {
    // Longest-first scheduling: simulation cost is dominated by the clock
    // count (the period is the smallest multiple of n >= T+1, so higher n
    // means more master cycles per computation), with the split allocator
    // adding transfer machinery on top. Submitting the expensive points
    // first keeps the work-stealing pool from being tail-blocked by one
    // large biquad/bandpass configuration that a naive enumeration-order
    // submission would start last.
    std::vector<std::size_t> order;
    order.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (shard_owns(cfg, i) && canonical[i] == i) order.push_back(i);
    }
    auto cost_rank = [&](std::size_t i) {
      const SynthesisOptions& o = configs[i].first;
      const int n = o.style == DesignStyle::MultiClock ? o.num_clocks : 1;
      return n * 4 + (o.method == AllocMethod::Split ? 2 : 0) +
             (o.use_latches ? 0 : 1);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cost_rank(a) > cost_rank(b);
                     });
    // The pool rethrows the failure of the lowest *submission* index; with
    // a permuted submission order that is no longer the enumeration order,
    // so errors are collected per configuration here and the earliest
    // enumerated failure is rethrown — exactly what a serial run reports.
    std::vector<std::exception_ptr> errors(configs.size());
    ThreadPool pool(jobs);
    try {
      pool.parallel_for_index(order.size(), [&](std::size_t k) {
        const std::size_t i = order[k];
        try {
          run_point(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    } catch (...) {
      // Only the pool infrastructure itself can throw here (run_point
      // catches everything): e.g. the `pool.task` injection site firing
      // before a task body ran. With quarantine on, those slots are still
      // un-done and re-run inline below; otherwise the historical contract
      // is to propagate.
      if (!cfg.quarantine) throw;
    }
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (cfg.quarantine) {
      // Degraded mode: any slot the pool never executed (task-level fault)
      // runs inline on this thread — slower, but the sweep completes.
      for (std::size_t i = 0; i < configs.size(); ++i) {
        if (shard_owns(cfg, i) && canonical[i] == i && !done[i]) run_point(i);
      }
    }
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (shard_owns(cfg, i) && canonical[i] != i) fill_duplicate(i);
  }
  obs::count("explore.points", num_configurations(cfg));

  // Quarantined slots hold default-constructed points, and under sharding
  // so do all unowned slots; compact both out in enumeration order before
  // the sort.
  if (sharded || std::any_of(failed.begin(), failed.end(),
                             [](const auto& f) { return f != nullptr; })) {
    std::vector<ExplorationPoint> kept;
    kept.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!shard_owns(cfg, i)) continue;
      if (failed[i]) {
        result.failed_points.push_back(std::move(*failed[i]));
      } else {
        kept.push_back(std::move(result.points[i]));
      }
    }
    result.points = std::move(kept);
  }

  finalize_points(result.points);
  return result;
}

}  // namespace mcrtl::core
