// Per-clock-domain energy accumulation fed straight from the simulator hot
// paths — the time-resolved half of the power-attribution subsystem
// (power::Attribution is the post-run, per-component half).
//
// The power layer prepares an EnergyModel: integer weights per net bit
// toggle (C_net·Vdd²), per delivered storage clock event (clock-pin + gating
// capacitance) and per clock-tree pulse, plus a clock-domain id for every
// net and storage element (0 = the global row: controller, IO, constants;
// 1..n = the paper's clock partitions). Weights are fixed-point energy
// units of 2^-20 fJ, rounded once when the model is built, so every sum the
// probe forms is exact: a step's energy does not depend on the order its
// transitions arrive in, and every kernel and lane layout yields the same
// totals and the same crest() by construction. The model's worst-case step
// (every bit of every net toggling in both settles of a step, every storage
// element clocked, every phase pulsing) is bounded at build time, so no
// step — not even a 64-lane aggregate — can overflow an int64.
//
// What a run keeps is chosen at construction:
//  * always — the whole-run energy per domain (domain_total_fj), the step
//    count and the peak step, hence crest() = peak / mean per-step energy.
//    That is all explore() asks for, and the time-sliced kernel supplies it
//    without ever unpacking most steps (sim/sliced.cpp);
//  * kStepHistogram — every closed step's whole-design energy folded into
//    a log2-bucket sketch (step_histogram(), the `power.step_fj` metric);
//  * kWaveform — every step's per-domain row (step_fj), for
//    `mcrtl synth --power-trace-out` and the trace's counter tracks
//    (power::publish_power_tracks). Time-sliced runs close lane steps out
//    of order; rows land at their global step index.
//
// For Mode::BitSliced runs the probe receives the *aggregate across lanes*:
// one step row is the sum of every stream's energy in that step — exact, as
// every sum here — and scale-invariant shapes like the crest factor need no
// unpacking. Exact per-stream attribution is always available post-run from
// the per-stream Activity records (power::Attribution::attribute).
//
// Attachment follows the PhaseHeatmap pattern: explicit opt-in, nullptr to
// detach, no collection cost when detached (one pointer test on the
// already-taken "value changed" branch). The probe only observes — nothing
// it computes feeds back into the simulation, so results are bit-identical
// with a probe attached or not (asserted by tests/test_attribution.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace mcrtl::sim {

/// Energy weights and clock-domain map for one design, prepared by
/// power::Attribution::energy_model(). All energies are in fixed-point
/// units (kUnitsPerFj per femtojoule) per counted event; domains are 0
/// (global) .. num_domains (partitions).
struct EnergyModel {
  /// Fixed-point energy quantum: 2^-kUnitShift fJ (2^-20, about 1 zJ).
  static constexpr int kUnitShift = 20;
  static constexpr double kUnitsPerFj = 1 << kUnitShift;
  /// Largest worst-case step energy a model may have: a 64-lane aggregate
  /// step of the bit-sliced kernel must still fit an int64.
  static constexpr std::int64_t kMaxStepUnits =
      std::numeric_limits<std::int64_t>::max() / 64;

  /// `fj` rounded to the nearest unit. Rejects negative and over-range
  /// energies (anything past kMaxStepUnits cannot appear in a valid model).
  static std::int64_t units(double fj) {
    const double u = std::nearbyint(fj * kUnitsPerFj);
    MCRTL_CHECK_MSG(u >= 0.0 && u <= static_cast<double>(kMaxStepUnits),
                    "energy weight " << fj << " fJ is outside the probe's "
                                        "fixed-point range");
    return static_cast<std::int64_t>(u);
  }
  static double to_fj(double units) { return units / kUnitsPerFj; }

  std::vector<std::int64_t> net_units;    ///< by NetId: per bit toggle
  std::vector<std::uint32_t> net_domain;  ///< by NetId: 0..n
  /// By CompId (zero for non-storage): per delivered clock event — clock-pin
  /// capacitance plus, for gated storage, the gate-event charge.
  std::vector<std::int64_t> storage_clock_units;
  std::vector<std::uint32_t> storage_domain;  ///< by CompId: 0..n
  /// By phase 1..n (index 0 unused): clock-tree units per phase pulse,
  /// attributed to the pulsing phase's own domain.
  std::vector<std::int64_t> phase_pulse_units;
  /// Worst-case energy of one step, checked against kMaxStepUnits at build.
  std::int64_t max_step_units = 0;
  int num_domains = 0;  ///< n — the design's clock-phase count
};

/// Accumulates per-domain energy and the per-step peak during a run. One
/// probe serves one run (or one run_sliced batch); every run resets it.
class PowerProbe {
 public:
  /// Per-step records a run keeps beyond the totals and crest() (flags).
  static constexpr unsigned kStepHistogram = 1u << 0;  ///< step energies
  static constexpr unsigned kWaveform = 1u << 1;  ///< per-step domain rows

  explicit PowerProbe(const EnergyModel& model) : PowerProbe(model, 0) {}
  PowerProbe(const EnergyModel& model, unsigned record)
      : model_(&model), record_(record) {
    MCRTL_CHECK_MSG(model.max_step_units >= 0 &&
                        model.max_step_units <= EnergyModel::kMaxStepUnits,
                    "energy model's worst-case step ("
                        << model.max_step_units
                        << " units) overflows the probe's accumulators");
    row_.assign(static_cast<std::size_t>(model.num_domains) + 1, 0);
    domain_units_.assign(row_.size(), 0);
  }

  // ---- scalar hot-path hooks (simulator-only callers) ---------------------

  /// `flips` bit toggles on `net` this step.
  void add_net(std::size_t net, std::uint64_t flips) {
    row_[model_->net_domain[net]] +=
        model_->net_units[net] * static_cast<std::int64_t>(flips);
  }
  /// One clock event delivered to storage element `comp`.
  void add_storage_clock(std::size_t comp) {
    row_[model_->storage_domain[comp]] += model_->storage_clock_units[comp];
  }
  /// One pulse of phase `phase`'s clock-tree root.
  void add_phase_pulse(int phase) {
    row_[static_cast<std::size_t>(phase)] +=
        model_->phase_pulse_units[static_cast<std::size_t>(phase)];
  }
  /// Close the current step's row.
  void end_step() {
    std::int64_t total = 0;
    for (std::int64_t e : row_) total += e;
    book(row_.data(), 1);
    close_step(steps_ - 1, total, row_.data(), 1);
    std::fill(row_.begin(), row_.end(), 0);
  }

  // ---- bit-sliced kernel hooks --------------------------------------------

  const EnergyModel& model() const { return *model_; }
  /// True when every closed step must be handed to close_step() — a
  /// per-step record is kept. Otherwise only steps that might set a new
  /// peak (an upper bound above peak_units()) need to be.
  bool per_step() const { return record_ != 0; }
  std::int64_t peak_units() const { return peak_; }
  /// Book `steps` closed steps whose per-domain energies sum to `units`
  /// (num_domains + 1 entries).
  void book(const std::int64_t* units, std::size_t steps) {
    for (std::size_t d = 0; d < domain_units_.size(); ++d) {
      domain_units_[d] += static_cast<Wide>(units[d]);
    }
    steps_ += steps;
  }
  /// Hand over closed step `step` (0-based, global): its whole-design
  /// energy, and its per-domain row (`row[d * stride]`; read only when the
  /// waveform is kept). The step's energy must also be booked.
  void close_step(std::size_t step, std::int64_t total, const std::int64_t* row,
                  std::size_t stride) {
    peak_ = std::max(peak_, total);
    if (record_ & kStepHistogram) {
      lowest_ = std::min(lowest_, total);
      // HistogramStats::bucket_of(fj) in integer form: total / 2^20 fJ lies
      // in [2^(b-1), 2^b) for b = bit_width(total) - 20, else bucket 0.
      const int b = std::bit_width(static_cast<std::uint64_t>(total)) -
                    EnergyModel::kUnitShift;
      ++buckets_[static_cast<std::size_t>(std::clamp(b, 0, 63))];
    }
    if (record_ & kWaveform) {
      const std::size_t d = row_.size();
      if (waveform_.size() < (step + 1) * d) waveform_.resize((step + 1) * d);
      for (std::size_t i = 0; i < d; ++i) {
        waveform_[step * d + i] = row[i * stride];
      }
    }
  }

  // ---- results ----------------------------------------------------------

  int num_domains() const { return model_->num_domains; }
  std::size_t steps() const { return steps_; }
  bool keeps_waveform() const { return (record_ & kWaveform) != 0; }

  /// Energy of domain `d` (0..n) in step `step` (0-based), fJ. Needs
  /// kWaveform.
  double step_fj(std::size_t step, int d) const {
    MCRTL_CHECK_MSG(keeps_waveform(), "probe keeps no per-step waveform");
    return EnergyModel::to_fj(static_cast<double>(
        waveform_[step * row_.size() + static_cast<std::size_t>(d)]));
  }
  /// Total energy of domain `d` over the run, fJ.
  double domain_total_fj(int d) const {
    return EnergyModel::to_fj(
        static_cast<double>(domain_units_[static_cast<std::size_t>(d)]));
  }
  /// Whole-design total over the run, fJ.
  double total_fj() const {
    return EnergyModel::to_fj(static_cast<double>(total_units()));
  }
  /// Distribution of the whole-design per-step energies (fJ). Needs
  /// kStepHistogram; its sum is the exact run total.
  obs::HistogramStats step_histogram() const {
    MCRTL_CHECK_MSG(record_ & kStepHistogram, "probe keeps no step histogram");
    obs::HistogramStats h;
    h.count = steps_;
    h.buckets = buckets_;
    if (steps_ > 0) {
      h.min = EnergyModel::to_fj(static_cast<double>(lowest_));
      h.max = EnergyModel::to_fj(static_cast<double>(peak_));
      h.sum = total_fj();
    }
    return h;
  }
  /// Crest factor of the whole-design per-step energy: peak / mean.
  /// 0 when the run had no steps or burned no energy.
  double crest() const {
    const Wide total = total_units();
    if (steps_ == 0 || total == 0) return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(steps_);
    return static_cast<double>(peak_) / mean;
  }

  void reset() {
    std::fill(row_.begin(), row_.end(), 0);
    std::fill(domain_units_.begin(), domain_units_.end(), 0);
    waveform_.clear();
    buckets_.fill(0);
    lowest_ = std::numeric_limits<std::int64_t>::max();
    peak_ = 0;
    steps_ = 0;
  }

 private:
  // Whole-run sums: a long run of a large design can pass 2^63 units.
  __extension__ typedef unsigned __int128 Wide;

  Wide total_units() const {
    Wide sum = 0;
    for (Wide d : domain_units_) sum += d;
    return sum;
  }

  const EnergyModel* model_;
  unsigned record_;
  std::vector<std::int64_t> row_;        ///< scalar kernels: current step
  std::vector<Wide> domain_units_;       ///< whole run, per domain
  std::vector<std::int64_t> waveform_;   ///< kWaveform: steps × (n+1)
  std::array<std::uint64_t, 64> buckets_{};  ///< kStepHistogram
  std::int64_t lowest_ = std::numeric_limits<std::int64_t>::max();  ///< min
  std::int64_t peak_ = 0;
  std::size_t steps_ = 0;
};

}  // namespace mcrtl::sim
