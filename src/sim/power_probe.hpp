// Per-clock-domain energy accumulation fed straight from the simulator hot
// paths — the time-resolved half of the power-attribution subsystem
// (power::Attribution is the post-run, per-component half).
//
// The power layer prepares an EnergyModel: femtojoule weights per net
// bit-toggle (C_net·Vdd²), per delivered storage clock event (clock-pin +
// gating capacitance) and per clock-tree pulse, plus a clock-domain id for
// every net and storage element (0 = the global row: controller, IO,
// constants; 1..n = the paper's clock partitions). A Simulator with a probe
// attached (set_power_probe) folds every counted transition into the current
// step's per-domain energy row; end_step() closes the row, appending it to
// the full per-step waveform and accumulating it into a (domain ×
// period-step) folded profile.
//
// For Mode::BitSliced runs the probe receives the *aggregate across lanes*:
// the kernel already compresses each changed write's XOR-diff planes into
// bit-sliced per-lane sums, and the total toggle count across lanes falls
// out of those sums for a few popcounts — so the aggregate waveform is the
// exact sum of the per-stream waveforms (at integer-toggle granularity) and
// scale-invariant shapes like the crest factor need no unpacking. Exact
// per-stream attribution is always available post-run from the per-stream
// Activity records (power::Attribution::attribute).
//
// A time-sliced run() (one stream cut into lane segments) keeps per-lane
// step rows instead and stores each at its global step with set_step_row();
// fold_profile() then folds the finished waveform in step order. Both
// levelized kernels deliver a step's transitions in the same order, so the
// rows — and crest() — are bit-identical to a scalar run's.
//
// Attachment follows the PhaseHeatmap pattern: explicit opt-in, nullptr to
// detach, no collection cost when detached (one pointer test on the
// already-taken "value changed" branch). The probe only observes — nothing
// it computes feeds back into the simulation, so results are bit-identical
// with a probe attached or not (asserted by tests/test_attribution.cpp).
#pragma once

#include <cstdint>
#include <vector>

namespace mcrtl::sim {

/// Energy weights and clock-domain map for one design, prepared by
/// power::Attribution::energy_model(). All energies are in femtojoules per
/// counted event; domains are 0 (global) .. num_domains (partitions).
struct EnergyModel {
  std::vector<double> net_fj;  ///< by NetId: fJ per bit toggle (C_net·Vdd²)
  std::vector<std::uint32_t> net_domain;  ///< by NetId: 0..n
  /// By CompId (zero for non-storage): fJ per delivered clock event —
  /// clock-pin capacitance plus, for gated storage, the gate-event charge.
  std::vector<double> storage_clock_fj;
  std::vector<std::uint32_t> storage_domain;  ///< by CompId: 0..n
  /// By phase 1..n (index 0 unused): clock-tree fJ per phase pulse,
  /// attributed to the pulsing phase's own domain.
  std::vector<double> phase_pulse_fj;
  int num_domains = 0;  ///< n — the design's clock-phase count
  int period = 0;       ///< master period P (steps per computation)
};

/// Accumulates per-step, per-domain energy during a run. One probe serves
/// one run (or one run_sliced batch); call reset() to reuse it.
class PowerProbe {
 public:
  explicit PowerProbe(const EnergyModel& model) : model_(&model) {
    row_.assign(static_cast<std::size_t>(model.num_domains) + 1, 0.0);
    profile_.assign(row_.size() * static_cast<std::size_t>(model.period), 0.0);
  }

  // ---- hot-path hooks (simulator-only callers) --------------------------

  /// `flips` bit toggles on `net` this step (scalar kernels), or the
  /// aggregate toggle count across all lanes (sliced kernel).
  void add_net(std::size_t net, std::uint64_t flips) {
    row_[model_->net_domain[net]] +=
        model_->net_fj[net] * static_cast<double>(flips);
  }
  /// `events` clock events delivered to storage element `comp` (1 for the
  /// scalar kernels, the lane count for the sliced kernel).
  void add_storage_clock(std::size_t comp, std::uint64_t events = 1) {
    row_[model_->storage_domain[comp]] +=
        model_->storage_clock_fj[comp] * static_cast<double>(events);
  }
  /// One pulse of phase `phase`'s clock-tree root (× `lanes` streams).
  void add_phase_pulse(int phase, std::uint64_t lanes = 1) {
    row_[static_cast<std::size_t>(phase)] +=
        model_->phase_pulse_fj[static_cast<std::size_t>(phase)] *
        static_cast<double>(lanes);
  }
  /// Close the current step's row. `period_step` is the step's position in
  /// the master period (1..P), for the folded profile.
  void end_step(int period_step) {
    const std::size_t d = row_.size();
    waveform_.insert(waveform_.end(), row_.begin(), row_.end());
    double* fold = profile_.data() + static_cast<std::size_t>(period_step - 1);
    for (std::size_t i = 0; i < d; ++i) {
      fold[i * static_cast<std::size_t>(model_->period)] += row_[i];
      row_[i] = 0.0;
    }
    ++steps_;
  }

  // ---- out-of-order waveform (time-sliced runs) ---------------------------

  const EnergyModel& model() const { return *model_; }
  /// Start a waveform of `steps` steps, all rows zero.
  void begin_steps(std::size_t steps) {
    reset();
    waveform_.assign(steps * row_.size(), 0.0);
    steps_ = steps;
  }
  /// Store step `step`'s row: domain d's energy is row[d * stride].
  void set_step_row(std::size_t step, const double* row, std::size_t stride) {
    double* out = waveform_.data() + step * row_.size();
    for (std::size_t i = 0; i < row_.size(); ++i) out[i] = row[i * stride];
  }
  /// Fold the stored waveform into the profile in step order — the adds an
  /// end_step() per step would have made.
  void fold_profile() {
    const auto P = static_cast<std::size_t>(model_->period);
    for (std::size_t s = 0, t = 0; s < steps_; ++s, t = t + 1 == P ? 0 : t + 1) {
      const double* r = waveform_.data() + s * row_.size();
      for (std::size_t i = 0; i < row_.size(); ++i) profile_[i * P + t] += r[i];
    }
  }

  // ---- results ----------------------------------------------------------

  int num_domains() const { return model_->num_domains; }
  int period() const { return model_->period; }
  std::size_t steps() const { return steps_; }

  /// Energy of domain `d` (0..n) in step `step` (0-based), fJ.
  double step_fj(std::size_t step, int d) const {
    return waveform_[step * row_.size() + static_cast<std::size_t>(d)];
  }
  /// Whole-design energy of step `step`, fJ.
  double step_total_fj(std::size_t step) const {
    double sum = 0.0;
    const double* r = waveform_.data() + step * row_.size();
    for (std::size_t i = 0; i < row_.size(); ++i) sum += r[i];
    return sum;
  }
  /// Folded (period-modulo) energy of domain `d` at period step t (1..P),
  /// summed over the whole run.
  double profile_fj(int d, int period_step) const {
    return profile_[static_cast<std::size_t>(d) *
                        static_cast<std::size_t>(model_->period) +
                    static_cast<std::size_t>(period_step - 1)];
  }
  /// Total energy of domain `d` over the run, fJ.
  double domain_total_fj(int d) const {
    double sum = 0.0;
    for (int t = 1; t <= model_->period; ++t) sum += profile_fj(d, t);
    return sum;
  }
  /// Whole-design total over the run, fJ.
  double total_fj() const {
    double sum = 0.0;
    for (int d = 0; d <= model_->num_domains; ++d) sum += domain_total_fj(d);
    return sum;
  }
  /// Whole-design per-step energies (fJ), one entry per simulated step.
  std::vector<double> step_energies() const {
    std::vector<double> e(steps_);
    for (std::size_t s = 0; s < steps_; ++s) e[s] = step_total_fj(s);
    return e;
  }
  /// Crest factor of the whole-design per-step energy: peak / mean.
  /// 0 when the run had no steps or burned no energy.
  double crest() const {
    if (steps_ == 0) return 0.0;
    double peak = 0.0, sum = 0.0;
    for (std::size_t s = 0; s < steps_; ++s) {
      const double e = step_total_fj(s);
      sum += e;
      if (e > peak) peak = e;
    }
    const double mean = sum / static_cast<double>(steps_);
    return mean > 0.0 ? peak / mean : 0.0;
  }

  void reset() {
    std::fill(row_.begin(), row_.end(), 0.0);
    std::fill(profile_.begin(), profile_.end(), 0.0);
    waveform_.clear();
    steps_ = 0;
  }

 private:
  const EnergyModel* model_;
  std::vector<double> row_;       ///< current step, (n+1) domains
  std::vector<double> waveform_;  ///< steps × (n+1), row-major
  std::vector<double> profile_;   ///< (n+1) × P, row-major, folded
  std::size_t steps_ = 0;
};

}  // namespace mcrtl::sim
