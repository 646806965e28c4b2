// Mode::BitSliced — the batched Monte-Carlo settle kernel, and the
// time-sliced path of an EventDriven run().
//
// One pass advances up to 64 bit lanes through the design at once. Every
// net's value is held as `width` bit-slice planes (util/bits.hpp layout:
// bit s of plane b is bit b of lane s's word), so a plane-wise SWAR
// operation computes all lanes at once: logic ops are one op per plane,
// add/sub/compare ripple a carry lane mask across the planes, muxes blend
// planes under per-lane select masks. Multiplication, division and
// data-dependent shifts drop to a transpose64 -> scalar eval_op per lane
// -> transpose64 fallback — exact, and rare enough in the paper's datapaths
// not to matter.
//
// A lane replays rows of an input stream. For run_sliced() each lane is an
// independent Monte-Carlo stream, counted from its first row; for the
// time-sliced run() every lane is a contiguous segment of one stream,
// preceded by uncounted warm-up rows (see sim/simulator.hpp). A per-lane
// count-enable plane, ANDed into every XOR-diff before it is counted,
// separates the two: warm-up and padding rows move the lane's state but
// never its counters.
//
// Toggle exactness is the contract, so counts cannot be folded into one
// popcount per plane — instead each changed write compresses its counted
// XOR-diff planes into a bit-sliced per-lane sum (slice_popcount_planes, a
// carry-save adder network) and adds that into a per-net "vertical" counter
// whose planes are again bit-sliced across lanes (slice_counter_add). At
// the end of the pass one transpose64 per counter unpacks exact per-stream
// totals (run_sliced), or sum_j popcount(plane_j) << j adds the lanes into
// the one stream's total (time-sliced run).
//
// The kernel reuses the event-driven machinery the Simulator constructor
// precomputes: the levelized slot worklist, the tabulated controller deltas
// and the static phase-edge schedules. Control lines, clock events and
// phase pulses are controller-driven and therefore identical across lanes
// — they are counted once per step, scalar, weighted by the number of
// counting lanes.
//
// An attached PowerProbe is fed the same way. Nets that share an energy
// weight and a clock domain form one energy class (the suite's designs have
// a few dozen classes against 40-90 nets), and each counted write adds its
// per-lane sums into its class's small bit-sliced counter instead of
// weighting every lane. When a step closes, sum_j popcount(plane_j) << j of
// each touched class times its weight, plus the uniform clock energy, gives
// the step's exact aggregate over the counting lanes. A time-sliced run
// also needs each lane's own step energy, but only where it could set a new
// peak: an upper bound (each class's largest lane count) is checked against
// the probe's peak first, and only steps above it — or every step, when the
// probe keeps a per-step record — unpack the counters into lane rows.
#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>

#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace mcrtl::sim {

using rtl::CompId;
using rtl::CompKind;
using rtl::NetId;

namespace {
// Vertical-counter depth: per-net per-stream toggle totals up to 2^48.
// A run would need ~2^42 master cycles to overflow a 64-bit-wide net.
constexpr unsigned kCounterPlanes = 48;

// Energy-class counters hold one step's per-lane toggle count of a class in
// kClassPlanes bit-slice planes; classes are cut so the count cannot pass
// kClassCapacity (every net bit toggling in both settles of a step), and
// eight classes' counters fill the 64 rows of one transpose64.
constexpr unsigned kClassPlanes = 8;
constexpr unsigned kClassCapacity = (1u << kClassPlanes) - 1;
constexpr std::uint32_t kNoClass = ~std::uint32_t{0};

// Sum over all lanes of a bit-sliced per-lane count: plane j holds bit j of
// every lane's count, so the aggregate is sum_j popcount(planes[j]) << j —
// the time-sliced run's Activity entry over a whole vertical counter, and a
// probe class's step aggregate over its step counter.
inline std::uint64_t lanes_total(const std::uint64_t* planes, unsigned k) {
  std::uint64_t total = 0;
  for (unsigned j = 0; j < k; ++j) {
    total += static_cast<std::uint64_t>(popcount64(planes[j])) << j;
  }
  return total;
}

// Largest per-lane value of a bit-sliced count: walk the planes from the
// top, keeping only the lanes still tied for the maximum.
inline std::uint64_t lane_max(const std::uint64_t* planes, unsigned k) {
  std::uint64_t tied = ~std::uint64_t{0}, v = 0;
  for (unsigned j = k; j-- > 0;) {
    if (const std::uint64_t hit = planes[j] & tied) {
      tied = hit;
      v |= std::uint64_t{1} << j;
    }
  }
  return v;
}

/// One bit lane of a sliced pass: pass row r replays stream row first + r;
/// rows warm .. warm + count - 1 are counted.
struct SliceLane {
  const InputStream* stream = nullptr;
  std::size_t first = 0;
  std::size_t warm = 0;
  std::size_t count = 0;
};

/// A run of consecutive ports whose widths sum to <= 64, packed (or
/// unpacked) by one shared transpose64, or per port when that's cheaper.
struct Chunk {
  std::size_t first = 0;
  std::size_t count = 0;
  bool transpose = false;
};

// Group consecutive ports of the given widths into <=64-bit chunks. The
// shared transpose costs ~384 plane ops; per-port slice_pack costs
// 64 x width — so the transpose wins once a chunk carries more than a
// handful of bits, and very narrow chunks keep the direct pack.
std::vector<Chunk> make_chunks(const std::vector<unsigned>& widths,
                               std::vector<unsigned>& bit_offset) {
  std::vector<Chunk> chunks;
  bit_offset.assign(widths.size(), 0);
  for (std::size_t i = 0; i < widths.size();) {
    Chunk ch;
    ch.first = i;
    unsigned bits = 0;
    while (i < widths.size() && bits + widths[i] <= 64) {
      bit_offset[i] = bits;
      bits += widths[i];
      ++i;
      ++ch.count;
    }
    ch.transpose = bits > 8;
    chunks.push_back(ch);
  }
  return chunks;
}
}  // namespace

/// The per-pass engine. Reads the Simulator's precomputed schedules and
/// keeps the persistent plane state in the Simulator (net_planes_), so
/// repeated calls behave like repeated scalar run() calls.
class SlicedKernel {
 public:
  /// `time_sliced`: the lanes are segments of one stream, to be summed into
  /// one result; otherwise they are independent streams.
  SlicedKernel(Simulator& sim, std::vector<SliceLane> lanes, std::size_t rows,
               bool time_sliced)
      : sim_(sim),
        design_(*sim.design_),
        nl_(design_.netlist),
        comps_(nl_.components()),
        lanes_(std::move(lanes)),
        rows_(rows),
        time_sliced_(time_sliced),
        n_(lanes_.size()),
        lane_mask_(n_ == 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << n_) - 1),
        net_counters_(nl_.num_nets() * kCounterPlanes, 0),
        storage_counters_(nl_.num_components() * kCounterPlanes, 0),
        clock_events_(nl_.num_components(), 0),
        uniform_(nl_.num_nets(), 0),
        uniform_scalar_(nl_.num_nets(), 0) {
    if (sim.probe_) build_energy_classes(sim.probe_->model());
    for (const auto& net : nl_.nets()) {
      const CompKind k = nl_.comp(net.driver).kind;
      // Controller lines and constants carry the same word in every lane,
      // so selects fed by them read one lane instead of building masks.
      if (k == CompKind::ControlSource || k == CompKind::Constant) {
        uniform_[net.id.index()] = 1;
        // Seed the scalar cache from the persistent plane state (planes
        // survive across passes on one Simulator).
        uniform_scalar_[net.id.index()] =
            slice_extract_lane(planes(net.id), width(net.id), 0);
      }
    }
  }

  void run(const std::vector<dfg::ValueId>& input_order,
           const std::vector<dfg::ValueId>& output_order);
  /// run_sliced(): one result per lane.
  std::vector<SimResult> stream_results();
  /// Time-sliced run(): the lanes summed into one result.
  SimResult combined_result();

 private:
  std::uint64_t* planes(NetId net) {
    return sim_.net_planes_.data() + sim_.plane_offset_[net.index()];
  }
  unsigned width(NetId net) const {
    return sim_.plane_offset_[net.index() + 1] -
           sim_.plane_offset_[net.index()];
  }
  /// Scalar word shared by every lane of a uniform net. Maintained by
  /// write_broadcast — the only writer of ControlSource/Constant nets — so
  /// select decodes read one word instead of re-extracting a lane.
  std::uint64_t uniform_value(NetId net) const {
    return uniform_scalar_[net.index()];
  }

  void bump(std::uint64_t* counter, const std::uint64_t* sums, unsigned k) {
    MCRTL_CHECK_MSG(slice_counter_add(counter, kCounterPlanes, sums, k),
                    "bit-sliced toggle counter overflow");
  }

  /// Count one write's per-lane toggles (`diff` already masked to the
  /// counting lanes) into `net`'s counter and its probe energy class.
  /// Leaves the compressed per-lane sums in `sums` and returns their plane
  /// count, for callers that count them again (storage, heatmap).
  unsigned count_net(NetId net, const std::uint64_t* diff, unsigned w,
                     std::uint64_t* sums) {
    const unsigned k = slice_popcount_planes(diff, w, sums);
    bump(net_counters_.data() + net.index() * kCounterPlanes, sums, k);
    if (sim_.probe_) {
      const std::uint32_t c = net_class_[net.index()];
      if (c != kNoClass) {
        if (!class_touched_[c]) {
          class_touched_[c] = 1;
          touched_.push_back(c);
        }
        MCRTL_CHECK_MSG(
            slice_counter_add(class_counters_.data() + c * kClassPlanes,
                              kClassPlanes, sums, k),
            "energy-class counter overflow");
      }
    }
    return k;
  }

  /// Group the probe model's nets into energy classes (see the file
  /// comment) and size the per-step probe state.
  void build_energy_classes(const EnergyModel& m);
  /// Clock energy one lane receives at period step t, per domain:
  /// clock_units_[t * (n+1) + d].
  void build_clock_units(int P, int nphases);
  /// Close pass step (`row`, `t`) on the probe: book the counting lanes'
  /// aggregate and hand over the lane steps it needs, then clear the class
  /// counters.
  void close_probe_step(int t, std::size_t row);
  /// Exact per-lane, per-domain energy of the step into lane_rows_, and
  /// every counting lane's step handed to the probe.
  void close_lane_steps(int t, std::size_t row);

  /// Write `val` planes (masked to the active lanes) into `net`: commit,
  /// dirty the fanout, count the counting lanes' toggles. The generic path
  /// of every combinational/control/input write.
  void write_net(NetId net, const std::uint64_t* val) {
    std::uint64_t* old = planes(net);
    const unsigned w = width(net);
    std::uint64_t diff[64];
    std::uint64_t any = 0, counted = 0;
    // Commit as we diff: XORing a zero diff is a no-op, so the unchanged
    // case needs no second pass either way.
    for (unsigned b = 0; b < w; ++b) {
      const std::uint64_t d = (val[b] & lane_mask_) ^ old[b];
      any |= d;
      old[b] ^= d;
      diff[b] = d & count_mask_;
      counted |= diff[b];
    }
    if (any == 0) return;
    sim_.mark_fanout_dirty(net);
    if (counted != 0) {
      std::uint64_t sums[kClassPlanes];  // <= 7 used (64-bit nets)
      count_net(net, diff, w, sums);
    }
  }

  void write_broadcast(NetId net, std::uint64_t value) {
    std::uint64_t buf[64];
    slice_broadcast(value, width(net), buf);
    if (uniform_[net.index()]) {
      uniform_scalar_[net.index()] = truncate(value, width(net));
    }
    write_net(net, buf);
  }

  void eval_op_sliced(dfg::Op op, const std::uint64_t* a,
                      const std::uint64_t* b, unsigned w, std::uint64_t* out);
  /// Evaluate `c` and return a pointer to the result planes — either `out`,
  /// or (for pure selections: uniform mux/bus, Pass) the selected input's
  /// planes directly, skipping the copy that write_net would diff anyway.
  const std::uint64_t* eval_comp(const rtl::Component& c, std::uint64_t* out);
  void settle();
  /// Present every lane's inputs of pass row `row` (clamped to the lane's
  /// last stream row: re-presenting the current inputs is a no-op, exactly
  /// like the scalar run not presenting any after its last computation).
  void apply_inputs(std::size_t row);
  void sample_outputs(std::size_t row, const std::vector<CompId>& out_storage);

  Simulator& sim_;
  const rtl::Design& design_;
  const rtl::Netlist& nl_;
  const std::vector<rtl::Component>& comps_;
  const std::vector<SliceLane> lanes_;
  const std::size_t rows_;
  const bool time_sliced_;
  const std::size_t n_;
  const std::uint64_t lane_mask_;
  // Lanes whose current row is counted (0 during the preamble).
  std::uint64_t count_mask_ = 0;
  // Activity events one controller-driven event adds: 1 per independent
  // stream, or the number of counting lanes when they slice one stream.
  std::uint64_t event_weight_ = 0;

  std::vector<std::uint64_t> net_counters_;      // num_nets x kCounterPlanes
  std::vector<std::uint64_t> storage_counters_;  // num_comps x kCounterPlanes
  std::vector<std::uint64_t> clock_events_;      // scalar: same in every lane
  std::vector<std::uint64_t> phase_pulses_;      // by phase 1..n
  std::uint64_t steps_ = 0;                      // counted steps
  std::vector<std::uint64_t> heat_counters_;     // (phase x step) vertical
  std::vector<std::uint64_t> heat_clock_;        // scalar clock edges / cell
  // Attached probe only: energy classes (by NetId; kNoClass = no energy),
  // their weights, domains and step counters, the classes counted this
  // step, and the per-step scratch rows.
  std::vector<std::uint32_t> net_class_;
  std::vector<std::int64_t> class_units_;
  std::vector<std::uint32_t> class_domain_;
  std::vector<std::uint64_t> class_counters_;  // classes x kClassPlanes
  std::vector<std::uint8_t> class_touched_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::int64_t> clock_units_;  // (P+1) x (n+1)
  std::vector<std::int64_t> agg_;          // n+1: counting lanes' step sum
  std::vector<std::int64_t> lane_rows_;    // (n+1) x 64 lanes
  std::vector<std::uint8_t> uniform_;            // by NetId
  std::vector<std::uint64_t> uniform_scalar_;    // by NetId, uniform nets only
  std::vector<std::uint64_t> capture_buf_;       // D planes, read-before-write
  std::vector<std::pair<NetId, unsigned>> sliced_in_ports_;  // (net, width)
  std::vector<Chunk> in_chunks_;
  std::vector<unsigned> in_bit_offset_;  // port's bit offset within its chunk
  std::vector<Chunk> out_chunks_;
  std::vector<unsigned> out_bit_offset_;
  // Sampled outputs, one vector per stream or one shared by all segments:
  // lane s's sample of pass row r lands at index first + r.
  std::vector<std::vector<OutputSample>> outputs_;
  std::uint64_t plane_evals_ = 0;
};

void SlicedKernel::eval_op_sliced(dfg::Op op, const std::uint64_t* a,
                                  const std::uint64_t* b, unsigned w,
                                  std::uint64_t* out) {
  using dfg::Op;
  switch (op) {
    case Op::Add: slice_add(a, b, w, out); return;
    case Op::Sub: slice_sub(a, b, w, out); return;
    case Op::And: for (unsigned i = 0; i < w; ++i) out[i] = a[i] & b[i]; return;
    case Op::Or:  for (unsigned i = 0; i < w; ++i) out[i] = a[i] | b[i]; return;
    case Op::Xor: for (unsigned i = 0; i < w; ++i) out[i] = a[i] ^ b[i]; return;
    case Op::Not: for (unsigned i = 0; i < w; ++i) out[i] = ~a[i]; return;
    case Op::Neg: {  // 0 - a  ==  ~a + 1 (ripple the +1 as a carry mask)
      std::uint64_t carry = ~std::uint64_t{0};
      for (unsigned i = 0; i < w; ++i) {
        const std::uint64_t x = ~a[i];
        out[i] = x ^ carry;
        carry &= x;
      }
      return;
    }
    case Op::Pass: std::copy(a, a + w, out); return;
    case Op::Eq: std::fill(out, out + w, 0); out[0] = slice_eq(a, b, w); return;
    case Op::Ne: std::fill(out, out + w, 0); out[0] = ~slice_eq(a, b, w); return;
    case Op::Lt:
      std::fill(out, out + w, 0);
      out[0] = slice_lt_signed(a, b, w);
      return;
    case Op::Gt:
      std::fill(out, out + w, 0);
      out[0] = slice_lt_signed(b, a, w);
      return;
    case Op::Le:
      std::fill(out, out + w, 0);
      out[0] = ~slice_lt_signed(b, a, w);
      return;
    case Op::Ge:
      std::fill(out, out + w, 0);
      out[0] = ~slice_lt_signed(a, b, w);
      return;
    case Op::Min: slice_mux(slice_lt_signed(a, b, w), a, b, w, out); return;
    case Op::Max: slice_mux(slice_lt_signed(b, a, w), a, b, w, out); return;
    case Op::Mul: {
      // Shift-add: bit-plane k of b is the per-lane mask of lanes whose
      // multiplier has bit k set, so the product mod 2^w is the masked sum
      // of the shifted multiplicands. O(w^2) plane ops — far cheaper than
      // the transpose fallback for the narrow widths RTL datapaths use,
      // and exact because truncate(a * b) ignores signs.
      std::uint64_t acc[64] = {0};
      for (unsigned k = 0; k < w; ++k) {
        const std::uint64_t mask = b[k];
        if (mask == 0) continue;
        std::uint64_t carry = 0;
        for (unsigned i = k; i < w; ++i) {
          const std::uint64_t x = acc[i], y = a[i - k] & mask;
          acc[i] = x ^ y ^ carry;
          carry = (x & y) | (carry & (x ^ y));
        }
      }
      std::copy(acc, acc + w, out);
      return;
    }
    case Op::Div:
    case Op::Mod:
    case Op::Shl:
    case Op::Shr: {
      // Transpose fallback: unpack both operands to lane words, evaluate
      // the scalar op per stream, pack the results back into planes.
      std::uint64_t la[64] = {0}, lb[64] = {0};
      std::copy(a, a + w, la);
      std::copy(b, b + w, lb);
      transpose64(la);
      transpose64(lb);
      for (std::size_t s = 0; s < n_; ++s) {
        la[s] = dfg::eval_op(op, la[s], lb[s], w);
      }
      std::fill(la + n_, la + 64, 0);
      transpose64(la);
      std::copy(la, la + w, out);
      return;
    }
  }
  MCRTL_CHECK(false);
}

const std::uint64_t* SlicedKernel::eval_comp(const rtl::Component& c,
                                             std::uint64_t* out) {
  const unsigned w = c.width;
  if (c.kind == CompKind::Mux || c.kind == CompKind::Bus) {
    if (uniform_[c.select.index()]) {
      const std::uint64_t code = uniform_value(c.select);
      MCRTL_CHECK_MSG(code < c.inputs.size(), "mux/bus '" << c.name
                          << "' select " << code << " out of range");
      return planes(c.inputs[code]);
    }
    const std::uint64_t* sel = planes(c.select);
    const unsigned ws = width(c.select);
    // Data-driven select: blend every input under its per-lane match mask.
    std::fill(out, out + w, 0);
    std::uint64_t cover = 0;
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const std::uint64_t m = slice_eq_const(sel, ws, i) & lane_mask_;
      if (m == 0) continue;
      cover |= m;
      const std::uint64_t* in = planes(c.inputs[i]);
      for (unsigned b = 0; b < w; ++b) out[b] |= m & in[b];
    }
    MCRTL_CHECK_MSG(cover == lane_mask_,
                    "mux/bus '" << c.name << "' select out of range");
    return out;
  }
  if (c.kind == CompKind::IsoGate) {
    const std::uint64_t* sel = planes(c.select);
    const unsigned ws = width(c.select);
    std::uint64_t en = 0;
    for (unsigned b = 0; b < ws; ++b) en |= sel[b];
    slice_mux(en, planes(c.inputs[0]), planes(c.output), w, out);
    return out;
  }
  // Alu
  const std::uint64_t* a = planes(c.inputs[0]);
  const std::uint64_t* b = planes(c.inputs[1]);
  if (!c.select.valid()) {
    if (c.funcs[0] == dfg::Op::Pass) return a;
    eval_op_sliced(c.funcs[0], a, b, w, out);
    return out;
  }
  if (uniform_[c.select.index()]) {
    const std::uint64_t code = uniform_value(c.select);
    MCRTL_CHECK_MSG(code < c.funcs.size(), "alu '" << c.name << "' func code "
                        << code << " out of range");
    if (c.funcs[code] == dfg::Op::Pass) return a;
    eval_op_sliced(c.funcs[code], a, b, w, out);
    return out;
  }
  const std::uint64_t* sel = planes(c.select);
  const unsigned ws = width(c.select);
  // Data-driven function select: evaluate each selected function and blend.
  std::fill(out, out + w, 0);
  std::uint64_t cover = 0;
  std::uint64_t tmp[64];
  for (std::size_t code = 0; code < c.funcs.size(); ++code) {
    const std::uint64_t m = slice_eq_const(sel, ws, code) & lane_mask_;
    if (m == 0) continue;
    cover |= m;
    eval_op_sliced(c.funcs[code], a, b, w, tmp);
    for (unsigned b2 = 0; b2 < w; ++b2) out[b2] |= m & tmp[b2];
  }
  MCRTL_CHECK_MSG(cover == lane_mask_,
                  "alu '" << c.name << "' func code out of range");
  return out;
}

void SlicedKernel::settle() {
  ++sim_.kernel_stats_.settles;
  sim_.kernel_stats_.oblivious_evals += sim_.comb_order_.size();
  if (sim_.pending_ == 0) return;
  std::uint64_t out[64];
  sim_.drain([&](CompId cid) {
    ++sim_.kernel_stats_.evals;
    const rtl::Component& c = comps_[cid.index()];
    plane_evals_ += c.width;
    write_net(c.output, eval_comp(c, out));
  });
}

void SlicedKernel::apply_inputs(std::size_t row) {
  // Hoist the vector-of-vectors row lookups: one pointer per lane, then
  // plain array indexing in the per-port gather.
  const std::uint64_t* rows[64];
  for (std::size_t s = 0; s < n_; ++s) {
    const InputStream& st = *lanes_[s].stream;
    const auto& r = st[std::min(lanes_[s].first + row, st.size() - 1)];
    MCRTL_CHECK(r.size() == sliced_in_ports_.size());
    rows[s] = r.data();
  }
  // Ports are packed a chunk at a time: every port in a chunk is
  // concatenated into one word per lane at its precomputed bit offset,
  // and a single transpose64 slices the whole chunk — one 384-op transpose
  // amortized over all the chunk's ports, against 64 x width ops per port
  // for a slice_pack of each. Narrow chunks keep the pack path.
  std::uint64_t lanes[64];
  for (const auto& ch : in_chunks_) {
    if (!ch.transpose) {
      for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
        const auto& [net, w] = sliced_in_ports_[i];
        for (std::size_t s = 0; s < n_; ++s) {
          lanes[s] = truncate(rows[s][i], w);
        }
        std::uint64_t pl[64];
        slice_pack(lanes, n_, w, pl);
        write_net(net, pl);
      }
      continue;
    }
    for (std::size_t s = 0; s < n_; ++s) {
      std::uint64_t word = 0;
      for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
        word |= truncate(rows[s][i], sliced_in_ports_[i].second)
                << in_bit_offset_[i];
      }
      lanes[s] = word;
    }
    std::fill(lanes + n_, lanes + 64, 0);
    transpose64(lanes);
    for (std::size_t i = ch.first; i < ch.first + ch.count; ++i) {
      write_net(sliced_in_ports_[i].first, lanes + in_bit_offset_[i]);
    }
  }
}

void SlicedKernel::sample_outputs(std::size_t row,
                                  const std::vector<CompId>& out_storage) {
  OutputSample* dst[64] = {};
  for (std::size_t s = 0; s < n_; ++s) {
    if ((count_mask_ >> s & 1) == 0) continue;
    dst[s] = &outputs_[time_sliced_ ? 0 : s][lanes_[s].first + row];
    dst[s]->assign(out_storage.size(), 0);
  }
  std::uint64_t lanes[64];
  for (const auto& ch : out_chunks_) {
    if (!ch.transpose) {
      for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
        const rtl::Component& c = comps_[out_storage[o].index()];
        slice_unpack(planes(c.output), c.width, n_, lanes);
        for (std::size_t s = 0; s < n_; ++s) {
          if (dst[s]) (*dst[s])[o] = lanes[s];
        }
      }
      continue;
    }
    unsigned bits = 0;
    for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
      const rtl::Component& c = comps_[out_storage[o].index()];
      const std::uint64_t* pl = planes(c.output);
      std::copy(pl, pl + c.width, lanes + bits);
      bits += c.width;
    }
    std::fill(lanes + bits, lanes + 64, 0);
    transpose64(lanes);
    for (std::size_t o = ch.first; o < ch.first + ch.count; ++o) {
      const unsigned w = comps_[out_storage[o].index()].width;
      const unsigned off = out_bit_offset_[o];
      for (std::size_t s = 0; s < n_; ++s) {
        if (dst[s]) (*dst[s])[o] = (lanes[s] >> off) & bit_mask(w);
      }
    }
  }
}

void SlicedKernel::run(const std::vector<dfg::ValueId>& input_order,
                       const std::vector<dfg::ValueId>& output_order) {
  const rtl::Design& d = design_;
  const int P = d.clocks.period();
  const int T = d.schedule_steps;
  const int nphases = d.clocks.num_phases();
  PowerProbe* const probe = sim_.probe_;

  // Port maps, resolved once (as in the scalar run()).
  sliced_in_ports_.clear();
  std::vector<unsigned> widths;
  for (dfg::ValueId v : input_order) {
    const rtl::Component& c = comps_[d.input_ports.at(v).index()];
    sliced_in_ports_.emplace_back(c.output, c.width);
    widths.push_back(c.width);
  }
  in_chunks_ = make_chunks(widths, in_bit_offset_);
  std::vector<CompId> out_storage;
  widths.clear();
  for (dfg::ValueId v : output_order) {
    out_storage.push_back(d.output_storage.at(v));
    widths.push_back(comps_[out_storage.back().index()].width);
  }
  // Chunk the outputs for sampling exactly like the input ports: one shared
  // transpose64 unpacks every output in a <=64-bit chunk at once.
  out_chunks_ = make_chunks(widths, out_bit_offset_);

  std::size_t samples = 0;
  for (const auto& l : lanes_) {
    samples = std::max(samples, l.first + l.warm + l.count);
  }
  outputs_.assign(time_sliced_ ? 1 : n_, std::vector<OutputSample>(samples));

  if (time_sliced_ ? sim_.heatmap_ != nullptr
                   : sim_.stream_heatmaps_ != nullptr) {
    heat_counters_.assign(
        static_cast<std::size_t>(nphases) * P * kCounterPlanes, 0);
    heat_clock_.assign(static_cast<std::size_t>(nphases) * P, 0);
  }
  if (probe) {
    probe->reset();  // one probe record per run or batch
    build_clock_units(P, nphases);
  }

  // An edge only needs the read-all-D-before-any-Q staging buffer when a
  // register captured on it feeds another register captured on the same
  // edge (a shift chain); everywhere else the captures commit directly.
  std::vector<std::uint8_t> edge_needs_staging(
      sim_.edge_captures_.size(), 0);
  for (std::size_t t = 0; t < sim_.edge_captures_.size(); ++t) {
    const auto& caps = sim_.edge_captures_[t];
    for (CompId a : caps) {
      const NetId d_in = comps_[a.index()].inputs[0];
      for (CompId b : caps) {
        if (comps_[b.index()].output == d_in) {
          edge_needs_staging[t] = 1;
          break;
        }
      }
      if (edge_needs_staging[t]) break;
    }
  }
  phase_pulses_.assign(static_cast<std::size_t>(nphases) + 1, 0);

  // ---- preamble (uncounted), mirroring the scalar run() exactly ----------
  {
    count_mask_ = 0;
    sim_.mark_all_dirty();
    for (const auto& [net, value] : sim_.control_reset_writes_) {
      write_broadcast(net, value);
    }
    for (const auto& c : comps_) {
      if (c.kind == CompKind::Constant) {
        write_broadcast(c.output, from_signed(c.const_value, c.width));
      }
    }
    if (rows_ > 0) apply_inputs(0);
    settle();
    std::uint64_t buf[64];
    for (CompId cid :
         sim_.storage_by_phase_[static_cast<std::size_t>(nphases)]) {
      const rtl::Component& c = comps_[cid.index()];
      // Load enables are controller-driven (checked at construction), so
      // one lane answers for all of them.
      if (c.load.valid() && uniform_value(c.load) == 0) continue;
      const std::uint64_t* dval = planes(c.inputs[0]);
      std::copy(dval, dval + c.width, buf);
      write_net(c.output, buf);
    }
    settle();
  }

  // ---- main loop: one row of lane computations per iteration -------------
  for (std::size_t row = 0; row < rows_; ++row) {
    if (sim_.has_deadline_ &&
        std::chrono::steady_clock::now() > sim_.deadline_) {
      throw TimeoutError(
          std::string(time_sliced_ ? "time-sliced" : "sliced") +
          " simulation exceeded its point deadline after " +
          std::to_string(row) + " of " + std::to_string(rows_) +
          " computation rows");
    }
    count_mask_ = 0;
    for (std::size_t s = 0; s < n_; ++s) {
      const SliceLane& l = lanes_[s];
      if (row >= l.warm && row < l.warm + l.count) {
        count_mask_ |= std::uint64_t{1} << s;
      }
    }
    event_weight_ = time_sliced_ ? popcount64(count_mask_) : 1;
    for (int t = 1; t <= P; ++t) {
      for (const auto& [net, value] :
           sim_.control_step_writes_[static_cast<std::size_t>(t)]) {
        write_broadcast(net, value);
      }
      if (t == P) apply_inputs(row + 1);
      settle();

      const int phase = sim_.phase_by_step_[static_cast<std::size_t>(t)];
      phase_pulses_[static_cast<std::size_t>(phase)] += event_weight_;
      const std::size_t cell = static_cast<std::size_t>(phase - 1) * P +
                               static_cast<std::size_t>(t - 1);
      const auto& clocked =
          sim_.edge_clock_events_[static_cast<std::size_t>(t)];
      for (CompId cid : clocked) clock_events_[cid.index()] += event_weight_;
      if (!heat_clock_.empty()) {
        heat_clock_[cell] += clocked.size() * event_weight_;
      }

      // Captures commit simultaneously: when an edge chains registers,
      // stage every D input before any Q output changes.
      const auto& caps = sim_.edge_captures_[static_cast<std::size_t>(t)];
      const bool staged = edge_needs_staging[static_cast<std::size_t>(t)];
      if (staged) {
        capture_buf_.clear();
        for (CompId cid : caps) {
          const rtl::Component& c = comps_[cid.index()];
          const std::uint64_t* dval = planes(c.inputs[0]);
          capture_buf_.insert(capture_buf_.end(), dval, dval + c.width);
        }
      }
      std::size_t off = 0;
      for (CompId cid : caps) {
        const rtl::Component& c = comps_[cid.index()];
        const std::uint64_t* dval =
            staged ? capture_buf_.data() + off : planes(c.inputs[0]);
        off += c.width;
        std::uint64_t* q = planes(c.output);
        std::uint64_t diff[64];
        std::uint64_t any = 0, counted = 0;
        for (unsigned b = 0; b < c.width; ++b) {
          const std::uint64_t dq = dval[b] ^ q[b];
          any |= dq;
          q[b] ^= dq;
          diff[b] = dq & count_mask_;
          counted |= diff[b];
        }
        if (any == 0) continue;
        sim_.mark_fanout_dirty(c.output);
        if (counted == 0) continue;
        std::uint64_t sums[kClassPlanes];  // <= 7 used (64-bit nets)
        const unsigned k = count_net(c.output, diff, c.width, sums);
        bump(storage_counters_.data() + cid.index() * kCounterPlanes, sums, k);
        if (!heat_counters_.empty()) {
          bump(heat_counters_.data() + cell * kCounterPlanes, sums, k);
        }
      }
      settle();
      steps_ += event_weight_;
      if (probe) close_probe_step(t, row);
      if (t == T) sample_outputs(row, out_storage);
    }
  }
}

void SlicedKernel::build_energy_classes(const EnergyModel& m) {
  net_class_.assign(nl_.num_nets(), kNoClass);
  // (weight, domain) -> the class of that key still taking nets, and the
  // worst-case step count each class has committed so far.
  std::map<std::pair<std::int64_t, std::uint32_t>, std::uint32_t> open;
  std::vector<unsigned> load;
  for (const auto& net : nl_.nets()) {
    const std::size_t i = net.id.index();
    if (m.net_units[i] == 0) continue;
    const unsigned need = 2 * net.width;  // both settles of a step
    const auto next = static_cast<std::uint32_t>(load.size());
    auto [it, fresh] =
        open.try_emplace({m.net_units[i], m.net_domain[i]}, next);
    if (!fresh && load[it->second] + need > kClassCapacity) {
      it->second = next;
      fresh = true;
    }
    if (fresh) {
      load.push_back(0);
      class_units_.push_back(m.net_units[i]);
      class_domain_.push_back(m.net_domain[i]);
    }
    net_class_[i] = it->second;
    load[it->second] += need;
  }
  class_counters_.assign(load.size() * kClassPlanes, 0);
  class_touched_.assign(load.size(), 0);
  agg_.assign(static_cast<std::size_t>(m.num_domains) + 1, 0);
  lane_rows_.assign(agg_.size() * 64, 0);
}

void SlicedKernel::build_clock_units(int P, int nphases) {
  const EnergyModel& m = sim_.probe_->model();
  const std::size_t D = static_cast<std::size_t>(nphases) + 1;
  clock_units_.assign((static_cast<std::size_t>(P) + 1) * D, 0);
  for (int t = 1; t <= P; ++t) {
    std::int64_t* clock = clock_units_.data() + static_cast<std::size_t>(t) * D;
    const int phase = sim_.phase_by_step_[static_cast<std::size_t>(t)];
    clock[static_cast<std::size_t>(phase)] +=
        m.phase_pulse_units[static_cast<std::size_t>(phase)];
    for (CompId cid : sim_.edge_clock_events_[static_cast<std::size_t>(t)]) {
      clock[m.storage_domain[cid.index()]] +=
          m.storage_clock_units[cid.index()];
    }
  }
}

void SlicedKernel::close_probe_step(int t, std::size_t row) {
  PowerProbe& probe = *sim_.probe_;
  const std::size_t D = agg_.size();
  const std::int64_t* clock =
      clock_units_.data() + static_cast<std::size_t>(t) * D;
  const auto counting = static_cast<std::int64_t>(popcount64(count_mask_));
  // Aggregate over the counting lanes and, when lane steps are only needed
  // for the peak, a bound no lane's step exceeds.
  const bool bounded = time_sliced_ && !probe.per_step();
  std::int64_t bound = 0;
  for (std::size_t d = 0; d < D; ++d) {
    agg_[d] = clock[d] * counting;
    bound += clock[d];
  }
  for (std::uint32_t c : touched_) {
    const std::uint64_t* ctr = class_counters_.data() + c * kClassPlanes;
    const std::int64_t w = class_units_[c];
    agg_[class_domain_[c]] +=
        w * static_cast<std::int64_t>(lanes_total(ctr, kClassPlanes));
    if (bounded) {
      bound += w * static_cast<std::int64_t>(lane_max(ctr, kClassPlanes));
    }
  }
  if (!time_sliced_) {
    // run_sliced(): one probe step, the aggregate of every stream.
    probe.book(agg_.data(), 1);
    probe.close_step(probe.steps() - 1,
                     std::accumulate(agg_.begin(), agg_.end(), std::int64_t{0}),
                     agg_.data(), 1);
  } else {
    probe.book(agg_.data(), static_cast<std::size_t>(counting));
    if (!bounded || bound > probe.peak_units()) close_lane_steps(t, row);
  }
  for (std::uint32_t c : touched_) {
    std::fill_n(class_counters_.data() + c * kClassPlanes, kClassPlanes, 0);
    class_touched_[c] = 0;
  }
  touched_.clear();
}

void SlicedKernel::close_lane_steps(int t, std::size_t row) {
  PowerProbe& probe = *sim_.probe_;
  const std::size_t D = agg_.size();
  const std::int64_t* clock =
      clock_units_.data() + static_cast<std::size_t>(t) * D;
  // Per-domain lane rows only for a kept waveform; otherwise every class
  // and the clock land in row 0, the lanes' whole-design totals.
  const bool by_domain = probe.keeps_waveform();
  const std::size_t rows = by_domain ? D : 1;
  for (std::size_t d = 0; d < rows; ++d) {
    const std::int64_t uniform =
        by_domain ? clock[d]
                  : std::accumulate(clock, clock + D, std::int64_t{0});
    std::fill_n(lane_rows_.data() + d * 64, 64, uniform);
  }
  // Eight classes per transpose: afterwards byte i of buf[s] is lane s's
  // count of the group's i-th class.
  for (std::size_t g = 0; g < touched_.size(); g += 8) {
    const std::size_t group = std::min<std::size_t>(8, touched_.size() - g);
    std::uint64_t buf[64] = {};
    for (std::size_t i = 0; i < group; ++i) {
      std::copy_n(class_counters_.data() + touched_[g + i] * kClassPlanes,
                  kClassPlanes, buf + i * kClassPlanes);
    }
    transpose64(buf);
    for (std::size_t i = 0; i < group; ++i) {
      const std::uint32_t c = touched_[g + i];
      const std::int64_t w = class_units_[c];
      std::int64_t* lane =
          lane_rows_.data() + (by_domain ? class_domain_[c] : 0) * 64;
      for (std::uint64_t m = count_mask_; m != 0; m &= m - 1) {
        const auto s = static_cast<unsigned>(std::countr_zero(m));
        lane[s] += w * static_cast<std::int64_t>(
                           (buf[s] >> (i * kClassPlanes)) & kClassCapacity);
      }
    }
  }
  const auto P = static_cast<std::size_t>(design_.clocks.period());
  for (std::uint64_t m = count_mask_; m != 0; m &= m - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(m));
    std::int64_t total = 0;
    for (std::size_t d = 0; d < rows; ++d) total += lane_rows_[d * 64 + s];
    // Each counting lane's step is one global step of the stream.
    const std::size_t step =
        (lanes_[s].first + row) * P + static_cast<std::size_t>(t - 1);
    probe.close_step(step, total, lane_rows_.data() + s, 64);
  }
}

std::vector<SimResult> SlicedKernel::stream_results() {
  const int P = design_.clocks.period();
  const int nphases = design_.clocks.num_phases();
  std::vector<SimResult> results(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    Activity& act = results[s].activity;
    act.net_toggles.assign(nl_.num_nets(), 0);
    act.storage_clock_events = clock_events_;
    act.storage_write_toggles.assign(nl_.num_components(), 0);
    act.phase_pulses = phase_pulses_;
    act.steps = steps_;
    act.computations = rows_;
    results[s].outputs = std::move(outputs_[s]);
  }
  std::uint64_t lanes[64];
  auto unpack = [&](const std::uint64_t* counter, auto&& sink) {
    std::fill(lanes, lanes + 64, 0);
    std::copy(counter, counter + kCounterPlanes, lanes);
    transpose64(lanes);  // counter planes -> per-lane totals
    for (std::size_t s = 0; s < n_; ++s) sink(s, lanes[s]);
  };
  for (std::size_t i = 0; i < nl_.num_nets(); ++i) {
    unpack(net_counters_.data() + i * kCounterPlanes,
           [&](std::size_t s, std::uint64_t v) {
             results[s].activity.net_toggles[i] = v;
           });
  }
  for (std::size_t i = 0; i < nl_.num_components(); ++i) {
    unpack(storage_counters_.data() + i * kCounterPlanes,
           [&](std::size_t s, std::uint64_t v) {
             results[s].activity.storage_write_toggles[i] = v;
           });
  }
  if (sim_.stream_heatmaps_) {
    auto& hms = *sim_.stream_heatmaps_;
    hms.assign(n_, PhaseHeatmap());
    for (auto& hm : hms) hm.resize(nphases, P);
    for (std::size_t cell = 0; cell < heat_clock_.size(); ++cell) {
      unpack(heat_counters_.data() + cell * kCounterPlanes,
             [&](std::size_t s, std::uint64_t v) {
               hms[s].write_toggles[cell] = v;
             });
      for (std::size_t s = 0; s < n_; ++s) {
        hms[s].clock_events[cell] = heat_clock_[cell];
      }
    }
  }
  if (obs::enabled()) {
    obs::count("sim.sliced.runs");
    obs::count("sim.sliced.streams", n_);
    obs::count("sim.sliced.steps", steps_ * n_);
    obs::count("sim.sliced.plane_evals", plane_evals_);
  }
  return results;
}

SimResult SlicedKernel::combined_result() {
  SimResult result;
  Activity& act = result.activity;
  act.net_toggles.resize(nl_.num_nets());
  for (std::size_t i = 0; i < nl_.num_nets(); ++i) {
    act.net_toggles[i] =
        lanes_total(net_counters_.data() + i * kCounterPlanes, kCounterPlanes);
  }
  act.storage_write_toggles.resize(nl_.num_components());
  for (std::size_t i = 0; i < nl_.num_components(); ++i) {
    act.storage_write_toggles[i] = lanes_total(
        storage_counters_.data() + i * kCounterPlanes, kCounterPlanes);
  }
  act.storage_clock_events = clock_events_;
  act.phase_pulses = phase_pulses_;
  act.steps = steps_;
  for (const auto& l : lanes_) act.computations += l.count;
  result.outputs = std::move(outputs_[0]);
  if (PhaseHeatmap* hm = sim_.heatmap_) {
    hm->resize(design_.clocks.num_phases(), design_.clocks.period());
    for (std::size_t cell = 0; cell < heat_clock_.size(); ++cell) {
      hm->write_toggles[cell] = lanes_total(
          heat_counters_.data() + cell * kCounterPlanes, kCounterPlanes);
      hm->clock_events[cell] = heat_clock_[cell];
    }
  }
  if (obs::enabled()) {
    obs::count("sim.runs");
    obs::count("sim.steps", act.steps);
    obs::count("sim.net_toggles",
               std::accumulate(act.net_toggles.begin(), act.net_toggles.end(),
                               std::uint64_t{0}));
    obs::count("sim.time_sliced.runs");
    obs::count("sim.time_sliced.lane_steps",
               rows_ * n_ * static_cast<std::uint64_t>(design_.clocks.period()));
  }
  return result;
}

namespace {
// (stream << 32 | computation) armed by testing::ScopedSlicedOutputFault.
constexpr std::uint64_t kNoOutputFault = ~std::uint64_t{0};
std::atomic<std::uint64_t> g_output_fault{kNoOutputFault};
}  // namespace

namespace testing {
ScopedSlicedOutputFault::ScopedSlicedOutputFault(std::uint32_t stream,
                                                 std::uint32_t computation)
    : saved_(g_output_fault.exchange(std::uint64_t{stream} << 32 |
                                     computation)) {}
ScopedSlicedOutputFault::~ScopedSlicedOutputFault() {
  g_output_fault.store(saved_);
}
}  // namespace testing

std::vector<SimResult> Simulator::run_sliced(
    const std::vector<InputStream>& streams,
    const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order) {
  obs::Span span("sim.run");
  fault::inject("sim.run");
  MCRTL_CHECK_MSG(mode_ == Mode::BitSliced,
                  "run_sliced() requires a Mode::BitSliced simulator");
  MCRTL_CHECK_MSG(!streams.empty() && streams.size() <= kMaxStreams,
                  "run_sliced() batches 1.." << kMaxStreams << " streams, got "
                                             << streams.size());
  std::vector<SliceLane> lanes;
  for (const auto& s : streams) {
    MCRTL_CHECK_MSG(s.size() == streams[0].size(),
                    "all sliced streams must have equal length");
    lanes.push_back({&s, 0, 0, s.size()});
  }
  SlicedKernel kernel(*this, std::move(lanes), streams[0].size(), false);
  kernel.run(input_order, output_order);
  auto results = kernel.stream_results();
  const std::uint64_t fault = g_output_fault.load(std::memory_order_relaxed);
  if (fault != kNoOutputFault) {
    const std::size_t s = fault >> 32;
    const std::size_t c = fault & 0xFFFFFFFFu;
    if (s < results.size() && c < results[s].outputs.size() &&
        !results[s].outputs[c].empty()) {
      results[s].outputs[c][0] ^= 1;
    }
  }
  return results;
}

SimResult Simulator::run_time_sliced(
    const InputStream& stream, const std::vector<dfg::ValueId>& input_order,
    const std::vector<dfg::ValueId>& output_order, std::size_t limit) {
  // Segments: L lanes over R rows. Lane 0 counts from row 0; every other
  // lane counts R - 1 rows after (at least) one warm-up row, and ends on
  // row R so the last lane's final state is the run's. The capacity
  // L*R - (L-1) overshoots `limit` by less than L, which the first lanes
  // absorb one computation each.
  const std::size_t L = std::min(kMaxStreams, limit);
  const std::size_t R = (limit + 2 * (L - 1)) / L;
  std::vector<std::size_t> count(L, R - 1);
  count[0] = R;
  const std::size_t excess = L * R - (L - 1) - limit;
  for (std::size_t k = 0; k < excess; ++k) --count[k];
  std::vector<SliceLane> lanes(L);
  std::size_t start = 0;
  for (std::size_t k = 0; k < L; ++k) {
    // Right-aligned: any rows before the segment replay the computations
    // just before it (extra warm-up is still exact); a lane whose segment
    // starts too early to fill them starts at computation 0 instead, from
    // the same preamble as the scalar run.
    const std::size_t warm = k == 0 ? 0 : std::min(start, R - count[k]);
    lanes[k] = {&stream, start - warm, warm, count[k]};
    start += count[k];
  }

  // Every lane starts from this simulator's state, as a scalar run would.
  if (plane_offset_.empty()) init_planes();
  const rtl::Netlist& nl = design_->netlist;
  const std::uint64_t lane_mask =
      L == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << L) - 1;
  for (std::size_t i = 0; i < nl.num_nets(); ++i) {
    std::uint64_t* pl = net_planes_.data() + plane_offset_[i];
    const unsigned w = plane_offset_[i + 1] - plane_offset_[i];
    slice_broadcast(net_value_[i], w, pl);
    for (unsigned b = 0; b < w; ++b) pl[b] &= lane_mask;
  }
  SlicedKernel kernel(*this, std::move(lanes), R, true);
  kernel.run(input_order, output_order);
  SimResult result = kernel.combined_result();

  // Adopt the last lane's final state.
  for (std::size_t i = 0; i < nl.num_nets(); ++i) {
    net_value_[i] = slice_extract_lane(net_planes_.data() + plane_offset_[i],
                                       plane_offset_[i + 1] - plane_offset_[i],
                                       static_cast<unsigned>(L - 1));
  }
  for (const auto& c : nl.components()) {
    if (rtl::is_storage(c.kind)) {
      storage_q_[c.id.index()] = net_value_[c.output.index()];
    }
  }
  return result;
}

}  // namespace mcrtl::sim
