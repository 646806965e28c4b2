// Functional equivalence checking: synthesized RTL vs. the DFG golden model.
//
// Every design style (conventional, gated, 1/2/3-clock) must compute exactly
// the behaviour of the source DFG; the clock-management machinery is only
// allowed to change *when* things switch, never *what* is computed. The
// checker simulates the design over an input stream and compares every
// computation's sampled outputs against the interpreter.
//
// Two entry points: check_equivalence() simulates and compares in one call;
// check_outputs() compares *already sampled* outputs, so a caller that needs
// the simulation's Activity anyway (the explorer's power estimate) can run
// the RTL simulation once and feed both the checker and the power model
// from the same SimResult. The golden outputs depend only on (graph,
// stream), so a caller checking many designs against one stream computes
// them once (dfg::Interpreter::golden_outputs) and passes the table.
#pragma once

#include <string>

#include "dfg/interpreter.hpp"
#include "sim/simulator.hpp"

namespace mcrtl::sim {

struct EquivalenceReport {
  bool equivalent = true;
  std::size_t computations_checked = 0;
  std::size_t first_mismatch = 0;   ///< computation index (valid if !equivalent)
  std::string detail;               ///< human-readable mismatch description
};

/// Compare sampled RTL outputs (one OutputSample per computation of
/// `stream`, in Graph::outputs() order — exactly SimResult::outputs) against
/// the interpreter of `graph`. `style_name` only labels the mismatch
/// message. This is the single-simulation path: the caller keeps the
/// SimResult and its Activity.
EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const InputStream& stream,
                                const std::vector<OutputSample>& outputs,
                                const std::string& style_name);

/// As above, against `golden` = dfg::Interpreter(graph).golden_outputs(stream)
/// precomputed for the stream that produced `outputs`. Returns exactly the
/// report the stream overload returns.
EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const std::vector<std::uint64_t>& golden,
                                const std::vector<OutputSample>& outputs,
                                const std::string& style_name);

/// Simulate `design` over `stream` and compare against the interpreter of
/// `graph`. The design must have been synthesized from (a schedule of)
/// `graph`.
EquivalenceReport check_equivalence(const rtl::Design& design,
                                    const dfg::Graph& graph,
                                    const InputStream& stream);

}  // namespace mcrtl::sim
