// Golden-model execution of a DFG.
//
// The interpreter evaluates the behaviour directly on integer words, giving
// the reference results every synthesized datapath must match. The
// equivalence checker in src/sim compares RTL simulation outputs against
// this model over long random input streams.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dfg/graph.hpp"

namespace mcrtl::dfg {

/// Input binding for one computation: one word per primary input, in the
/// order returned by Graph::inputs().
using InputVector = std::vector<std::uint64_t>;

/// Result of one computation.
struct EvalResult {
  /// Every value in the graph, indexed by ValueId.
  std::vector<std::uint64_t> values;
  /// Primary outputs in Graph::outputs() order.
  std::vector<std::uint64_t> outputs;
};

/// Evaluates computations of one Graph. The constructor compiles the graph
/// once (input and output value indices, constant words, a flat topological
/// node table); every evaluation then runs that table.
class Interpreter {
 public:
  explicit Interpreter(const Graph& g);

  /// Evaluate one full computation.
  EvalResult run(const InputVector& inputs) const;

  /// Golden outputs of a whole stream: one flat, computation-major table
  /// whose element `c * K + o` is output `o` (Graph::outputs() order, K
  /// outputs) of computation `c`. Reuses one value buffer for the whole
  /// stream and counts `sim.golden.computations`.
  std::vector<std::uint64_t> golden_outputs(
      const std::vector<InputVector>& stream) const;

 private:
  /// One operation: operand and result value indices. Unary ops read their
  /// operand as `b` too (eval_op ignores it).
  struct Step {
    Op op;
    std::uint32_t a, b, out;
  };

  /// Bind `inputs` into `values` (constants already loaded) and run the
  /// node table.
  void evaluate(const InputVector& inputs, std::uint64_t* values) const;

  unsigned width_;
  std::size_t num_values_;
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> outputs_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> constants_;
  std::vector<Step> steps_;
};

}  // namespace mcrtl::dfg
