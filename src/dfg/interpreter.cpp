#include "dfg/interpreter.hpp"

#include "obs/obs.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace mcrtl::dfg {

namespace {
std::uint32_t index32(std::size_t i) {
  MCRTL_CHECK(i <= UINT32_MAX);
  return static_cast<std::uint32_t>(i);
}
}  // namespace

Interpreter::Interpreter(const Graph& g)
    : width_(g.width()), num_values_(g.num_values()) {
  for (ValueId v : g.inputs()) inputs_.push_back(index32(v.index()));
  for (ValueId v : g.outputs()) outputs_.push_back(index32(v.index()));
  for (const auto& v : g.values()) {
    if (v.kind == ValueKind::Constant) {
      constants_.emplace_back(index32(v.id.index()),
                              from_signed(v.const_value, width_));
    }
  }
  for (NodeId nid : g.topo_order()) {
    const Node& n = g.node(nid);
    const std::uint32_t a = index32(n.inputs[0].index());
    const std::uint32_t b =
        n.inputs.size() > 1 ? index32(n.inputs[1].index()) : a;
    steps_.push_back({n.op, a, b, index32(n.output.index())});
  }
}

void Interpreter::evaluate(const InputVector& inputs,
                           std::uint64_t* values) const {
  MCRTL_CHECK_MSG(inputs.size() == inputs_.size(),
                  "expected " << inputs_.size() << " inputs, got "
                              << inputs.size());
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    values[inputs_[i]] = truncate(inputs[i], width_);
  }
  for (const Step& s : steps_) {
    values[s.out] = eval_op(s.op, values[s.a], values[s.b], width_);
  }
}

EvalResult Interpreter::run(const InputVector& inputs) const {
  EvalResult r;
  r.values.assign(num_values_, 0);
  for (const auto& [v, word] : constants_) r.values[v] = word;
  evaluate(inputs, r.values.data());
  r.outputs.reserve(outputs_.size());
  for (std::uint32_t v : outputs_) r.outputs.push_back(r.values[v]);
  return r;
}

std::vector<std::uint64_t> Interpreter::golden_outputs(
    const std::vector<InputVector>& stream) const {
  obs::Span span("sim.golden");
  obs::count("sim.golden.computations", stream.size());
  std::vector<std::uint64_t> values(num_values_, 0);
  for (const auto& [v, word] : constants_) values[v] = word;
  std::vector<std::uint64_t> table;
  table.reserve(stream.size() * outputs_.size());
  for (const auto& in : stream) {
    evaluate(in, values.data());
    for (std::uint32_t v : outputs_) table.push_back(values[v]);
  }
  return table;
}

}  // namespace mcrtl::dfg
