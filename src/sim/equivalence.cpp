#include "sim/equivalence.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace mcrtl::sim {

namespace {

EquivalenceReport compare(const dfg::Graph& graph,
                          const std::vector<std::uint64_t>& golden,
                          const std::vector<OutputSample>& outputs,
                          const std::string& style_name) {
  EquivalenceReport rep;
  const auto& out_order = graph.outputs();
  const std::size_t n_out = out_order.size();
  MCRTL_CHECK(golden.size() == outputs.size() * n_out);
  for (std::size_t c = 0; c < outputs.size(); ++c) {
    const std::uint64_t* gold = golden.data() + c * n_out;
    const auto& rtl_out = outputs[c];
    MCRTL_CHECK(rtl_out.size() == n_out);
    for (std::size_t o = 0; o < n_out; ++o) {
      if (gold[o] != rtl_out[o]) {
        rep.equivalent = false;
        rep.first_mismatch = c;
        rep.detail = str_format(
            "computation %zu, output '%s': golden=%llu rtl=%llu (style '%s')", c,
            graph.value(out_order[o]).name.c_str(),
            static_cast<unsigned long long>(gold[o]),
            static_cast<unsigned long long>(rtl_out[o]),
            style_name.c_str());
        rep.computations_checked = c + 1;
        return rep;
      }
    }
  }
  rep.computations_checked = outputs.size();
  return rep;
}

}  // namespace

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const InputStream& stream,
                                const std::vector<OutputSample>& outputs,
                                const std::string& style_name) {
  obs::Span span("sim.equivalence");
  MCRTL_CHECK(outputs.size() == stream.size());
  return compare(graph, dfg::Interpreter(graph).golden_outputs(stream),
                 outputs, style_name);
}

EquivalenceReport check_outputs(const dfg::Graph& graph,
                                const std::vector<std::uint64_t>& golden,
                                const std::vector<OutputSample>& outputs,
                                const std::string& style_name) {
  obs::Span span("sim.equivalence");
  return compare(graph, golden, outputs, style_name);
}

EquivalenceReport check_equivalence(const rtl::Design& design,
                                    const dfg::Graph& graph,
                                    const InputStream& stream) {
  Simulator simulator(design);
  const SimResult sim =
      simulator.run(stream, graph.inputs(), graph.outputs());
  return check_outputs(graph, stream, sim.outputs, design.style_name);
}

}  // namespace mcrtl::sim
