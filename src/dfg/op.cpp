#include "dfg/op.hpp"

#include <array>

#include "util/error.hpp"

namespace mcrtl::dfg {

namespace {
constexpr std::array<OpInfo, kNumOps> kOpTable = {{
    {"add", "+", 2, true},
    {"sub", "-", 2, false},
    {"mul", "*", 2, true},
    {"div", "/", 2, false},
    {"mod", "%", 2, false},
    {"and", "&", 2, true},
    {"or", "|", 2, true},
    {"xor", "^", 2, true},
    {"not", "~", 1, false},
    {"neg", "neg", 1, false},
    {"shl", "<<", 2, false},
    {"shr", ">>", 2, false},
    {"lt", "<", 2, false},
    {"gt", ">", 2, false},
    {"le", "<=", 2, false},
    {"ge", ">=", 2, false},
    {"eq", "==", 2, true},
    {"ne", "!=", 2, true},
    {"min", "min", 2, true},
    {"max", "max", 2, true},
    {"pass", "pass", 1, false},
}};
}  // namespace

const OpInfo& op_info(Op op) {
  const auto i = static_cast<unsigned>(op);
  MCRTL_CHECK(i < kNumOps);
  return kOpTable[i];
}

Op parse_op(const std::string& text) {
  for (unsigned i = 0; i < kNumOps; ++i) {
    const auto op = static_cast<Op>(i);
    if (text == op_info(op).name || text == op_info(op).symbol) return op;
  }
  throw Error("unknown operation: '" + text + "'");
}

}  // namespace mcrtl::dfg
