#include "netlist/bench_io.hpp"

#include "netlist/expand.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace deepseq {

namespace {

struct PendingGate {
  NodeId id = kNullNode;  // kNullNode for n-ary gates expanded after pass 1
  std::string lhs;
  GateType type = GateType::kConst0;
  std::vector<std::string> fanin_names;
  int line = 0;
};

}  // namespace

Circuit parse_bench(std::istream& in, std::string circuit_name) {
  Circuit c(std::move(circuit_name));
  std::unordered_map<std::string, NodeId> by_name;
  std::vector<std::pair<std::string, int>> output_names;  // name, line
  std::vector<PendingGate> pending;

  auto define = [&](const std::string& name, NodeId id, int line) {
    auto [it, inserted] = by_name.emplace(name, id);
    (void)it;
    if (!inserted) throw ParseError("signal redefined: " + name, line);
  };

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line[0] == '#') continue;

    const auto lower = to_lower(line);
    if (starts_with(lower, "input(") || starts_with(lower, "output(")) {
      const auto open = line.find('(');
      const auto close = line.rfind(')');
      if (close == std::string_view::npos || close <= open)
        throw ParseError("malformed I/O declaration", line_no);
      const std::string sig(trim(line.substr(open + 1, close - open - 1)));
      if (sig.empty()) throw ParseError("empty signal name", line_no);
      if (starts_with(lower, "input(")) {
        define(sig, c.add_pi(sig), line_no);
      } else {
        output_names.emplace_back(sig, line_no);
      }
      continue;
    }

    // "lhs = GATE(a, b, ...)"
    const auto eq = line.find('=');
    if (eq == std::string_view::npos)
      throw ParseError("expected assignment: " + std::string(line), line_no);
    PendingGate pg;
    pg.lhs = std::string(trim(line.substr(0, eq)));
    pg.line = line_no;
    std::string_view rhs = trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close <= open)
      throw ParseError("malformed gate expression: " + std::string(rhs),
                       line_no);
    pg.type = parse_gate_type(trim(rhs.substr(0, open)));
    const auto args = rhs.substr(open + 1, close - open - 1);
    if (!trim(args).empty()) {
      for (const auto& f : split(args, ',')) {
        const auto t = trim(f);
        if (t.empty()) throw ParseError("empty fanin name", line_no);
        pg.fanin_names.emplace_back(t);
      }
    }

    if (pg.type == GateType::kFf) {
      if (pg.fanin_names.size() != 1)
        throw ParseError("DFF takes exactly one input", line_no);
      pg.id = c.add_ff(kNullNode, pg.lhs);
    } else if (pg.type == GateType::kConst0) {
      if (!pg.fanin_names.empty())
        throw ParseError("CONST0 takes no inputs", line_no);
      pg.id = c.add_const0(pg.lhs);
    } else if (pg.type == GateType::kPi) {
      throw ParseError("INPUT must be declared as INPUT(name)", line_no);
    } else {
      const int arity = gate_arity(pg.type);
      const bool nary_ok =
          pg.type == GateType::kAnd || pg.type == GateType::kOr ||
          pg.type == GateType::kNand || pg.type == GateType::kNor;
      const auto n = static_cast<int>(pg.fanin_names.size());
      if (n != arity && !(nary_ok && n > 2))
        throw ParseError(
            "wrong fanin count for " + std::string(gate_type_name(pg.type)),
            line_no);
      if (n == arity) {
        pg.id = c.add_gate(pg.type, std::vector<NodeId>(n, kNullNode), pg.lhs);
      }
      // else: n-ary gate, expanded after all names are known (pg.id stays
      // kNullNode).
    }
    if (pg.id != kNullNode) define(pg.lhs, pg.id, line_no);
    pending.push_back(std::move(pg));
  }

  auto resolve = [&](const std::string& name, int line) -> NodeId {
    auto it = by_name.find(name);
    if (it == by_name.end()) throw ParseError("undefined signal: " + name, line);
    return it->second;
  };

  // N-ary expansions must run before fanin patching so their lhs names
  // exist. An n-ary gate may feed another n-ary gate defined earlier in the
  // file, so expand to a fixpoint; progress is guaranteed because
  // combinational cycles are invalid (feedback passes through DFFs, which
  // are already defined).
  std::vector<PendingGate*> todo;
  for (auto& pg : pending)
    if (pg.id == kNullNode) todo.push_back(&pg);
  while (!todo.empty()) {
    std::vector<PendingGate*> stuck;
    for (PendingGate* pg : todo) {
      bool ready = true;
      for (const auto& f : pg->fanin_names)
        if (by_name.find(f) == by_name.end()) ready = false;
      if (!ready) {
        stuck.push_back(pg);
        continue;
      }
      std::vector<NodeId> leaves;
      leaves.reserve(pg->fanin_names.size());
      for (const auto& f : pg->fanin_names) leaves.push_back(resolve(f, pg->line));
      define(pg->lhs, build_gate_tree(c, pg->type, std::move(leaves), pg->lhs),
             pg->line);
    }
    if (stuck.size() == todo.size())
      throw ParseError("undefined signal: " + stuck.front()->fanin_names.front(),
                       stuck.front()->line);
    todo = std::move(stuck);
  }
  for (const auto& pg : pending) {
    if (pg.id == kNullNode) continue;
    for (std::size_t i = 0; i < pg.fanin_names.size(); ++i)
      c.set_fanin(pg.id, static_cast<int>(i), resolve(pg.fanin_names[i], pg.line));
  }

  for (const auto& [name, line] : output_names)
    c.add_po(resolve(name, line), name);

  c.validate();
  return c;
}

Circuit parse_bench_string(const std::string& text, std::string circuit_name) {
  std::istringstream in(text);
  return parse_bench(in, std::move(circuit_name));
}

Circuit parse_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  const auto slash = path.find_last_of('/');
  std::string base = (slash == std::string::npos) ? path : path.substr(slash + 1);
  return parse_bench(in, std::move(base));
}

std::vector<std::string> unique_node_names(const Circuit& c) {
  std::vector<std::string> names(c.num_nodes());
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    names[v] = c.node_name(v);
    if (names[v].empty()) names[v] = "n" + std::to_string(v);
  }
  // Every base name is taken up front, so a generated "<base>_<k>" can
  // never claim a name some later node carries itself.
  std::unordered_set<std::string> taken(names.begin(), names.end());
  std::unordered_map<std::string, int> suffix;  // base -> last k drawn
  for (std::string& n : names) {
    auto [it, first] = suffix.emplace(n, 0);
    if (first) continue;  // the first node with a base keeps it
    std::string drawn;
    do {
      drawn = n + "_" + std::to_string(++it->second);
    } while (!taken.insert(drawn).second);
    n = std::move(drawn);
  }
  return names;
}

void write_bench(const Circuit& c, std::ostream& out) {
  const auto names = unique_node_names(c);
  out << "# " << c.name() << "\n";
  for (NodeId pi : c.pis()) out << "INPUT(" << names[pi] << ")\n";
  for (NodeId po : c.pos()) out << "OUTPUT(" << names[po] << ")\n";
  for (NodeId v = 0; v < c.num_nodes(); ++v) {
    const GateType t = c.type(v);
    if (t == GateType::kPi) continue;
    out << names[v] << " = " << gate_type_name(t) << "(";
    for (int i = 0; i < c.num_fanins(v); ++i) {
      if (i > 0) out << ", ";
      out << names[c.fanin(v, i)];
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Circuit& c) {
  std::ostringstream out;
  write_bench(c, out);
  return out.str();
}

void write_bench_file(const Circuit& c, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open file for writing: " + path);
  write_bench(c, out);
}

}  // namespace deepseq
