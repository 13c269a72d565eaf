// Interprocedural may-yield model over the repo's own call graph.
//
// The simulator is cooperatively scheduled: a fiber runs uninterrupted until
// it blocks on a sim primitive (Signal::wait via Process::wait/delay,
// Semaphore::acquire, Link::transmit, DiskModel::access, rpc::Channel::call*,
// CpuPool::run). Every such call is a scheduling point where *any* other
// fiber may mutate shared state — the repo's recurring bug class is state
// read before a yield and trusted after it.
//
// This model recovers function definitions from the stripped token stream
// (tools/lint/text.h) and computes the transitive may-yield set by fixpoint:
//
//   seeds:  direct primitive calls that pass the sim::Process& handle
//           (`p.wait(..)`, `sem_.acquire(p)`, `chan->call(p, ..)`, ...),
//           calls through a callback member (a data member whose type is a
//           `using X = std::function<..>` alias taking a mutable
//           `sim::Process&`, e.g. `upload_(p, ..)`), and anything
//           annotated `// gvfs-yield: yields`.
//   edges:  a call site that passes the caller's process parameter to a
//           callee. Yielding requires the Process handle, so propagation is
//           keyed on process-passing calls — spawn-lambda bodies (which run
//           on a different fiber under their own Process&) naturally do not
//           mark their spawner.
//
// Known approximations (see DESIGN.md §5.8): propagation is by simple callee
// name (over-approximate on collisions), and a callee that yields through a
// *stored* process handle rather than a parameter must carry the
// `// gvfs-yield: yields` annotation (under-approximate otherwise).
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gvfs::lint {

struct CallSite {
  std::string callee;  // simple name of the called function
  int line = 0;        // 1-based line of the call
};

// One function (or Process-taking lambda) recovered from a file.
struct FunctionInfo {
  std::string file;       // repo-relative path
  std::string qual_name;  // "Class::name" where recoverable, else "name"
  std::string name;       // simple name ("<lambda>" for anonymous fibers)
  int header_line = 0;    // line where the signature's name appears
  int body_begin = 0;     // line of the opening '{'
  int body_end = 0;       // line of the matching '}'
  std::string process_param;        // sim::Process& parameter name, "" if none
  std::vector<CallSite> calls;      // calls that pass the process handle
  std::vector<int> primitive_lines; // direct p.wait()/p.delay*() sites
  bool annotated_yield = false;     // carries `// gvfs-yield: yields`
  bool may_yield = false;           // result of the fixpoint
};

class YieldModel {
 public:
  // Build from (repo-relative path, raw content) pairs. All files participate
  // in one call graph so yields propagate across directories.
  [[nodiscard]] static YieldModel build(
      const std::vector<std::pair<std::string, std::string>>& files);

  // May any function with this simple name yield?
  [[nodiscard]] bool name_may_yield(const std::string& simple_name) const;

  [[nodiscard]] const std::vector<FunctionInfo>& functions() const {
    return fns_;
  }
  [[nodiscard]] std::vector<const FunctionInfo*> functions_in(
      const std::string& file) const;

  // Sorted 1-based lines within `fn` where control may yield to another
  // fiber.
  [[nodiscard]] std::vector<int> yield_lines(const FunctionInfo& fn) const;

  // Sorted unique "file:qual_name" lines for every may-yield function — the
  // format committed under tools/lint/yield_model_golden.txt.
  [[nodiscard]] std::vector<std::string> golden_lines() const;

 private:
  std::vector<FunctionInfo> fns_;
  std::set<std::string> yield_names_;
};

}  // namespace gvfs::lint
