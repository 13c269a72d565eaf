#include "lint/yield_model.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>

#include "lint/text.h"

namespace gvfs::lint {
namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Sim primitives that block the calling fiber. A call site passing the
// process handle to one of these names seeds the fixpoint.
const std::set<std::string>& primitive_names() {
  static const std::set<std::string> kNames = {
      "wait",     "delay",        "delay_until", "acquire",
      "transmit", "transmit_ex",  "access",      "call",
      "call_pipelined", "run",    "sleep",       "yield",
      "ScopedPermit"};
  return kNames;
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",    "while", "switch",        "return", "sizeof",
      "catch",  "case",   "do",    "else",          "new",    "delete",
      "throw",  "goto",   "try",   "static_assert", "alignof", "decltype",
      "co_return", "co_await", "default", "using", "typedef", "operator"};
  return kWords;
}

// Leading tokens that introduce a non-function brace.
const std::set<std::string>& type_intro() {
  static const std::set<std::string> kWords = {"class", "struct", "enum",
                                               "union", "namespace"};
  return kWords;
}

struct Pos {
  std::size_t i = 0;  // byte offset into the joined text
  int line = 1;       // 1-based
};

// Joined stripped text plus a byte-offset -> line mapping.
struct Text {
  std::string s;
  std::vector<int> line_of;  // line_of[i] = 1-based line of byte i

  explicit Text(const std::vector<std::string>& lines) {
    int ln = 1;
    for (const std::string& l : lines) {
      for (char c : l) {
        s += c;
        line_of.push_back(ln);
      }
      s += '\n';
      line_of.push_back(ln);
      ++ln;
    }
  }
  [[nodiscard]] int line(std::size_t i) const {
    return i < line_of.size() ? line_of[i] : (line_of.empty() ? 1 : line_of.back());
  }
};

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

std::string first_token(const std::string& s) {
  std::size_t b = 0;
  while (b < s.size() && !ident_char(s[b])) {
    if (s[b] == '[' || s[b] == ']') {
      ++b;  // walk past [[attributes]]
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(s[b])) != 0) {
      ++b;
      continue;
    }
    return "";  // starts with an operator/punct: not a keyword header
  }
  std::size_t e = b;
  while (e < s.size() && ident_char(s[e])) ++e;
  return s.substr(b, e - b);
}

// Find the statement start for the '{' at `brace`: scan backward to the
// nearest ';', '{' or '}' at paren depth 0. An unmatched '(' (depth going
// past its opener) also terminates — that is a lambda argument position.
std::size_t header_start(const std::string& s, std::size_t brace) {
  int depth = 0;
  for (std::size_t i = brace; i-- > 0;) {
    char c = s[i];
    if (c == ')') ++depth;
    if (c == '(') {
      if (depth == 0) return i + 1;  // inside an enclosing call: lambda arg
      --depth;
    }
    if (depth == 0 && (c == ';' || c == '{' || c == '}')) return i + 1;
  }
  return 0;
}

// Skip a balanced <...> group backward from s[i]=='>'. Returns the index of
// the matching '<', or npos if unbalanced / too far.
std::size_t skip_angles_back(const std::string& s, std::size_t i) {
  int depth = 0;
  std::size_t limit = i > 400 ? i - 400 : 0;
  for (std::size_t j = i + 1; j-- > limit;) {
    if (s[j] == '>') ++depth;
    if (s[j] == '<') {
      --depth;
      if (depth == 0) return j;
    }
    if (s[j] == ';' || s[j] == '{' || s[j] == '}') break;
  }
  return std::string::npos;
}

// Skip a balanced <...> group forward from s[i]=='<'. Returns index one past
// the matching '>', or npos.
std::size_t skip_angles_fwd(const std::string& s, std::size_t i) {
  int depth = 0;
  std::size_t limit = std::min(s.size(), i + 400);
  for (std::size_t j = i; j < limit; ++j) {
    if (s[j] == '<') ++depth;
    if (s[j] == '>') {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (s[j] == ';' || s[j] == '{') break;
  }
  return std::string::npos;
}

// Matching ')' for the '(' at `open`, or npos.
std::size_t match_paren(const std::string& s, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < s.size(); ++j) {
    if (s[j] == '(') ++depth;
    if (s[j] == ')') {
      --depth;
      if (depth == 0) return j;
    }
  }
  return std::string::npos;
}

// Does `name` occur as a standalone token in s[b, e)?
bool has_token(const std::string& s, std::size_t b, std::size_t e,
               const std::string& name) {
  std::size_t pos = b;
  while ((pos = s.find(name, pos)) != std::string::npos && pos < e) {
    bool left_ok = pos == 0 || !ident_char(s[pos - 1]);
    std::size_t end = pos + name.size();
    bool right_ok = end >= s.size() || !ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

const std::regex& process_param_re() {
  static const std::regex kRe(R"((?:sim\s*::\s*)?Process\s*&\s*([A-Za-z_]\w*))");
  return kRe;
}

// Names of the data members whose type is a `using X = std::function<..>`
// alias taking a mutable Process&: the stored callbacks (an upload, a
// write-back) that block the caller's fiber behind type erasure.
std::set<std::string> callback_members(const std::vector<std::string>& texts) {
  static const std::regex kAlias(
      R"(\busing\s+([A-Za-z_]\w*)\s*=\s*std\s*::\s*function\s*<([^;]*)>\s*;)");
  static const std::regex kProcessRef(R"((const\s+)?(?:sim\s*::\s*)?\bProcess\s*&)");
  std::set<std::string> aliases;
  for (const std::string& s : texts) {
    for (std::sregex_iterator a(s.begin(), s.end(), kAlias), end; a != end; ++a) {
      const std::string args = (*a)[2].str();
      for (std::sregex_iterator r(args.begin(), args.end(), kProcessRef); r != end; ++r) {
        if (!(*r)[1].matched) aliases.insert((*a)[1].str());
      }
    }
  }
  std::set<std::string> members;
  if (aliases.empty()) return members;
  std::string alt;
  for (const std::string& a : aliases) alt += (alt.empty() ? "" : "|") + a;
  const std::regex kMember(R"(\b(?:)" + alt + R"()\s+([A-Za-z_]\w*)\s*;)");
  for (const std::string& s : texts) {
    for (std::sregex_iterator m(s.begin(), s.end(), kMember), end; m != end; ++m) {
      members.insert((*m)[1].str());
    }
  }
  return members;
}

// Classification of the text introducing a '{'.
struct HeaderInfo {
  enum class Kind { kOther, kFunction, kType } kind = Kind::kOther;
  std::string name;        // function simple name / class name
  std::string qual;        // explicit A::B qualifier on a function name
  std::string process_param;
  int name_line_off = 0;   // byte offset of the name within the full text
};

HeaderInfo classify_header(const std::string& header, std::size_t base) {
  HeaderInfo h;
  std::string t = trim(header);
  if (t.empty()) return h;
  // Offset of `t` within the untrimmed header, so name_line_off lands on the
  // byte the name actually occupies in the full text.
  std::size_t lead = header.find_first_not_of(" \t\n");
  std::string tok = first_token(t);
  if (type_intro().count(tok) != 0) {
    h.kind = HeaderInfo::Kind::kType;
    // class/struct NAME [final] [: bases]
    static const std::regex kType(
        R"(\b(?:class|struct|enum(?:\s+class)?|union|namespace)\s+([A-Za-z_]\w*))");
    std::smatch m;
    if (std::regex_search(t, m, kType)) h.name = m[1].str();
    return h;
  }
  if (keywords().count(tok) != 0) return h;

  // Lambda? Strip leading [[attributes]], then check for a capture list.
  std::string body = t;
  while (body.size() > 1 && body[0] == '[' && body[1] == '[') {
    std::size_t close = body.find("]]");
    if (close == std::string::npos) break;
    body = trim(body.substr(close + 2));
  }
  if (!body.empty() && body[0] == '[') {
    // Lambda. Treat as an anonymous function if it takes a Process& (it runs
    // as its own fiber or is a callback that may block on its own handle).
    std::smatch m;
    if (std::regex_search(body, m, process_param_re())) {
      h.kind = HeaderInfo::Kind::kFunction;
      h.name = "<lambda>";
      h.process_param = m[1].str();
    }
    return h;
  }
  // `= [..](..)` lambda assigned to a variable reaches here with '=' inside.
  // A top-level '=' before the first '(' means this is not a definition.
  std::size_t first_paren = body.find('(');
  if (first_paren == std::string::npos) return h;
  std::size_t eq = body.find('=');
  if (eq != std::string::npos && eq < first_paren) {
    std::smatch m;
    if (body.find('[') != std::string::npos &&
        std::regex_search(body, m, process_param_re())) {
      h.kind = HeaderInfo::Kind::kFunction;
      h.name = "<lambda>";
      h.process_param = m[1].str();
    }
    return h;
  }

  std::size_t close = match_paren(body, first_paren);
  if (close == std::string::npos) return h;

  // Validate the tail after the parameter list: only specifiers, a trailing
  // return type, or a constructor init list may precede the '{'.
  std::string tail = trim(body.substr(close + 1));
  if (!tail.empty() && tail[0] != ':') {
    static const std::regex kTailOk(
        R"(^(\s*(const|noexcept(\s*\([^)]*\))?|override|final|mutable|&&?|->\s*[\w:<>,&*\s]+))*\s*$)");
    if (!std::regex_match(tail, kTailOk)) return h;
  }

  // Name: identifier immediately before the parameter '('; collect a leading
  // A::B qualifier chain (skipping template argument groups).
  std::size_t p = first_paren;
  while (p > 0 && std::isspace(static_cast<unsigned char>(body[p - 1])) != 0) --p;
  std::size_t name_end = p;
  while (p > 0 && ident_char(body[p - 1])) --p;
  if (p == name_end) return h;  // operator overloads etc.: skip
  h.name = body.substr(p, name_end - p);
  if (keywords().count(h.name) != 0 || type_intro().count(h.name) != 0) return h;
  // Reject macro-style all-caps invocations at file scope (TEST(..), GVFS_..)
  // only when they have no parameter types — cheap heuristic: keep them;
  // they become harmless graph nodes.
  std::string qual;
  std::size_t q = p;
  while (q >= 2 && body[q - 1] == ':' && body[q - 2] == ':') {
    q -= 2;
    if (q > 0 && body[q - 1] == '>') {
      std::size_t lt = skip_angles_back(body, q - 1);
      if (lt == std::string::npos) break;
      q = lt;
    }
    std::size_t qe = q;
    while (q > 0 && ident_char(body[q - 1])) --q;
    if (q == qe) break;
    qual = body.substr(q, qe - q) + (qual.empty() ? "" : "::") + qual;
  }
  h.qual = qual;
  h.kind = HeaderInfo::Kind::kFunction;
  h.name_line_off = static_cast<int>(base + lead + (t.size() - body.size()) + p);

  std::string params = body.substr(first_paren, close - first_paren + 1);
  std::smatch m;
  if (std::regex_search(params, m, process_param_re())) {
    h.process_param = m[1].str();
  }
  return h;
}

// Pass 1: recover function definitions (with body line ranges) from one file.
void collect_functions(const std::string& file,
                       const std::vector<std::string>& code_lines,
                       std::vector<FunctionInfo>* out) {
  Text text(code_lines);
  const std::string& s = text.s;

  struct Ctx {
    bool is_function = false;
    int fn_index = -1;           // index into *out
    std::string class_name;      // set for type braces
  };
  std::vector<Ctx> stack;
  std::vector<std::string> class_stack;

  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '{') {
      std::size_t hs = header_start(s, i);
      HeaderInfo h = classify_header(s.substr(hs, i - hs), hs);
      Ctx ctx;
      if (h.kind == HeaderInfo::Kind::kFunction) {
        FunctionInfo fn;
        fn.file = file;
        fn.name = h.name;
        fn.qual_name = !h.qual.empty() ? h.qual + "::" + h.name
                       : (!class_stack.empty() && h.name != "<lambda>"
                              ? class_stack.back() + "::" + h.name
                              : h.name);
        // Anchor on the name, not the statement start: the backward scan for
        // the statement start stops at the previous member's ';', which can
        // sit lines above the signature and would misattribute
        // `// gvfs-yield: yields` annotations between the two.
        fn.header_line = h.name != "<lambda>"
                             ? text.line(static_cast<std::size_t>(h.name_line_off))
                             : text.line(hs);
        fn.body_begin = text.line(i);
        fn.process_param = h.process_param;
        ctx.is_function = true;
        ctx.fn_index = static_cast<int>(out->size());
        out->push_back(std::move(fn));
      } else if (h.kind == HeaderInfo::Kind::kType && !h.name.empty()) {
        ctx.class_name = h.name;
        class_stack.push_back(h.name);
      }
      stack.push_back(ctx);
    } else if (c == '}') {
      if (!stack.empty()) {
        Ctx ctx = stack.back();
        stack.pop_back();
        if (ctx.is_function) (*out)[ctx.fn_index].body_end = text.line(i);
        if (!ctx.class_name.empty()) class_stack.pop_back();
      }
    }
  }
  // Unterminated bodies (truncated input): close at EOF.
  for (FunctionInfo& fn : *out) {
    if (fn.body_end == 0) fn.body_end = text.line(s.size() - 1);
  }
}

// Pass 2: scan one function's body for primitive yields and process-passing
// call sites. `skip` holds nested [begin, end] line ranges (inner lambdas
// with their own Process parameter) excluded from this function's view.
void collect_calls(const Text& text, FunctionInfo* fn,
                   const std::vector<std::pair<int, int>>& skip) {
  if (fn->process_param.empty()) return;
  const std::string& s = text.s;
  const std::string& pname = fn->process_param;

  auto skipped = [&](int line) {
    for (const auto& r : skip) {
      if (line >= r.first && line <= r.second) return true;
    }
    return false;
  };

  std::size_t i = 0;
  // Seek to body start.
  while (i < s.size() && text.line(i) < fn->body_begin) ++i;
  for (; i < s.size() && text.line(i) <= fn->body_end; ++i) {
    if (!ident_char(s[i])) continue;
    std::size_t b = i;
    while (i < s.size() && ident_char(s[i])) ++i;
    std::string tok = s.substr(b, i - b);
    int line = text.line(b);
    if (b > 0 && (ident_char(s[b - 1]) || s[b - 1] == '$')) continue;
    if (skipped(line)) {
      --i;
      continue;
    }

    std::size_t j = i;
    while (j < s.size() && std::isspace(static_cast<unsigned char>(s[j])) != 0) ++j;

    if (tok == pname && j < s.size() && s[j] == '.') {
      // p.wait(..) / p.delay(..) / p.delay_until(..): direct primitives.
      std::size_t mb = j + 1;
      while (mb < s.size() && std::isspace(static_cast<unsigned char>(s[mb])) != 0) ++mb;
      std::size_t me = mb;
      while (me < s.size() && ident_char(s[me])) ++me;
      std::string method = s.substr(mb, me - mb);
      if (method == "wait" || method == "delay" || method == "delay_until") {
        fn->primitive_lines.push_back(line);
      }
      i = b;  // let the method token be scanned normally too
      continue;
    }

    // Candidate call or declaration: identifier [<T..>] (
    std::size_t open = j;
    if (open < s.size() && s[open] == '<') {
      std::size_t past = skip_angles_fwd(s, open);
      if (past == std::string::npos) {
        --i;
        continue;
      }
      open = past;
      while (open < s.size() &&
             std::isspace(static_cast<unsigned char>(s[open])) != 0) {
        ++open;
      }
    }
    if (open >= s.size() || s[open] != '(') {
      --i;
      continue;
    }
    if (keywords().count(tok) != 0) {
      --i;
      continue;
    }

    // Declaration form `Type name(p, ..)`? Then the yield belongs to Type's
    // constructor (e.g. ScopedPermit). Receiver calls `x.name(` / `x->name(`
    // and plain calls keep `tok`.
    std::string callee = tok;
    std::size_t prev = b;
    while (prev > 0 && std::isspace(static_cast<unsigned char>(s[prev - 1])) != 0) --prev;
    if (prev > 0) {
      char pc = s[prev - 1];
      bool arrow = pc == '>' && prev > 1 && s[prev - 2] == '-';
      if (!arrow && (ident_char(pc) || pc == '>' || pc == '&' || pc == '*')) {
        // Preceded by a type-ish token: a declaration. Find the type's last
        // identifier (walk back over &, *, and template args).
        std::size_t q = prev;
        while (q > 0 && (s[q - 1] == '&' || s[q - 1] == '*' ||
                         std::isspace(static_cast<unsigned char>(s[q - 1])) != 0)) {
          --q;
        }
        if (q > 0 && s[q - 1] == '>') {
          std::size_t lt = skip_angles_back(s, q - 1);
          if (lt != std::string::npos) q = lt;
        }
        std::size_t qe = q;
        while (q > 0 && ident_char(s[q - 1])) --q;
        std::string type_tok = s.substr(q, qe - q);
        if (!type_tok.empty() && keywords().count(type_tok) == 0) {
          callee = type_tok;
        }
      }
    }

    std::size_t close = match_paren(s, open);
    if (close == std::string::npos) {
      --i;
      continue;
    }
    if (has_token(s, open + 1, close, pname)) {
      fn->calls.push_back({callee, line});
    }
    --i;
  }
}

}  // namespace

YieldModel YieldModel::build(
    const std::vector<std::pair<std::string, std::string>>& files) {
  YieldModel model;
  static const std::regex kYieldsAnnot(R"(gvfs-yield:\s*yields\b)");
  std::vector<std::string> texts;  // each file's stripped code, joined

  for (const auto& [path, content] : files) {
    std::vector<std::string> code = strip_code(content);
    std::size_t first = model.fns_.size();
    collect_functions(path, code, &model.fns_);

    // Map `// gvfs-yield: yields` annotations (raw lines — comments are
    // stripped from the code view) onto the function containing them, or the
    // one whose header starts on the next line.
    std::vector<std::string> raw = split_lines(content);
    std::vector<int> annot_lines;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (std::regex_search(raw[i], kYieldsAnnot)) {
        annot_lines.push_back(static_cast<int>(i) + 1);
      }
    }
    for (int al : annot_lines) {
      FunctionInfo* best = nullptr;
      for (std::size_t k = first; k < model.fns_.size(); ++k) {
        FunctionInfo& fn = model.fns_[k];
        bool inside = al >= fn.header_line && al <= fn.body_end;
        bool above = fn.header_line == al + 1;
        if (!inside && !above) continue;
        // Innermost containing function wins.
        if (best == nullptr || fn.header_line >= best->header_line) best = &fn;
      }
      if (best != nullptr) best->annotated_yield = true;
    }

    // Call collection, excluding nested Process-taking lambda bodies (those
    // run as their own fibers; their yields are theirs, not their spawner's).
    Text text(code);
    for (std::size_t k = first; k < model.fns_.size(); ++k) {
      FunctionInfo& fn = model.fns_[k];
      std::vector<std::pair<int, int>> skip;
      for (std::size_t n = first; n < model.fns_.size(); ++n) {
        if (n == k) continue;
        const FunctionInfo& inner = model.fns_[n];
        if (inner.body_begin >= fn.body_begin && inner.body_end <= fn.body_end &&
            !inner.process_param.empty()) {
          skip.push_back({inner.body_begin, inner.body_end});
        }
      }
      collect_calls(text, &fn, skip);
    }
    texts.push_back(std::move(text.s));
  }

  // Fixpoint over simple names, seeded with the primitives and the callback
  // members.
  model.yield_names_ = primitive_names();
  model.yield_names_.merge(callback_members(texts));
  bool changed = true;
  while (changed) {
    changed = false;
    for (FunctionInfo& fn : model.fns_) {
      if (fn.may_yield) continue;
      bool yields = fn.annotated_yield || !fn.primitive_lines.empty();
      if (!yields) {
        for (const CallSite& cs : fn.calls) {
          if (model.yield_names_.count(cs.callee) != 0) {
            yields = true;
            break;
          }
        }
      }
      if (yields) {
        fn.may_yield = true;
        if (fn.name != "<lambda>" &&
            model.yield_names_.insert(fn.name).second) {
          changed = true;
        } else {
          changed = true;  // later-listed callers may still depend on order
        }
      }
    }
  }
  return model;
}

bool YieldModel::name_may_yield(const std::string& simple_name) const {
  return yield_names_.count(simple_name) != 0;
}

std::vector<const FunctionInfo*> YieldModel::functions_in(
    const std::string& file) const {
  std::vector<const FunctionInfo*> out;
  for (const FunctionInfo& fn : fns_) {
    if (fn.file == file) out.push_back(&fn);
  }
  return out;
}

std::vector<int> YieldModel::yield_lines(const FunctionInfo& fn) const {
  std::vector<int> out = fn.primitive_lines;
  for (const CallSite& cs : fn.calls) {
    if (yield_names_.count(cs.callee) != 0) out.push_back(cs.line);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> YieldModel::golden_lines() const {
  std::vector<std::string> out;
  for (const FunctionInfo& fn : fns_) {
    if (!fn.may_yield || fn.name == "<lambda>") continue;
    out.push_back(fn.file + ":" + fn.qual_name);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gvfs::lint
