#include "trace/trace_spec.hpp"

#include <charconv>
#include <map>
#include <sstream>

#include "trace/fault_source.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace ppg {

namespace {

// Shortest round-trippable decimal form of a double (to_chars gives the
// minimal representation that parses back to the same value).
std::string format_double(double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  PPG_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw_error(ErrorCode::kBadInput,
              "bad trace spec \"" + spec + "\": " + why);
}

// Parses "name(k1=v1,k2=v2,...)" into (name, {k:v}).
std::map<std::string, std::string> parse_kv(const std::string& spec,
                                            std::string& name) {
  const auto open = spec.find('(');
  if (open == std::string::npos || spec.back() != ')')
    bad_spec(spec, "expected name(key=value,...)");
  name = spec.substr(0, open);
  std::map<std::string, std::string> kv;
  const std::string body = spec.substr(open + 1, spec.size() - open - 2);
  std::istringstream in(body);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      bad_spec(spec, "malformed key=value pair \"" + item + "\"");
    if (!kv.emplace(item.substr(0, eq), item.substr(eq + 1)).second)
      bad_spec(spec, "duplicate key \"" + item.substr(0, eq) + "\"");
  }
  return kv;
}

std::uint64_t get_u64(const std::map<std::string, std::string>& kv,
                      const std::string& key, const std::string& spec) {
  const auto it = kv.find(key);
  if (it == kv.end()) bad_spec(spec, "missing key \"" + key + "\"");
  std::uint64_t value = 0;
  const char* first = it->second.data();
  const char* last = first + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last)
    bad_spec(spec, "key \"" + key + "\" is not an unsigned integer");
  return value;
}

double get_double(const std::map<std::string, std::string>& kv,
                  const std::string& key, const std::string& spec) {
  const auto it = kv.find(key);
  if (it == kv.end()) bad_spec(spec, "missing key \"" + key + "\"");
  double value = 0.0;
  const char* first = it->second.data();
  const char* last = first + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last)
    bad_spec(spec, "key \"" + key + "\" is not a number");
  return value;
}

}  // namespace

std::string workload_trace_spec(WorkloadKind kind,
                                const WorkloadParams& params) {
  std::ostringstream out;
  out << "workload(kind=" << workload_kind_name(kind)
      << ",p=" << params.num_procs << ",k=" << params.cache_size
      << ",n=" << params.requests_per_proc << ",seed=" << params.seed
      << ",s=" << params.miss_cost << ")";
  return out.str();
}

std::string adversarial_trace_spec(const AdversarialParams& params) {
  std::ostringstream out;
  out << "adversarial(ell=" << params.ell << ",a=" << params.a
      << ",alpha=" << format_double(params.alpha)
      << ",spf=" << format_double(params.suffix_phase_factor) << ")";
  return out.str();
}

namespace {

/// "HEAD(BODY)" -> BODY for a matching head, std::nullopt otherwise (the
/// same nesting helper the scheduler factory uses for VALIDATE/INJECT).
std::optional<std::string> unwrap(const std::string& spec,
                                  const std::string& head) {
  if (spec.size() < head.size() + 2 || spec.compare(0, head.size(), head) != 0)
    return std::nullopt;
  if (spec[head.size()] != '(' || spec.back() != ')') return std::nullopt;
  return spec.substr(head.size() + 1, spec.size() - head.size() - 2);
}

}  // namespace

MultiTraceSource make_source_from_trace_spec(const std::string& spec) {
  // Decorator family first: INJECT-TRACE(<class>@<N>,<inner-spec>) wraps
  // every processor source of the inner spec with one deterministic trace
  // fault (trace/fault_source.hpp), mirroring the scheduler INJECT grammar.
  if (const auto body = unwrap(spec, "INJECT-TRACE")) {
    const auto comma = body->find(',');
    if (comma == std::string::npos) {
      bad_spec(spec,
               "INJECT-TRACE needs \"INJECT-TRACE(<fault>@<N>,<spec>)\"");
    }
    const auto fault = parse_trace_fault(body->substr(0, comma));
    if (!fault) {
      bad_spec(spec, "unknown trace fault \"" + body->substr(0, comma) +
                         "\" (want fail|hostile-page|torn-span|stall @N)");
    }
    const MultiTraceSource inner =
        make_source_from_trace_spec(body->substr(comma + 1));
    MultiTraceSource wrapped;
    for (ProcId i = 0; i < inner.num_procs(); ++i)
      wrapped.add(make_fault_injecting_source(inner.source_ptr(i), *fault));
    return wrapped;
  }

  std::string name;
  const auto kv = parse_kv(spec, name);
  if (name == "workload") {
    const auto kind_it = kv.find("kind");
    if (kind_it == kv.end()) bad_spec(spec, "missing key \"kind\"");
    const auto kind = parse_workload_kind(kind_it->second);
    if (!kind)
      bad_spec(spec, "unknown workload kind \"" + kind_it->second + "\"");
    WorkloadParams params;
    params.num_procs = static_cast<ProcId>(get_u64(kv, "p", spec));
    params.cache_size = static_cast<Height>(get_u64(kv, "k", spec));
    params.requests_per_proc =
        static_cast<std::size_t>(get_u64(kv, "n", spec));
    params.seed = get_u64(kv, "seed", spec);
    params.miss_cost = get_u64(kv, "s", spec);
    return make_workload_source(*kind, params);  // kBadInput unless p <= k
  }
  if (name == "adversarial") {
    AdversarialParams params;
    params.ell = static_cast<std::uint32_t>(get_u64(kv, "ell", spec));
    params.a = static_cast<std::uint32_t>(get_u64(kv, "a", spec));
    params.alpha = get_double(kv, "alpha", spec);
    params.suffix_phase_factor = get_double(kv, "spf", spec);
    if (params.ell < 2 || params.a < 1 || params.alpha <= 0.0 ||
        params.suffix_phase_factor <= 0.0)
      bad_spec(spec, "requires ell >= 2, a >= 1, alpha > 0, spf > 0");
    return make_adversarial_source(params).sources;
  }
  bad_spec(spec, "unknown generator family \"" + name + "\"");
}

}  // namespace ppg
