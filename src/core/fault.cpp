#include "core/fault.hpp"

#include <cstdlib>
#include <map>
#include <mutex>

#include "core/serialize.hpp"

namespace naas::core {
namespace {

/// splitmix64: the decision stream. Statistically fine for fault dice and,
/// unlike a seeded Rng, needs no sequencing state — decision k at a site is
/// a pure function of (seed, site, k).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

struct Rule {
  double prob = 0;
  long long max_fires = -1;  ///< -1 = unlimited
  long long skip = 0;        ///< consultations before the rule arms
};

struct Counters {
  long long consulted = 0;
  long long fired = 0;
};

}  // namespace

struct FaultInjector::Impl {
  mutable std::mutex mutex;
  std::uint64_t seed = 1;
  std::map<std::string, Rule> rules;
  std::map<std::string, Counters> counters;
};

FaultInjector::FaultInjector() : impl_(new Impl) {
  if (const char* spec = std::getenv("NAAS_FAULTS")) configure(spec);
}

std::atomic<bool>& FaultInjector::armed_flag() {
  static std::atomic<bool> armed{false};
  return armed;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector* injector = new FaultInjector;
  return *injector;
}

namespace {
/// Forces the singleton (and with it the NAAS_FAULTS read) into existence
/// at process start. Without this, `core::fault()`'s armed() short-circuit
/// would mean a purely env-configured process never constructs the
/// injector — and never arms.
const bool g_env_spec_loaded = (FaultInjector::instance(), true);
}  // namespace

bool FaultInjector::configure(const std::string& spec, std::string* err) {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  // Leaves the injector disarmed rather than half-configured (the lock is
  // already held, so this clears in place instead of calling disarm()).
  const auto fail = [&](const std::string& message) {
    impl_->rules.clear();
    impl_->counters.clear();
    impl_->seed = 1;
    armed_flag().store(false, std::memory_order_relaxed);
    if (err) *err = message;
    return false;
  };
  impl_->rules.clear();
  impl_->counters.clear();
  impl_->seed = 1;

  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      return fail("fault spec item without '=': '" + item + "'");
    const std::string site = item.substr(0, eq);
    std::string value = item.substr(eq + 1);

    Rule rule;
    // Optional decorations, innermost first: +skip then @maxfires. Both
    // must be real nonnegative integers: a typo like "=1@abc" silently
    // becoming "@0" (never fires) would make a fault run vacuously green.
    const auto parse_count = [](const char* text, long long* out) {
      if (*text == '\0') return false;
      long long v = 0;
      for (const char* p = text; *p; ++p) {
        if (*p < '0' || *p > '9') return false;
        v = v * 10 + (*p - '0');
        if (v < 0) return false;  // overflow
      }
      *out = v;
      return true;
    };
    if (const std::size_t plus = value.find('+'); plus != std::string::npos) {
      if (!parse_count(value.c_str() + plus + 1, &rule.skip))
        return fail("bad '+skip' count in '" + item + "'");
      value.resize(plus);
    }
    if (const std::size_t at = value.find('@'); at != std::string::npos) {
      if (!parse_count(value.c_str() + at + 1, &rule.max_fires))
        return fail("bad '@maxfires' count in '" + item + "'");
      value.resize(at);
    }
    char* parse_end = nullptr;
    const double num = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0')
      return fail("unparsable fault value in '" + item + "'");

    if (site == "seed") {
      impl_->seed = static_cast<std::uint64_t>(num);
    } else {
      if (num < 0 || num > 1)
        return fail("fault probability out of [0,1] in '" + item + "'");
      rule.prob = num;
      impl_->rules[site] = rule;
    }
  }
  armed_flag().store(!impl_->rules.empty(), std::memory_order_relaxed);
  if (err) err->clear();
  return true;
}

void FaultInjector::disarm() {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  impl_->rules.clear();
  impl_->counters.clear();
  impl_->seed = 1;
  armed_flag().store(false, std::memory_order_relaxed);
}

bool FaultInjector::should_fire(const std::string& site) {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  Counters& c = impl_->counters[site];
  const long long consultation = c.consulted++;
  const auto it = impl_->rules.find(site);
  if (it == impl_->rules.end()) return false;
  const Rule& rule = it->second;
  if (consultation < rule.skip) return false;
  if (rule.max_fires >= 0 && c.fired >= rule.max_fires) return false;
  const std::uint64_t dice =
      mix64(impl_->seed ^ fnv1a64(site.data(), site.size()) ^
            static_cast<std::uint64_t>(consultation));
  const bool fire = unit_double(dice) < rule.prob;
  if (fire) ++c.fired;
  return fire;
}

long long FaultInjector::fired(const std::string& site) const {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  const auto it = impl_->counters.find(site);
  return it == impl_->counters.end() ? 0 : it->second.fired;
}

long long FaultInjector::consulted(const std::string& site) const {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  const auto it = impl_->counters.find(site);
  return it == impl_->counters.end() ? 0 : it->second.consulted;
}

std::string FaultInjector::summary() const {
  std::lock_guard<std::mutex> lk(impl_->mutex);
  std::string out;
  for (const auto& [site, c] : impl_->counters) {
    if (!out.empty()) out += ", ";
    out += site + ": " + std::to_string(c.fired) + "/" +
           std::to_string(c.consulted);
  }
  return out;
}

}  // namespace naas::core
