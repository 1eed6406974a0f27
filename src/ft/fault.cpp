#include "ft/fault.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/options.hpp"

namespace cx::ft {

const char* failure_kind_name(FailureKind k) noexcept {
  switch (k) {
    case FailureKind::Crashed:
      return "crashed";
    case FailureKind::Unreachable:
      return "unreachable";
    case FailureKind::Hung:
      return "hung";
  }
  return "unknown";
}

namespace {

/// Parse all of `text` as a T; false on an empty string, garbage, or
/// trailing characters.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && end == last && first != last;
}

}  // namespace

std::vector<ScriptedFault> parse_fault_script(const std::string& spec) {
  std::vector<ScriptedFault> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string ev = spec.substr(pos, end - pos);
    pos = end + 1;
    if (ev.empty()) continue;
    const std::size_t colon = ev.find(':');
    const std::size_t at = ev.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      throw std::invalid_argument(
          "--ft-script: expected kind:pe@time, got \"" + ev + "\"");
    }
    const std::string kind = ev.substr(0, colon);
    ScriptedFault f;
    if (kind == "crash") {
      f.kind = FailureKind::Crashed;
    } else if (kind == "hang") {
      f.kind = FailureKind::Hung;
    } else {
      throw std::invalid_argument("--ft-script: unknown fault kind \"" +
                                  kind + "\" (want crash|hang)");
    }
    if (!parse_whole(ev.substr(colon + 1, at - colon - 1), f.pe) ||
        f.pe < 0) {
      throw std::invalid_argument(
          "--ft-script: PE must be an integer >= 0 in \"" + ev + "\"");
    }
    if (!parse_whole(ev.substr(at + 1), f.at) || !std::isfinite(f.at) ||
        f.at < 0.0) {
      throw std::invalid_argument(
          "--ft-script: time must be a finite number >= 0 in \"" + ev +
          "\"");
    }
    out.push_back(f);
  }
  return out;
}

FaultConfig fault_config_from_options(const cxu::Options& opt) {
  FaultConfig cfg;
  cfg.seed = opt.get_seed("ft-seed", cfg.seed);
  cfg.drop = opt.get_prob("ft-drop", cfg.drop);
  cfg.dup = opt.get_prob("ft-dup", cfg.dup);
  cfg.delay = opt.get_prob("ft-delay", cfg.delay);
  cfg.delay_s = opt.get_double("ft-delay-ms", cfg.delay_s * 1e3) * 1e-3;
  // Injecting faults without reliable delivery hangs most programs (a
  // lost ghost message stalls the stencil forever), so injection turns
  // the protocol on by default; --ft-reliable=0 opts out for ablations.
  cfg.reliable = opt.get_bool("ft-reliable", cfg.injecting());
  cfg.retry.base_s = opt.get_double("ft-rto-ms", cfg.retry.base_s * 1e3) * 1e-3;
  cfg.retry.backoff = opt.get_double("ft-backoff", cfg.retry.backoff);
  cfg.retry.jitter = opt.get_double("ft-jitter", cfg.retry.jitter);
  cfg.retry.max_attempts =
      static_cast<int>(opt.get_int("ft-retries", cfg.retry.max_attempts));
  cfg.retry.deadline_s =
      opt.get_double("ft-retry-deadline-ms", cfg.retry.deadline_s * 1e3) *
      1e-3;
  cfg.heartbeat_s =
      opt.get_double("ft-heartbeat-ms", cfg.heartbeat_s * 1e3) * 1e-3;
  cfg.hb_threshold = opt.get_double("ft-heartbeat-threshold",
                                    cfg.hb_threshold);
  cfg.auto_recover = opt.get_bool("ft-auto-recover", cfg.auto_recover);
  cfg.settle_s = opt.get_double("ft-settle-ms", cfg.settle_s * 1e3) * 1e-3;
  // Retired one-shot knobs. Options ignores unknown flags, so without
  // this an old command line would silently run fault-free.
  for (const char* kind : {"crash", "hang"}) {
    for (const char* part : {"-pe", "-at"}) {
      const std::string flag = std::string("ft-") + kind + part;
      if (opt.has(flag)) {
        throw std::invalid_argument(
            "--" + flag + " was removed: use --ft-script " + kind +
            ":<pe>@<time_s> (e.g. --ft-script " + kind + ":2@5e-5)");
      }
    }
  }
  const std::string script = opt.get_string("ft-script", "");
  if (!script.empty()) cfg.script = parse_fault_script(script);
  return cfg;
}

}  // namespace cx::ft
