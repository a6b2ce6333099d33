#include "fl/fault.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/journal.h"

namespace fedclust::fl {

namespace {

// Stream salts for the engine's private RNG streams. Decisions and
// corruption payloads use different salts so one cannot perturb the other.
constexpr std::uint64_t kDecisionSalt = 0xFA017DEC00000000ULL;
constexpr std::uint64_t kCorruptSalt = 0xFA017C0B00000000ULL;
constexpr std::uint64_t kClientStride = 1000003ULL;  // prime, as train_rng

void check_prob(const char* field, double v) {
  if (!(v >= 0.0) || v >= 1.0) {
    throw std::invalid_argument(std::string("FaultPlan.") + field +
                                " must be in [0, 1), got " +
                                std::to_string(v));
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("FaultPlan: bad value '" + value +
                                "' for key '" + key + "'");
  }
}

}  // namespace

bool FaultPlan::active() const {
  return enabled || pre_round_dropout > 0.0 || post_train_crash > 0.0 ||
         straggler_prob > 0.0 || transient_comm_prob > 0.0 ||
         corrupt_prob > 0.0;
}

void FaultPlan::validate() const {
  check_prob("pre_round_dropout", pre_round_dropout);
  check_prob("post_train_crash", post_train_crash);
  check_prob("straggler_prob", straggler_prob);
  check_prob("transient_comm_prob", transient_comm_prob);
  check_prob("corrupt_prob", corrupt_prob);
  if (!(straggler_delay >= 1.0)) {
    throw std::invalid_argument(
        "FaultPlan.straggler_delay must be >= 1, got " +
        std::to_string(straggler_delay));
  }
  if (!(explode_factor > 0.0) || !std::isfinite(explode_factor)) {
    throw std::invalid_argument(
        "FaultPlan.explode_factor must be finite and > 0, got " +
        std::to_string(explode_factor));
  }
  if (!(round_deadline >= 0.0)) {
    throw std::invalid_argument(
        "FaultPlan.round_deadline must be >= 0, got " +
        std::to_string(round_deadline));
  }
  if (!(over_select_fraction >= 0.0)) {
    throw std::invalid_argument(
        "FaultPlan.over_select_fraction must be >= 0, got " +
        std::to_string(over_select_fraction));
  }
  if (!(max_update_norm >= 0.0)) {
    throw std::invalid_argument(
        "FaultPlan.max_update_norm must be >= 0, got " +
        std::to_string(max_update_norm));
  }
  if (!(backoff_base > 0.0) || !std::isfinite(backoff_base)) {
    throw std::invalid_argument(
        "FaultPlan.backoff_base must be finite and > 0, got " +
        std::to_string(backoff_base));
  }
  if (!(backoff_mult >= 1.0) || !std::isfinite(backoff_mult)) {
    throw std::invalid_argument(
        "FaultPlan.backoff_mult must be finite and >= 1, got " +
        std::to_string(backoff_mult));
  }
  if (corrupt_mode != "nan" && corrupt_mode != "inf" &&
      corrupt_mode != "explode" && corrupt_mode != "bitflip" &&
      corrupt_mode != "mix") {
    throw std::invalid_argument(
        "FaultPlan.corrupt_mode must be nan|inf|explode|bitflip|mix, got " +
        corrupt_mode);
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;  // disabled
  plan.enabled = true;

  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "dropout" || key == "pre_dropout") {
      plan.pre_round_dropout = parse_double(key, value);
    } else if (key == "crash") {
      plan.post_train_crash = parse_double(key, value);
    } else if (key == "straggle") {
      plan.straggler_prob = parse_double(key, value);
    } else if (key == "delay") {
      plan.straggler_delay = parse_double(key, value);
    } else if (key == "comm") {
      plan.transient_comm_prob = parse_double(key, value);
    } else if (key == "corrupt") {
      plan.corrupt_prob = parse_double(key, value);
    } else if (key == "corrupt_mode") {
      plan.corrupt_mode = value;
    } else if (key == "explode") {
      plan.explode_factor = parse_double(key, value);
    } else if (key == "deadline") {
      plan.round_deadline = parse_double(key, value);
    } else if (key == "retries") {
      const double v = parse_double(key, value);
      if (v < 0.0 || v != std::floor(v)) {
        throw std::invalid_argument(
            "FaultPlan.max_retries must be a non-negative integer, got " +
            value);
      }
      plan.max_retries = static_cast<std::size_t>(v);
    } else if (key == "backoff_base") {
      plan.backoff_base = parse_double(key, value);
    } else if (key == "backoff_mult") {
      plan.backoff_mult = parse_double(key, value);
    } else if (key == "over_select") {
      plan.over_select_fraction = parse_double(key, value);
    } else if (key == "max_norm") {
      plan.max_update_norm = parse_double(key, value);
    } else if (key == "only") {
      std::stringstream ids(value);
      std::string id;
      while (std::getline(ids, id, ':')) {
        if (id.empty()) continue;
        plan.only_clients.push_back(
            static_cast<std::size_t>(parse_double(key, id)));
      }
      std::sort(plan.only_clients.begin(), plan.only_clients.end());
    } else {
      throw std::invalid_argument(
          "FaultPlan: unknown key '" + key +
          "' (valid: dropout, crash, straggle, delay, comm, corrupt, "
          "corrupt_mode, explode, deadline, retries, backoff_base, "
          "backoff_mult, over_select, max_norm, only)");
    }
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  const auto field = [&](const char* key, double v, double def) {
    if (v != def) os << (os.tellp() > 0 ? " " : "") << key << "=" << v;
  };
  field("dropout", pre_round_dropout, 0.0);
  field("crash", post_train_crash, 0.0);
  field("straggle", straggler_prob, 0.0);
  field("delay", straggler_delay, 3.0);
  field("comm", transient_comm_prob, 0.0);
  field("corrupt", corrupt_prob, 0.0);
  if (corrupt_mode != "mix") {
    os << (os.tellp() > 0 ? " " : "") << "corrupt_mode=" << corrupt_mode;
  }
  field("deadline", round_deadline, 0.0);
  field("retries", static_cast<double>(max_retries), 2.0);
  field("backoff_base", backoff_base, 0.25);
  field("backoff_mult", backoff_mult, 2.0);
  field("over_select", over_select_fraction, 0.0);
  field("max_norm", max_update_norm, 0.0);
  if (!only_clients.empty()) {
    os << (os.tellp() > 0 ? " " : "") << "only=";
    for (std::size_t i = 0; i < only_clients.size(); ++i) {
      os << (i ? ":" : "") << only_clients[i];
    }
  }
  if (os.tellp() == 0) return enabled ? "enabled (all-zero plan)" : "off";
  return os.str();
}

FaultEngine::FaultEngine(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {
  plan_.validate();
}

bool FaultEngine::applies_to(std::size_t client) const {
  if (plan_.only_clients.empty()) return true;
  return std::binary_search(plan_.only_clients.begin(),
                            plan_.only_clients.end(), client);
}

FaultDecision FaultEngine::decide(std::size_t client,
                                  std::size_t round) const {
  FaultDecision d;
  if (!active() || !applies_to(client)) return d;
  // One private stream per (client, round); every probability is resolved
  // in a fixed order so adding a consumer cannot reshuffle earlier draws.
  util::Rng rng = util::Rng(seed_).split(kDecisionSalt +
                                         client * kClientStride + round);
  d.drop_pre_round = rng.uniform() < plan_.pre_round_dropout;
  d.crash_post_train = rng.uniform() < plan_.post_train_crash;
  if (rng.uniform() < plan_.straggler_prob) {
    d.straggler = true;
    d.delay_factor = plan_.straggler_delay <= 1.0
                         ? 1.0
                         : rng.uniform(1.0, plan_.straggler_delay);
  }
  if (rng.uniform() < plan_.corrupt_prob) {
    if (plan_.corrupt_mode == "nan") {
      d.corrupt = CorruptionKind::kNan;
    } else if (plan_.corrupt_mode == "inf") {
      d.corrupt = CorruptionKind::kInf;
    } else if (plan_.corrupt_mode == "explode") {
      d.corrupt = CorruptionKind::kExplode;
    } else if (plan_.corrupt_mode == "bitflip") {
      d.corrupt = CorruptionKind::kBitFlip;
    } else {  // mix
      static constexpr CorruptionKind kinds[] = {
          CorruptionKind::kNan, CorruptionKind::kInf,
          CorruptionKind::kExplode, CorruptionKind::kBitFlip};
      d.corrupt = kinds[rng.randint(0, 4)];
    }
  }
  if (plan_.transient_comm_prob > 0.0) {
    const std::size_t cap = plan_.max_retries + 1;
    while (d.transient_failures < cap &&
           rng.uniform() < plan_.transient_comm_prob) {
      ++d.transient_failures;
    }
  }
  return d;
}

void FaultEngine::corrupt_update(std::vector<float>& params,
                                 std::size_t client, std::size_t round,
                                 CorruptionKind kind) const {
  if (kind == CorruptionKind::kNone || params.empty()) return;
  OBS_JOURNAL(round, client, kCorrupt, static_cast<std::uint64_t>(kind));
  util::Rng rng = util::Rng(seed_).split(kCorruptSalt +
                                         client * kClientStride + round);
  const auto n = static_cast<std::int64_t>(params.size());
  switch (kind) {
    case CorruptionKind::kNan:
      for (int i = 0; i < 8; ++i) {
        params[static_cast<std::size_t>(rng.randint(0, n))] =
            std::numeric_limits<float>::quiet_NaN();
      }
      break;
    case CorruptionKind::kInf:
      for (int i = 0; i < 8; ++i) {
        params[static_cast<std::size_t>(rng.randint(0, n))] =
            (i % 2 == 0) ? std::numeric_limits<float>::infinity()
                         : -std::numeric_limits<float>::infinity();
      }
      break;
    case CorruptionKind::kExplode: {
      const auto f = static_cast<float>(plan_.explode_factor);
      for (float& v : params) v *= f;
      break;
    }
    case CorruptionKind::kBitFlip:
      for (int i = 0; i < 3; ++i) {
        float& v = params[static_cast<std::size_t>(rng.randint(0, n))];
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        bits ^= 1u << static_cast<std::uint32_t>(rng.randint(0, 31));
        std::memcpy(&v, &bits, sizeof(bits));
      }
      break;
    case CorruptionKind::kNone:
      break;
  }
}

void FaultEngine::corrupt_wire(std::vector<std::uint8_t>& bytes,
                               std::size_t client, std::size_t round) const {
  if (bytes.empty()) return;
  OBS_JOURNAL(round, client, kCorrupt,
              static_cast<std::uint64_t>(CorruptionKind::kBitFlip));
  util::Rng rng = util::Rng(seed_).split(kCorruptSalt +
                                         client * kClientStride + round);
  const auto n = static_cast<std::int64_t>(bytes.size());
  for (int i = 0; i < 3; ++i) {
    std::uint8_t& b = bytes[static_cast<std::size_t>(rng.randint(0, n))];
    b = static_cast<std::uint8_t>(
        b ^ (1u << static_cast<std::uint32_t>(rng.randint(0, 8))));
  }
}

const char* UpdateValidator::check(const std::vector<float>& params) const {
  // A float is non-finite iff its exponent bits are all ones, and adding one
  // exponent LSB to those bits carries into bit 31 exactly then. Branch-free,
  // so it vectorizes.
  std::uint32_t flags = 0;
  for (const float v : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    flags |= (bits & 0x7f800000u) + 0x00800000u;
  }
  if ((flags & 0x80000000u) != 0) return "non_finite";
  if (!(max_norm_ > 0.0)) return nullptr;
  double sumsq = 0.0;
  for (const float v : params) sumsq += static_cast<double>(v) * v;
  if (std::sqrt(sumsq) > max_norm_) return "norm_bound";
  return nullptr;
}

}  // namespace fedclust::fl
