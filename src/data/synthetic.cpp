#include "data/synthetic.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fedclust::data {

SyntheticSpec dataset_spec(const std::string& name) {
  SyntheticSpec s;
  s.name = name;
  if (name == "cifar10") {
    // Hard 10-way task: colored, diverse prototypes, strong noise.
    s.channels = 3;
    s.hw = 16;
    s.num_classes = 10;
    s.dict_size = 24;
    s.atoms_per_class = 4;
    s.prototypes_per_class = 6;
    s.coeff_jitter = 0.6f;
    s.proto_scale = 1.0f;
    s.noise = 1.0f;
    s.grating_scale = 0.2f;
  } else if (name == "cifar100") {
    // Hardest: many classes with subtle differences. The real CIFAR-100 has
    // 100 classes; 20 keeps tiny per-client datasets statistically
    // meaningful while preserving the "many classes, low accuracy" role
    // (DESIGN.md §1).
    s.channels = 3;
    s.hw = 16;
    s.num_classes = 20;
    s.dict_size = 32;
    s.atoms_per_class = 4;
    s.prototypes_per_class = 6;
    s.coeff_jitter = 0.65f;
    s.proto_scale = 0.9f;
    s.noise = 1.1f;
    s.grating_scale = 0.15f;
  } else if (name == "fmnist") {
    // Easiest: grayscale, crisp prototypes, light noise.
    s.channels = 1;
    s.hw = 16;
    s.num_classes = 10;
    s.dict_size = 16;
    s.atoms_per_class = 3;
    s.prototypes_per_class = 4;
    s.coeff_jitter = 0.5f;
    s.proto_scale = 1.2f;
    s.noise = 0.75f;
    s.grating_scale = 0.3f;
  } else if (name == "svhn") {
    // Medium: colored digits; moderate noise.
    s.channels = 3;
    s.hw = 16;
    s.num_classes = 10;
    s.dict_size = 20;
    s.atoms_per_class = 3;
    s.prototypes_per_class = 5;
    s.coeff_jitter = 0.55f;
    s.proto_scale = 1.1f;
    s.noise = 0.9f;
    s.grating_scale = 0.25f;
  } else {
    throw std::invalid_argument("dataset_spec: unknown dataset " + name);
  }
  return s;
}

std::vector<std::string> benchmark_dataset_names() {
  return {"cifar10", "cifar100", "fmnist", "svhn"};
}

namespace {

// Smooth random field: coarse grid of N(0,1) bilinearly upsampled — one
// dictionary atom.
std::vector<float> smooth_field(std::size_t channels, std::size_t hw,
                                util::Rng& rng) {
  constexpr std::size_t kGrid = 4;
  std::vector<float> grid(channels * kGrid * kGrid);
  for (auto& g : grid) g = rng.normalf(0.0f, 1.0f);
  std::vector<float> img(channels * hw * hw);
  const float step = static_cast<float>(kGrid - 1) /
                     static_cast<float>(hw > 1 ? hw - 1 : 1);
  for (std::size_t c = 0; c < channels; ++c) {
    const float* gplane = grid.data() + c * kGrid * kGrid;
    float* plane = img.data() + c * hw * hw;
    for (std::size_t y = 0; y < hw; ++y) {
      const float fy = static_cast<float>(y) * step;
      const std::size_t y0 =
          std::min<std::size_t>(static_cast<std::size_t>(fy), kGrid - 2);
      const float wy = fy - static_cast<float>(y0);
      for (std::size_t x = 0; x < hw; ++x) {
        const float fx = static_cast<float>(x) * step;
        const std::size_t x0 =
            std::min<std::size_t>(static_cast<std::size_t>(fx), kGrid - 2);
        const float wx = fx - static_cast<float>(x0);
        const float v00 = gplane[y0 * kGrid + x0];
        const float v01 = gplane[y0 * kGrid + x0 + 1];
        const float v10 = gplane[(y0 + 1) * kGrid + x0];
        const float v11 = gplane[(y0 + 1) * kGrid + x0 + 1];
        plane[y * hw + x] = (1 - wy) * ((1 - wx) * v00 + wx * v01) +
                            wy * ((1 - wx) * v10 + wx * v11);
      }
    }
  }
  return img;
}

}  // namespace

SyntheticGenerator::SyntheticGenerator(SyntheticSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  if (spec_.num_classes == 0 || spec_.prototypes_per_class == 0 ||
      spec_.dict_size == 0 || spec_.atoms_per_class == 0) {
    throw std::invalid_argument("SyntheticGenerator: degenerate spec");
  }
  util::Rng root(seed);

  // Shared dictionary.
  dict_.reserve(spec_.dict_size);
  for (std::size_t a = 0; a < spec_.dict_size; ++a) {
    util::Rng rng = root.split(0xD1C70000ULL + a);
    dict_.push_back(smooth_field(spec_.channels, spec_.hw, rng));
  }

  // Per-(class, prototype) sparse coefficient vectors.
  const std::size_t atoms =
      std::min(spec_.atoms_per_class, spec_.dict_size);
  coeffs_.reserve(spec_.num_classes * spec_.prototypes_per_class);
  for (std::size_t c = 0; c < spec_.num_classes; ++c) {
    for (std::size_t p = 0; p < spec_.prototypes_per_class; ++p) {
      util::Rng rng = root.split(0xC0EF0000ULL + c * 1000 + p);
      std::vector<float> coeff(spec_.dict_size, 0.0f);
      for (const std::size_t a :
           rng.sample_without_replacement(spec_.dict_size, atoms)) {
        // Signed, bounded away from zero so every selected atom matters.
        const float sign = rng.uniform() < 0.5 ? -1.0f : 1.0f;
        coeff[a] = sign * static_cast<float>(rng.uniform(0.6, 1.4));
      }
      coeffs_.push_back(std::move(coeff));
    }
  }

  // Class-identity gratings: orientation/frequency determined by the class,
  // shared by all its prototypes.
  const std::size_t hw = spec_.hw;
  gratings_.reserve(spec_.num_classes);
  for (std::size_t cls = 0; cls < spec_.num_classes; ++cls) {
    const double angle = std::numbers::pi * static_cast<double>(cls) /
                         static_cast<double>(spec_.num_classes);
    const double freq = 2.0 * std::numbers::pi *
                        (1.0 + static_cast<double>(cls % 4)) /
                        static_cast<double>(hw);
    const float cs = static_cast<float>(std::cos(angle));
    const float sn = static_cast<float>(std::sin(angle));
    std::vector<float> grating(image_size());
    for (std::size_t c = 0; c < spec_.channels; ++c) {
      const float phase =
          static_cast<float>(c) * 2.0f / static_cast<float>(spec_.channels);
      float* plane = grating.data() + c * hw * hw;
      for (std::size_t y = 0; y < hw; ++y) {
        for (std::size_t x = 0; x < hw; ++x) {
          const float t =
              cs * static_cast<float>(x) + sn * static_cast<float>(y);
          plane[y * hw + x] =
              spec_.grating_scale *
              std::sin(static_cast<float>(freq) * t + phase);
        }
      }
    }
    gratings_.push_back(std::move(grating));
  }
}

std::vector<float> SyntheticGenerator::render(
    std::int64_t cls, const std::vector<float>& coeffs) const {
  const std::size_t n = image_size();
  std::vector<float> img(n, 0.0f);
  for (std::size_t a = 0; a < spec_.dict_size; ++a) {
    const float w = coeffs[a] * spec_.proto_scale;
    if (w == 0.0f) continue;
    const auto& atom = dict_[a];
    for (std::size_t i = 0; i < n; ++i) img[i] += w * atom[i];
  }

  const std::vector<float>& grating =
      gratings_[static_cast<std::size_t>(cls)];
  for (std::size_t i = 0; i < n; ++i) img[i] += grating[i];
  return img;
}

std::vector<float> SyntheticGenerator::sample(std::int64_t cls,
                                              util::Rng& rng) const {
  if (cls < 0 || static_cast<std::size_t>(cls) >= spec_.num_classes) {
    throw std::invalid_argument("SyntheticGenerator::sample: bad class");
  }
  const std::size_t which =
      spec_.prototypes_per_class == 1
          ? 0
          : static_cast<std::size_t>(rng.randint(
                0,
                static_cast<std::int64_t>(spec_.prototypes_per_class)));
  // Jitter the coefficients: intra-class variation expressed in the shared
  // feature space, not just as pixel noise.
  std::vector<float> coeff =
      coeffs_[static_cast<std::size_t>(cls) * spec_.prototypes_per_class +
              which];
  for (auto& w : coeff) {
    if (w != 0.0f) w += rng.normalf(0.0f, spec_.coeff_jitter);
  }
  std::vector<float> img = render(cls, coeff);
  for (auto& v : img) v += rng.normalf(0.0f, spec_.noise);
  return img;
}

std::vector<float> SyntheticGenerator::prototype(std::int64_t cls,
                                                 std::size_t which) const {
  return render(cls,
                coeffs_.at(static_cast<std::size_t>(cls) *
                               spec_.prototypes_per_class +
                           which));
}

}  // namespace fedclust::data
