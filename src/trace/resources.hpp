// Multi-resource vectors (CPU, MEM, storage) — the `l = 3` resource types of
// Table II — with the arithmetic the packing/matching algorithms need.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string_view>

namespace corp::trace {

/// Resource types considered by the paper (Table II: l = 3).
enum class ResourceKind : std::size_t { kCpu = 0, kMemory = 1, kStorage = 2 };

inline constexpr std::size_t kNumResources = 3;

std::string_view resource_name(ResourceKind kind);

/// A value per resource type. Units are normalized machine shares for CPU
/// and MEM (1.0 = one server's worth) and GB for storage; the algorithms
/// only ever compare amounts of the same type or normalize by capacities, so
/// mixed units are safe.
class ResourceVector {
 public:
  constexpr ResourceVector() : v_{} {}
  constexpr ResourceVector(double cpu, double mem, double storage)
      : v_{cpu, mem, storage} {}

  static constexpr ResourceVector zero() { return ResourceVector{}; }
  static constexpr ResourceVector filled(double x) {
    return ResourceVector(x, x, x);
  }

  constexpr double operator[](std::size_t i) const { return v_[i]; }
  constexpr double& operator[](std::size_t i) { return v_[i]; }
  constexpr double get(ResourceKind k) const {
    return v_[static_cast<std::size_t>(k)];
  }
  constexpr void set(ResourceKind k, double x) {
    v_[static_cast<std::size_t>(k)] = x;
  }

  constexpr double cpu() const { return v_[0]; }
  constexpr double memory() const { return v_[1]; }
  constexpr double storage() const { return v_[2]; }

  ResourceVector& operator+=(const ResourceVector& o);
  ResourceVector& operator-=(const ResourceVector& o);
  ResourceVector& operator*=(double s);

  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    return a += b;
  }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    return a -= b;
  }
  friend ResourceVector operator*(ResourceVector a, double s) { return a *= s; }
  friend ResourceVector operator*(double s, ResourceVector a) { return a *= s; }

  friend bool operator==(const ResourceVector&, const ResourceVector&) =
      default;

  /// True when every component of this vector is <= other + eps. Inline:
  /// placement evaluates it once per candidate VM per entity.
  bool fits_within(const ResourceVector& other, double eps = 1e-9) const {
    for (std::size_t i = 0; i < kNumResources; ++i) {
      if (v_[i] > other.v_[i] + eps) return false;
    }
    return true;
  }

  /// True when any component is negative beyond -eps.
  bool any_negative(double eps = 1e-9) const;

  /// Component-wise max(0, x).
  ResourceVector clamped_non_negative() const;

  /// Component-wise minimum of two vectors.
  static ResourceVector min(const ResourceVector& a, const ResourceVector& b);

  /// Component-wise maximum of two vectors.
  static ResourceVector max(const ResourceVector& a, const ResourceVector& b);

  /// The resource type with the largest amount — the job's *dominant
  /// resource* (Sec. III-B). Ties resolve to the lower-indexed type.
  ResourceKind dominant() const;

  /// Sum of all components.
  double total() const;

  /// Weighted sum with the given per-type weights (Eq. 2 numerators).
  double weighted_total(const std::array<double, kNumResources>& w) const;

 private:
  std::array<double, kNumResources> v_;
};

std::ostream& operator<<(std::ostream& os, const ResourceVector& r);

/// Per-type weights omega_j of Eq. 2/4. The paper sets CPU/MEM/storage to
/// 0.4/0.4/0.2 because storage is not the bottleneck resource.
struct ResourceWeights {
  std::array<double, kNumResources> w{0.4, 0.4, 0.2};

  double weight(ResourceKind k) const {
    return w[static_cast<std::size_t>(k)];
  }

  /// True when weights are non-negative and sum to 1 (within eps).
  bool valid(double eps = 1e-9) const;
};

}  // namespace corp::trace
